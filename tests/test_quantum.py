import math

import numpy as np
import pytest

from bellbox.behavior import validate
from bellbox.functionals import make_chsh, make_inn22, make_mnn22
from bellbox.quantum import (
    MeasurementSet,
    TwoQubitState,
    _seesaw_rows,
    _starts,
    quantum_behavior,
    seesaw_maximize,
    theta_sweep,
)

CHSH_QMAX = 1 / math.sqrt(2) - 0.5

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
DIAG_P = (1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))
DIAG_M = (-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))


def test_state_normalization_checked():
    with pytest.raises(ValueError):
        TwoQubitState((1.0, 1.0, 0.0, 0.0))
    s = TwoQubitState.schmidt(0.3)
    assert abs(sum(abs(v) ** 2 for v in s.vector) - 1) < 1e-12


def test_measurement_set_normalization_checked():
    with pytest.raises(ValueError):
        MeasurementSet(((0.0, 0.0, 2.0),), ((0.0, 0.0, 1.0),))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_states_and_vectors_rejected(bad):
    # abs(norm - 1) > tol is False for NaN, so the norm check alone lets it through
    with pytest.raises(ValueError):
        TwoQubitState((bad, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        TwoQubitState((complex(1.0, bad), 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        MeasurementSet(((bad, 0.0, 0.0),), (Z,))
    with pytest.raises(ValueError):
        quantum_behavior(TwoQubitState.schmidt(0.3), (Z, X), (Z, (0.0, bad, 1.0)))
    if math.isnan(bad):  # cos(inf) already raises inside math
        with pytest.raises(ValueError):
            TwoQubitState.schmidt(bad)


def test_computational_basis_joint_probability():
    theta = 0.3
    p = quantum_behavior(TwoQubitState.schmidt(theta), (Z, Z), (Z, Z))
    assert abs(p.joint[0][0] - math.cos(theta) ** 2) < 1e-12
    assert validate(p) == []


def test_optimal_chsh_angles_reach_the_known_value():
    state = TwoQubitState.schmidt(math.pi / 4)
    p = quantum_behavior(state, (Z, X), (DIAG_P, DIAG_M))
    value = make_chsh(2).evaluate(p)
    assert abs(value - CHSH_QMAX) < 1e-6


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def born_rule(psi, alice, bob):
    """Reference P(0|A_i), P(0|B_j), P(00|A_i,B_j) as <psi| Pa x Pb |psi> with explicit Kronecker products."""
    def projector(v):
        return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(v, _PAULIS)))

    def expect(op):
        return float(np.vdot(psi, op @ psi).real)

    pa = [projector(v) for v in alice]
    pb = [projector(v) for v in bob]
    return (
        [expect(np.kron(p, np.eye(2))) for p in pa],
        [expect(np.kron(np.eye(2), p)) for p in pb],
        [[expect(np.kron(p, q)) for q in pb] for p in pa],
    )


def test_quantum_behavior_matches_the_born_rule_on_general_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        vecs = rng.normal(size=(6, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        p = quantum_behavior(TwoQubitState(tuple(psi)), vecs[:3], vecs[3:])
        alice, bob, joint = born_rule(psi, vecs[:3], vecs[3:])
        assert np.abs(np.subtract(p.alice, alice)).max() < 1e-12
        assert np.abs(np.subtract(p.bob, bob)).max() < 1e-12
        assert np.abs(np.subtract(p.joint, joint)).max() < 1e-12


def test_product_state_never_violates_facets():
    rng = np.random.default_rng(3)
    state = TwoQubitState.schmidt(0.0)
    for _ in range(10):
        vecs = rng.normal(size=(6, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        p = quantum_behavior(state, vecs[:3], vecs[3:])
        assert validate(p) == []
        for f in (make_chsh(3), make_inn22(3), make_mnn22(3)):
            assert f.evaluate(p) <= 1e-9


def test_unnormalized_bloch_vectors_rejected():
    with pytest.raises(ValueError):
        quantum_behavior(TwoQubitState.schmidt(0.2), ((0, 0, 2),), ((0, 0, 1),))


def test_quantum_behavior_is_normalized_and_valid():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(6, 3))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    p = quantum_behavior(TwoQubitState.schmidt(0.5), vecs[:3], vecs[3:])
    assert validate(p) == []
    for i in range(3):
        for j in range(3):
            c = p.joint[i][j]
            total = c + (p.alice[i] - c) + (p.bob[j] - c) + (1 - p.alice[i] - p.bob[j] + c)
            assert abs(total - 1) < 1e-12


def test_seesaw_reaches_the_chsh_quantum_maximum():
    result = seesaw_maximize(
        make_chsh(2), TwoQubitState.schmidt(math.pi / 4), restarts=20, seed=0
    )
    assert result.converged
    assert abs(result.value - CHSH_QMAX) < 1e-6


def test_seesaw_never_decreases():
    forms = TwoQubitState.schmidt(math.pi / 4).bloch_form()
    rows = 8
    for f in (make_chsh(2), make_inn22(3)):
        trace = []
        _seesaw_rows(
            f,
            tuple(np.broadcast_to(x, (rows, *x.shape)) for x in forms),
            _starts(f.scenario.n_settings, 9, rows, "full"),
            1e-10,
            200,
            trace=trace,
        )
        diffs = np.diff(np.asarray(trace), axis=0)
        assert len(trace) > 2
        assert (diffs >= -1e-12).all()


def test_an_unused_setting_gets_the_eigh_default():
    # make_chsh(3) never uses Alice's setting 2 or Bob's setting 0: their
    # gradient is zero, and eigh of a multiple of 1 picks |1>, Bloch (0, 0, -1)
    result = seesaw_maximize(make_chsh(3), TwoQubitState.schmidt(0.5), restarts=3, seed=0)
    assert result.measurements.alice[2] == (0.0, 0.0, -1.0)
    assert result.measurements.bob[0] == (0.0, 0.0, -1.0)


def test_maximally_entangled_state_stays_below_the_machine_resistant_bound():
    result = seesaw_maximize(
        make_mnn22(3), TwoQubitState.schmidt(math.pi / 4), restarts=10, seed=0
    )
    assert result.value <= 1e-9


def test_three_setting_family_is_quantum_violated():
    result = seesaw_maximize(
        make_inn22(3), TwoQubitState.schmidt(math.pi / 4), restarts=10, seed=0
    )
    assert result.value > 0.2


def test_seesaw_respects_no_signaling_maxima():
    state = TwoQubitState.schmidt(math.pi / 4)
    assert seesaw_maximize(make_chsh(2), state, restarts=8, seed=1).value <= 0.5 + 1e-9
    assert seesaw_maximize(make_inn22(3), state, restarts=8, seed=1).value <= 1 + 1e-9


def test_planar_measurements_suffice():
    state = TwoQubitState.schmidt(math.pi / 4)
    for f in (make_chsh(2), make_inn22(3)):
        full = seesaw_maximize(f, state, restarts=15, seed=2, plane="full").value
        planar = seesaw_maximize(f, state, restarts=15, seed=2, plane="xz").value
        assert abs(full - planar) <= 1e-8


def test_sweep_finds_weakly_entangled_violations_of_m3322():
    sweep = theta_sweep(make_mnn22(3), grid=25, restarts=8, seed=0)
    assert len(sweep.curve()) == 25
    assert sweep.best_value > 1e-4
    assert sweep.best_theta < math.pi / 4
    assert sweep.values[-1] <= 1e-9


def test_sweep_on_chsh_peaks_at_maximal_entanglement():
    sweep = theta_sweep(make_chsh(2), grid=9, restarts=6, seed=0)
    assert sweep.best_theta == sweep.thetas[-1]
    assert abs(sweep.best_value - CHSH_QMAX) < 1e-6


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        theta_sweep(make_chsh(2), grid=1)


def test_counts_are_checked_before_any_worker_starts():
    state = TwoQubitState.schmidt(math.pi / 4)
    with pytest.raises(ValueError):
        seesaw_maximize(make_chsh(2), state, restarts=0)
    with pytest.raises(ValueError):
        theta_sweep(make_chsh(2), grid=2, restarts=1, threads=0)
    with pytest.raises(ValueError):
        theta_sweep(make_chsh(2), grid=2, restarts=0, threads=2)
