import math

import numpy as np
import pytest

from bellbox.behavior import validate
from bellbox.functionals import make_chsh, make_inn22, make_mnn22
from bellbox.quantum import (
    MeasurementSet,
    TwoQubitState,
    _seesaw_once,
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
    rng = np.random.default_rng(9)
    for f in (make_chsh(2), make_inn22(3)):
        trace = []
        _seesaw_once(
            f,
            TwoQubitState.schmidt(math.pi / 4),
            rng,
            1e-10,
            200,
            "full",
            trace=trace,
        )
        diffs = np.diff(np.asarray(trace))
        assert (diffs >= -1e-12).all()


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


def test_counts_are_checked_before_any_worker_starts(monkeypatch):
    import bellbox.quantum as quantum

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(quantum, "ProcessPoolExecutor", no_pool)
    state = TwoQubitState.schmidt(math.pi / 4)
    with pytest.raises(ValueError):
        seesaw_maximize(make_chsh(2), state, restarts=0)
    with pytest.raises(ValueError):
        theta_sweep(make_chsh(2), grid=2, restarts=1, threads=0)
    with pytest.raises(ValueError):
        theta_sweep(make_chsh(2), grid=2, restarts=0, threads=2)
