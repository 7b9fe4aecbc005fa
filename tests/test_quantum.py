import math

import numpy as np
import pytest

from bellbox.behavior import validate
from bellbox.functionals import make_c1, make_chsh, make_inn22, make_mnn22
from bellbox.quantum import (
    MeasurementSet,
    TwoQubitState,
    SEESAW_MAX_ITERATIONS,
    SEESAW_TOL,
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


def reference_starts(n, seed, restarts, plane):
    """Start vectors drawn one at a time, each normalised by np.linalg.norm of that one vector."""
    rng = np.random.default_rng(seed)

    def one():
        while True:
            v = rng.normal(size=3)
            if plane == "xz":
                v[1] = 0.0
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                return v / norm

    return np.array([[one() for _ in range(2 * n)] for _ in range(restarts)])


@pytest.mark.parametrize("plane", ["full", "xz"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_starts_equal_the_per_vector_draws_bit_for_bit(n, plane):
    for seed, restarts in ((0, 1), (7, 3), (12345, 20), (2 ** 31 - 1, 64)):
        assert np.array_equal(_starts(n, seed, restarts, plane), reference_starts(n, seed, restarts, plane))


# seed 4's normal draws, except that vector 5 (draws 15-17) has x = z = 1e-10
SHORT_XZ_STREAM = np.random.default_rng(4).normal(size=3000)
SHORT_XZ_STREAM[[15, 17]] = 1e-10


class ShortVectorRng:
    """A generator whose normal draws are SHORT_XZ_STREAM, whatever the seed."""

    def __init__(self, seed):
        self.pos = 0

    def normal(self, size):
        count = int(np.prod(size))
        self.pos += count
        return SHORT_XZ_STREAM[self.pos - count:self.pos].reshape(size)


@pytest.mark.parametrize("plane", ["full", "xz"])
def test_a_short_start_vector_is_redrawn_as_one_at_a_time(monkeypatch, plane):
    monkeypatch.setattr(np.random, "default_rng", ShortVectorRng)
    starts = _starts(3, 0, 4, plane)
    assert np.array_equal(starts, reference_starts(3, 0, 4, plane))
    # only in the xz plane is vector 5 short; its redraw takes draws 18-20
    redraw = SHORT_XZ_STREAM[18:21] * [1.0, 0.0, 1.0]
    assert np.array_equal(starts[0, 5], redraw / np.linalg.norm(redraw)) == (plane == "xz")


@pytest.mark.parametrize("f", [make_chsh(2), make_inn22(3), make_mnn22(3), make_mnn22(4), make_c1(4)],
                         ids=["CHSH", "I3322", "M3322", "M4422", "C1-4"])
def test_every_restart_value_is_the_born_rule_value_of_its_vectors(f):
    n = f.scenario.n_settings
    for theta, seed in ((math.pi / 4, 0), (0.2263, 5), (0.6, 11)):
        state = TwoQubitState.schmidt(theta)
        rows = 6
        forms = tuple(np.broadcast_to(x, (rows, *x.shape)) for x in state.bloch_form())
        values, _, _, vectors = _seesaw_rows(
            f, forms, _starts(n, seed, rows, "full"), SEESAW_TOL, SEESAW_MAX_ITERATIONS
        )
        for value, row in zip(values, vectors):
            assert abs(f.evaluate(quantum_behavior(state, row[:n], row[n:])) - value) <= 1e-12


def test_a_stopped_row_repeats_its_value_in_the_trace():
    forms = TwoQubitState.schmidt(0.4).bloch_form()
    rows = 10
    trace = []
    values, converged, iterations, _ = _seesaw_rows(
        make_mnn22(3),
        tuple(np.broadcast_to(x, (rows, *x.shape)) for x in forms),
        _starts(3, 2, rows, "full"),
        1e-10,
        500,
        trace=trace,
    )
    trace = np.asarray(trace)
    assert converged.all()
    assert len(trace) == iterations.max() + 1
    assert len(set(iterations.tolist())) > 1
    for r, stop in enumerate(iterations):
        # the stopping step shows its own value; the row keeps the larger of its last two
        assert values[r] == max(trace[stop - 1, r], trace[stop, r])
        assert (trace[stop + 1:, r] == values[r]).all()


def test_iteration_cap_stops_every_live_row_unconverged():
    forms = TwoQubitState.schmidt(0.4).bloch_form()
    rows = 5
    capped = _seesaw_rows(
        make_mnn22(3), tuple(np.broadcast_to(x, (rows, *x.shape)) for x in forms),
        _starts(3, 2, rows, "full"), 1e-10, 3,
    )
    assert not capped[1].any()
    assert (capped[2] == 3).all()


def test_results_count_their_converged_restarts():
    f = make_mnn22(3)
    result = seesaw_maximize(f, TwoQubitState.schmidt(0.3), restarts=7, seed=4)
    forms = tuple(np.broadcast_to(x, (7, *x.shape)) for x in TwoQubitState.schmidt(0.3).bloch_form())
    converged = _seesaw_rows(f, forms, _starts(3, 4, 7, "full"), SEESAW_TOL, SEESAW_MAX_ITERATIONS)[1]
    assert result.restarts_converged == int(converged.sum())
    sweep = theta_sweep(f, grid=4, restarts=3, seed=9)
    assert len(sweep.restarts_converged) == 4
    for k, theta in enumerate(sweep.thetas):
        point = seesaw_maximize(f, TwoQubitState.schmidt(theta), restarts=3, seed=9 + k)
        assert sweep.restarts_converged[k] == point.restarts_converged
        assert sweep.values[k] == point.value


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": None}, "seed None is not an integer"),
    ({"seed": 1.5}, "seed 1.5 is not an integer"),
    ({"seed": "abc"}, "seed 'abc' is not an integer"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"restarts": 2.5}, "restarts 2.5 is not an integer"),
    ({"restarts": True}, "restarts True is not an integer"),
])
def test_seesaw_integer_arguments_are_checked(kwargs, message):
    state = TwoQubitState.schmidt(0.3)
    with pytest.raises(ValueError, match=message):
        seesaw_maximize(make_chsh(2), state, **kwargs)
    with pytest.raises(ValueError, match=message):
        theta_sweep(make_chsh(2), grid=2, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"grid": 2.5}, "grid 2.5 is not an integer"),
    ({"threads": 1.5}, "threads 1.5 is not an integer"),
    ({"threads": None}, "threads None is not an integer"),
])
def test_sweep_integer_arguments_are_checked(kwargs, message):
    with pytest.raises(ValueError, match=message):
        theta_sweep(make_chsh(2), **{"grid": 2, **kwargs})


def test_integral_arguments_of_other_types_are_taken_as_ints():
    state = TwoQubitState.schmidt(0.3)
    plain = seesaw_maximize(make_chsh(2), state, restarts=3, seed=8)
    assert seesaw_maximize(make_chsh(2), state, restarts=3.0, seed=np.int64(8)) == plain
