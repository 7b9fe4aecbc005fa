"""Two-qubit behaviors and see-saw maximization of Bell functionals.

Everything here runs on the float backend.  States are pure two-qubit
vectors (usually in Schmidt form cos(theta)|00> + sin(theta)|11>, which is
general for this purpose since local unitaries are absorbed into the
measurement optimization).  Measurements are projective, given by unit
Bloch vectors for the outcome-0 projector (1 + n.sigma)/2.

A state enters only through its Bloch form: m_A = <sigma_k x 1>,
m_B = <1 x sigma_l> and T = <sigma_k x sigma_l>.  Then
P(A=0) = (1 + a.m_A)/2 and P(00) = (1 + a.m_A + b.m_B + a.T b)/4.

The see-saw alternates parties: with Bob fixed, the functional is affine
in each of Alice's vectors a_i, so the per-step optimum is the normalised
gradient dF/da_i, which is the Bloch vector of the top eigenprojector of
the effective 2x2 operator; then the same for Bob.  The objective
therefore never decreases.  One kernel runs a batch of restarts, and for a
sweep of states too, as (rows, n, 3) arrays.  It keeps the live rows' state
compacted between steps and gathers it again only on a step where some row
stops; every row goes through the same floating-point operations as it would
if the batch were gathered and scattered on every step, so values, vectors,
iteration counts and converged flags are bit-identical to that.  Results are
certified lower bounds on a state's maximum; a failure to find a violation
is heuristic evidence only and is reported as such.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorPoint, Scenario, as_integer
from .functionals import BellFunctional

_NORM_TOL = 1e-12

# a see-saw restart stops on the first step that gains less than SEESAW_TOL,
# or after SEESAW_MAX_ITERATIONS steps without converging
SEESAW_TOL = 1e-10
SEESAW_MAX_ITERATIONS = 500

# identity, then sigma_x, sigma_y, sigma_z
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


@dataclass(frozen=True)
class TwoQubitState:
    """A normalized pure state of two qubits."""

    vector: tuple

    def __post_init__(self):
        vec = tuple(complex(v) for v in self.vector)
        if len(vec) != 4:
            raise ValueError("state vector must have four components")
        if not all(cmath.isfinite(v) for v in vec):
            raise ValueError(f"state vector components must be finite, got {vec}")
        norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state vector norm {norm} is not 1")
        object.__setattr__(self, "vector", vec)

    @classmethod
    def schmidt(cls, theta: float) -> "TwoQubitState":
        """cos(theta)|00> + sin(theta)|11>; theta = pi/4 is maximally entangled."""
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        return cls((math.cos(theta), 0.0, 0.0, math.sin(theta)))

    def matrix(self) -> np.ndarray:
        """The 2x2 coefficient matrix Psi with psi = sum Psi[m,n] |m>|n>."""
        return np.asarray(self.vector, dtype=complex).reshape(2, 2)

    def bloch_form(self) -> tuple:
        """(m_A, m_B, T) with m_A[k] = <sigma_k x 1>, m_B[l] = <1 x sigma_l>, T[k, l] = <sigma_k x sigma_l>."""
        psi = self.matrix()
        # <s_k x s_l> = Tr(Psi^dagger s_k Psi s_l^T), with s_0 the identity
        full = np.einsum("mn,kmp,pq,lnq->kl", psi.conj(), _PAULI, psi, _PAULI).real
        return full[1:, 0], full[0, 1:], full[1:, 1:]


def _check_bloch(vectors, n: int, label: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"{label} needs one 3-vector per setting")
    if not np.isfinite(arr).all():
        raise ValueError(f"{label} Bloch vectors must be finite")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(np.abs(norms - 1.0) > _NORM_TOL):
        raise ValueError(f"{label} Bloch vectors must be unit length")
    return arr


@dataclass(frozen=True)
class MeasurementSet:
    """Unit Bloch vectors defining each party's outcome-0 projectors."""

    alice: tuple
    bob: tuple

    def __post_init__(self):
        n = len(self.alice)
        a = _check_bloch(self.alice, n, "alice")
        b = _check_bloch(self.bob, len(self.bob), "bob")
        object.__setattr__(self, "alice", tuple(map(tuple, a)))
        object.__setattr__(self, "bob", tuple(map(tuple, b)))


def quantum_behavior(state: TwoQubitState, alice_bloch, bob_bloch) -> BehaviorPoint:
    """Born-rule behavior of projective measurements on a two-qubit state."""
    n = len(alice_bloch)
    if len(bob_bloch) != n:
        raise ValueError("both parties need the same number of settings")
    a = _check_bloch(alice_bloch, n, "alice")
    b = _check_bloch(bob_bloch, n, "bob")
    m_a, m_b, t = state.bloch_form()
    ea, eb = a @ m_a, b @ m_b
    joint = (1 + ea[:, None] + eb[None, :] + a @ t @ b.T) / 4
    return BehaviorPoint(
        Scenario(n),
        tuple(((1 + ea) / 2).tolist()),
        tuple(((1 + eb) / 2).tolist()),
        tuple(map(tuple, joint.tolist())),
    )


@dataclass(frozen=True)
class SeesawResult:
    value: float
    measurements: MeasurementSet
    converged: bool
    iterations: int
    # how many of the restarts stopped on a gain below SEESAW_TOL
    restarts_converged: int


def _random_bloch(rng, plane: str) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        if plane == "xz":
            v[1] = 0.0
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


def _starts(n: int, seed: int, restarts: int, plane: str) -> np.ndarray:
    """(restarts, 2n, 3) starting vectors: per restart Alice's n, then Bob's n.

    Each vector is what `_random_bloch` would return from one generator in
    turn.  A generator's normal draws are sequential, so one draw gives them
    all; each norm is a dot product, as np.linalg.norm takes it for one
    vector.  From the first vector of norm at most 1e-8 on, which
    `_random_bloch` redraws, the vectors are drawn one at a time.
    """
    count = restarts * 2 * n
    v = np.random.default_rng(seed).normal(size=(count, 3))
    if plane == "xz":
        v[:, 1] = 0.0
    norms = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]
    short = np.flatnonzero(norms <= 1e-8)
    k = int(short[0]) if short.size else count
    out = np.empty_like(v)
    out[:k] = v[:k] / norms[:k, None]
    if k < count:
        rng = np.random.default_rng(seed)
        rng.normal(size=(k, 3))
        out[k:] = [_random_bloch(rng, plane) for _ in range(k, count)]
    return out.reshape(restarts, 2 * n, 3)


def _unit(grad: np.ndarray) -> np.ndarray:
    """Normalise the last axis; a zero gradient gives (0, 0, -1), as eigh does for a multiple of 1."""
    # np.linalg.norm(grad, axis=-1) computes exactly this
    norm = np.sqrt((grad * grad).sum(-1))
    if not norm.all():
        zero = norm == 0
        grad[zero], norm[zero] = (0.0, 0.0, -1.0), 1.0
    return grad / norm[..., None]


def _seesaw_rows(f: BellFunctional, forms, starts, tol: float, max_iterations: int, trace=None):
    """See-saw every row of a batch at once.

    Row r has the state `forms` = (m_A, m_B, T) at [r], of shapes (rows, 3),
    (rows, 3) and (rows, 3, 3), and starts from `starts[r]`, Alice's n
    vectors then Bob's n.  A row stops on the first step that gains less
    than `tol` and keeps the larger of its last two values.  Returns the
    final values, converged flags, iteration counts and (rows, 2n, 3)
    vectors.  `trace`, if given, receives the (rows,) values after the
    start and after each step; a stopped row repeats its last value.

    The live rows' state (vectors, forms, the linear terms wa m_A and
    wb m_B, the last value) stays compacted, in row order, and is written
    back and compacted again only on a step where some row stops or at
    `max_iterations`.  Each operation sees the same rows, in the same
    layout, as a gather and scatter on every step would give it, so the
    results are bit-identical to that.
    """
    n = f.scenario.n_settings
    joint = np.array(f.joint, dtype=float)
    # F = base + (sum_i wa_i a_i.m_A + sum_j wb_j b_j.m_B + sum_ij J_ij a_i.T b_j) / 4
    wa = 2 * np.array(f.alice, dtype=float) + joint.sum(axis=1)
    wb = 2 * np.array(f.bob, dtype=float) + joint.sum(axis=0)
    base = f.constant + (sum(f.alice) + sum(f.bob)) / 2 + joint.sum() / 4

    def value(a, b, m_a, m_b, t):
        corr = (a @ t @ b.transpose(0, 2, 1) * joint).sum(axis=(1, 2))
        return base + ((a @ m_a[:, :, None])[..., 0] @ wa + (b @ m_b[:, :, None])[..., 0] @ wb + corr) / 4

    m_a, m_b, t = forms
    vectors = np.array(starts, dtype=float)
    rows = len(vectors)
    values = value(vectors[:, :n], vectors[:, n:], m_a, m_b, t)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    if trace is not None:
        trace.append(values.copy())
    live = np.arange(rows)
    lm_a, lm_b, lt, b, last = m_a[live], m_b[live], t[live], vectors[live, n:], values[live]
    lin_a, lin_b = wa[:, None] * lm_a[:, None], wb[:, None] * lm_b[:, None]
    joint_t = joint.T
    for step in range(1, max_iterations + 1):
        if not live.size:
            break
        a = _unit(lin_a + (joint @ b) @ lt.transpose(0, 2, 1))
        b = _unit(lin_b + (joint_t @ a) @ lt)
        new = value(a, b, lm_a, lm_b, lt)
        if trace is not None:
            shown = values.copy()
            shown[live] = new
            trace.append(shown)
        done = new - last < tol
        if step < max_iterations and not done.any():
            last = new
            continue
        vectors[live, :n], vectors[live, n:] = a, b
        iterations[live] = step
        values[live] = np.where(done, np.maximum(last, new), new)
        converged[live[done]] = True
        keep = ~done
        live = live[keep]
        lm_a, lm_b, lt, lin_a, lin_b, b, last = (
            x[keep] for x in (lm_a, lm_b, lt, lin_a, lin_b, b, new)
        )
    return values, converged, iterations, vectors


def _check_args(plane: str, restarts, seed) -> tuple:
    """(restarts, seed) as ints, or a ValueError naming the argument."""
    if plane not in ("full", "xz"):
        raise ValueError("plane must be 'full' or 'xz'")
    restarts, seed = as_integer(restarts, "restarts"), as_integer(seed, "seed")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return restarts, seed


def seesaw_maximize(
    f: BellFunctional,
    state: TwoQubitState,
    restarts: int = 20,
    seed: int = 0,
    plane: str = "full",
) -> SeesawResult:
    """Best see-saw value over random restarts; a lower bound on the state's max.

    The winner is the first restart that attains the largest value.
    """
    restarts, seed = _check_args(plane, restarts, seed)
    n = f.scenario.n_settings
    forms = tuple(np.broadcast_to(x, (restarts, *x.shape)) for x in state.bloch_form())
    values, converged, iterations, vectors = _seesaw_rows(
        f, forms, _starts(n, seed, restarts, plane), SEESAW_TOL, SEESAW_MAX_ITERATIONS
    )
    best = int(np.argmax(values))
    return SeesawResult(
        float(values[best]),
        MeasurementSet(tuple(vectors[best, :n].tolist()), tuple(vectors[best, n:].tolist())),
        bool(converged[best]),
        int(iterations[best]),
        int(converged.sum()),
    )


@dataclass(frozen=True)
class SweepResult:
    thetas: tuple
    values: tuple
    best_theta: float
    best_value: float
    # per theta, how many of its restarts stopped on a gain below SEESAW_TOL
    restarts_converged: tuple

    def curve(self):
        return list(zip(self.thetas, self.values))


def theta_sweep(
    f: BellFunctional,
    grid: int = 100,
    restarts: int = 20,
    seed: int = 0,
    plane: str = "full",
    threads: int = 1,
) -> SweepResult:
    """Run the see-saw per Schmidt angle on a uniform grid over [0, pi/4].

    Point k draws its restarts from seed + k, as `seesaw_maximize` would.
    All grid points run as one batch in this process; `threads` is checked
    (at least 1) but starts no workers.
    """
    grid, threads = as_integer(grid, "grid"), as_integer(threads, "threads")
    if grid < 2:
        raise ValueError("grid needs at least two points")
    restarts, seed = _check_args(plane, restarts, seed)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    n = f.scenario.n_settings
    thetas = [k * (math.pi / 4) / (grid - 1) for k in range(grid)]
    per_point = [TwoQubitState.schmidt(theta).bloch_form() for theta in thetas]
    forms = tuple(np.repeat(np.array(x), restarts, axis=0) for x in zip(*per_point))
    starts = np.concatenate([_starts(n, seed + k, restarts, plane) for k in range(grid)])
    values, converged = _seesaw_rows(f, forms, starts, SEESAW_TOL, SEESAW_MAX_ITERATIONS)[:2]
    values = values.reshape(grid, restarts).max(axis=1).tolist()
    best_idx = int(np.argmax(values))
    return SweepResult(
        tuple(thetas),
        tuple(values),
        thetas[best_idx],
        values[best_idx],
        tuple(converged.reshape(grid, restarts).sum(axis=1).tolist()),
    )
