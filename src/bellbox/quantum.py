"""Two-qubit behaviors and see-saw maximization of Bell functionals.

Everything here runs on the float backend.  States are pure two-qubit
vectors (usually in Schmidt form cos(theta)|00> + sin(theta)|11>, which is
general for this purpose since local unitaries are absorbed into the
measurement optimization).  Measurements are projective, given by unit
Bloch vectors for the outcome-0 projector (1 + n.sigma)/2.

The see-saw alternates parties: with Bob fixed, the terms containing
Alice's setting i collapse to Tr[Pi E_i] for a 2x2 Hermitian effective
operator E_i, so the per-step optimum is the top-eigenvector projector;
the objective therefore never decreases.  Results are certified lower
bounds on a state's maximum; a failure to find a violation is heuristic
evidence only and is reported as such.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .behavior import BehaviorPoint, Scenario
from .functionals import BellFunctional

_NORM_TOL = 1e-12

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class TwoQubitState:
    """A normalized pure state of two qubits."""

    vector: tuple

    def __post_init__(self):
        vec = tuple(complex(v) for v in self.vector)
        if len(vec) != 4:
            raise ValueError("state vector must have four components")
        norm = math.sqrt(sum(abs(v) ** 2 for v in vec))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state vector norm {norm} is not 1")
        object.__setattr__(self, "vector", vec)

    @classmethod
    def schmidt(cls, theta: float) -> "TwoQubitState":
        """cos(theta)|00> + sin(theta)|11>; theta = pi/4 is maximally entangled."""
        return cls((math.cos(theta), 0.0, 0.0, math.sin(theta)))

    def matrix(self) -> np.ndarray:
        """The 2x2 coefficient matrix Psi with psi = sum Psi[m,n] |m>|n>."""
        return np.asarray(self.vector, dtype=complex).reshape(2, 2)


def _check_bloch(vectors, n: int, label: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.shape != (n, 3):
        raise ValueError(f"{label} needs one 3-vector per setting")
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


def _projector(bloch) -> np.ndarray:
    n = np.asarray(bloch, dtype=float)
    return 0.5 * (_ID2 + n[0] * _SIGMA[0] + n[1] * _SIGMA[1] + n[2] * _SIGMA[2])


def _bloch_of_projector(proj: np.ndarray) -> tuple:
    return tuple(float(np.trace(proj @ s).real) for s in _SIGMA)


def quantum_behavior(state: TwoQubitState, alice_bloch, bob_bloch) -> BehaviorPoint:
    """Born-rule behavior of projective measurements on a two-qubit state."""
    n = len(alice_bloch)
    if len(bob_bloch) != n:
        raise ValueError("both parties need the same number of settings")
    a = _check_bloch(alice_bloch, n, "alice")
    b = _check_bloch(bob_bloch, n, "bob")
    psi = state.matrix()
    rho_a = psi @ psi.conj().T
    rho_b = (psi.conj().T @ psi).T
    proj_a = [_projector(v) for v in a]
    proj_b = [_projector(v) for v in b]
    marg_a = tuple(float(np.trace(p @ rho_a).real) for p in proj_a)
    marg_b = tuple(float(np.trace(p @ rho_b).real) for p in proj_b)
    joint = tuple(
        tuple(
            float(np.trace(pa @ psi @ pb.T @ psi.conj().T).real) for pb in proj_b
        )
        for pa in proj_a
    )
    return BehaviorPoint(Scenario(n), marg_a, marg_b, joint)


@dataclass(frozen=True)
class SeesawResult:
    value: float
    measurements: MeasurementSet
    converged: bool
    iterations: int


def _random_bloch(rng, plane: str) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        if plane == "xz":
            v[1] = 0.0
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm


def _seesaw_value(f, psi, rho_a, rho_b, proj_a, proj_b) -> float:
    n = f.scenario.n_settings
    total = float(f.constant)
    for i in range(n):
        if f.alice[i]:
            total += f.alice[i] * float(np.trace(proj_a[i] @ rho_a).real)
    for j in range(n):
        if f.bob[j]:
            total += f.bob[j] * float(np.trace(proj_b[j] @ rho_b).real)
    for i in range(n):
        row = f.joint[i]
        left = psi.conj().T @ proj_a[i] @ psi
        for j in range(n):
            if row[j]:
                total += row[j] * float(np.trace(left @ proj_b[j].T).real)
    return total


def _seesaw_once(
    f: BellFunctional,
    state: TwoQubitState,
    rng,
    tol: float,
    max_iterations: int,
    plane: str,
    trace=None,
):
    n = f.scenario.n_settings
    psi = state.matrix()
    rho_a = psi @ psi.conj().T
    rho_b = (psi.conj().T @ psi).T
    proj_a = [_projector(_random_bloch(rng, plane)) for _ in range(n)]
    proj_b = [_projector(_random_bloch(rng, plane)) for _ in range(n)]
    value = _seesaw_value(f, psi, rho_a, rho_b, proj_a, proj_b)
    if trace is not None:
        trace.append(value)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        for i in range(n):
            x = f.alice[i] * _ID2
            for j in range(n):
                if f.joint[i][j]:
                    x = x + f.joint[i][j] * proj_b[j]
            eff = psi @ x.T @ psi.conj().T
            _, vecs = np.linalg.eigh(eff)
            top = vecs[:, -1]
            proj_a[i] = np.outer(top, top.conj())
        for j in range(n):
            y = f.bob[j] * _ID2
            for i in range(n):
                if f.joint[i][j]:
                    y = y + f.joint[i][j] * proj_a[i]
            eff = (psi.conj().T @ y @ psi).T
            _, vecs = np.linalg.eigh(eff)
            top = vecs[:, -1]
            proj_b[j] = np.outer(top, top.conj())
        new_value = _seesaw_value(f, psi, rho_a, rho_b, proj_a, proj_b)
        if trace is not None:
            trace.append(new_value)
        if new_value - value < tol:
            value = max(value, new_value)
            converged = True
            break
        value = new_value
    measurements = MeasurementSet(
        tuple(_bloch_of_projector(p) for p in proj_a),
        tuple(_bloch_of_projector(p) for p in proj_b),
    )
    return value, measurements, converged, iterations


def seesaw_maximize(
    f: BellFunctional,
    state: TwoQubitState,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    max_iterations: int = 500,
    plane: str = "full",
) -> SeesawResult:
    """Best see-saw value over random restarts; a lower bound on the state's max."""
    if plane not in ("full", "xz"):
        raise ValueError("plane must be 'full' or 'xz'")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        value, meas, converged, iters = _seesaw_once(
            f, state, rng, tol, max_iterations, plane
        )
        if best is None or value > best.value:
            best = SeesawResult(value, meas, converged, iters)
    return best


@dataclass(frozen=True)
class SweepResult:
    thetas: tuple
    values: tuple
    best_theta: float
    best_value: float

    def curve(self):
        return list(zip(self.thetas, self.values))


def _sweep_point(args):
    f, theta, restarts, seed, tol, max_iterations, plane = args
    result = seesaw_maximize(
        f,
        TwoQubitState.schmidt(theta),
        restarts=restarts,
        seed=seed,
        tol=tol,
        max_iterations=max_iterations,
        plane=plane,
    )
    return result.value


def theta_sweep(
    f: BellFunctional,
    grid: int = 100,
    restarts: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
    max_iterations: int = 500,
    plane: str = "full",
    threads: int = 1,
) -> SweepResult:
    """Run the see-saw per Schmidt angle on a uniform grid over [0, pi/4]."""
    if grid < 2:
        raise ValueError("grid needs at least two points")
    if restarts < 1 or threads < 1:
        raise ValueError(f"restarts and threads must be at least 1, got {restarts} and {threads}")
    thetas = [k * (math.pi / 4) / (grid - 1) for k in range(grid)]
    jobs = [
        (f, theta, restarts, seed + k, tol, max_iterations, plane)
        for k, theta in enumerate(thetas)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(_sweep_point, jobs))
    else:
        values = [_sweep_point(job) for job in jobs]
    best_idx = int(np.argmax(values))
    return SweepResult(
        tuple(thetas), tuple(values), thetas[best_idx], values[best_idx]
    )
