"""Facet verification, no-signaling vertex enumeration, and exact rank checks.

Every behavior here is gathered from the option table of `strategies`, for
the local class and for one box alike.  A facet certificate bundles the
exact class maximum, the saturating behaviors, and the affine rank of the
saturating set; it is accepted exactly when the maximum is 0 and the rank
is N(N+2)-1.  Vertex-hood of enumerated points rests on the generate /
deduplicate / discard-local filter; the known counts are the regression
oracle, not a from-scratch convex-hull computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .behavior import BehaviorPoint, Scenario, from_half_units, to_half_units, validate
from .functionals import BellFunctional, make_c1, make_c2, make_chsh, make_inn22, make_mnn22, orbit
from .machines import MachineSpec, gf2_rank, machine_behavior, pr_machine
from .strategies import (
    DecoupledMax,
    deterministic_point,
    half_rows,
    one_machine_half_matrix,
    strategy_behavior,
)


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals (integer rows, fraction-free)


class IntRowBasis:
    """Incremental row space of integer vectors, reduced by leading entries.

    Rows are stored keyed by the index of their first nonzero entry, with
    entries gcd-normalized, so membership tests stay in small integers.
    """

    def __init__(self):
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vector) -> bool:
        """Reduce against the basis; store and return True if independent."""
        v = list(vector)
        while True:
            pivot = next((k for k, x in enumerate(v) if x), None)
            if pivot is None:
                return False
            if pivot not in self.rows:
                g = 0
                for x in v:
                    g = gcd(g, x)
                if v[pivot] < 0:
                    g = -g
                self.rows[pivot] = [x // g for x in v]
                return True
            row = self.rows[pivot]
            a, b = row[pivot], v[pivot]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            v = [fa * x - fb * y for x, y in zip(v, row)]


def affine_rank_halves(vectors) -> int:
    """Affine rank of a set of integer coordinate vectors."""
    it = iter(vectors)
    try:
        base = next(it)
    except StopIteration:
        return 0
    basis = IntRowBasis()
    for vec in it:
        basis.add([x - y for x, y in zip(vec, base)])
    return basis.rank


def exact_affine_rank(points) -> int:
    """Affine rank of exact behaviors, via one common denominator."""
    pts = list(points)
    if not pts:
        return 0
    den = 1
    for p in pts:
        for c in p.coords():
            den = den * c.denominator // gcd(den, c.denominator)
    return affine_rank_halves([[int(c * den) for c in p.coords()] for p in pts])


# ---------------------------------------------------------------------------
# Vectorized behavior tables


def local_half_matrix(n: int) -> np.ndarray:
    """Half-unit coordinates of all 4^n deterministic behaviors, lex order."""
    return one_machine_half_matrix(n, None)


def functional_matrix(functionals) -> tuple:
    """Stack coefficient vectors; returns (coeffs (m, d) int64, doubled constants (m,))."""
    rows = [f.coefficient_vector() for f in functionals]
    arr = np.asarray(rows, dtype=np.int64)
    return arr[:, :-1], 2 * arr[:, -1]


def doubled_values(half_matrix: np.ndarray, functionals) -> np.ndarray:
    """Evaluate functionals on half-unit behaviors; entry [s, m] is 2 * value."""
    coeffs, consts2 = functional_matrix(functionals)
    return half_matrix.astype(np.int64) @ coeffs.T + consts2[None, :]


# ---------------------------------------------------------------------------
# Facet certificates


@dataclass(frozen=True)
class FacetCertificate:
    """Evidence that an inequality is tight and full-rank over a strategy class."""

    functional: BellFunctional
    strategy_class: str
    machine: MachineSpec | None
    max_value: Fraction
    witness: object
    affine_rank: int
    n_saturating: int
    n_deterministic: int
    saturating_points: tuple
    truncated: bool

    @property
    def accepted(self) -> bool:
        return (
            self.max_value == 0
            and self.affine_rank == self.functional.scenario.dimension - 1
        )


def _distinct_attaining_rows(state: DecoupledMax, limit: int):
    """Distinct half-unit rows of the first `limit` maximizers, first occurrence first."""
    seen = set()
    for alice, bob in state.attaining(limit):
        rows = half_rows(state.machine, alice, bob)
        fresh = []
        # one bytes key per row; np.unique(axis=0) sorts void rows and is ~30x slower
        for i, key in enumerate(rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        yield from rows[fresh].tolist()


def verify_facet(
    f: BellFunctional,
    strategy_class,
    *,
    max_strategies: int = 500_000,
    points_cap: int = 4096,
    exhaust: bool | None = None,
) -> FacetCertificate:
    """Certify tightness and affine rank of `f` over a strategy class.

    `strategy_class` is the string "local" or a `MachineSpec` for the
    one-machine class; the local witness is a `BehaviorPoint`, a box one a
    `WiringStrategy`.  The maximum is exact.  Only when it is 0 are the first
    `max_strategies` maximizers streamed from the option table, deduplicated,
    and the affine rank of their behaviors computed by integer elimination.
    For large classes the stream stops once the rank target N(N+2)-1 is
    reached unless `exhaust` forces full collection.
    """
    machine = None if strategy_class == "local" else strategy_class
    if machine is not None and not isinstance(machine, MachineSpec):
        raise ValueError("strategy class must be 'local' or a MachineSpec")
    if max_strategies < 1:
        raise ValueError(f"max_strategies must be at least 1, got {max_strategies}")
    state = DecoupledMax(f, machine)
    if exhaust is None:
        exhaust = state.a**state.n <= 4096
    stop_rank = None if exhaust else f.scenario.dimension - 1
    n_saturating = n_det = 0
    kept = []
    basis = IntRowBasis()
    if state.max2 == 0:
        for n_saturating, vec in enumerate(_distinct_attaining_rows(state, max_strategies), 1):
            if n_saturating == 1:
                base = vec
            else:
                basis.add([x - y for x, y in zip(vec, base)])
            n_det += all(v in (0, 2) for v in vec)
            if len(kept) < points_cap:
                kept.append(vec)
            if basis.rank == stop_rank:
                break
    witness = state.witness()
    return FacetCertificate(
        functional=f,
        strategy_class="local" if machine is None else "one_machine",
        machine=machine,
        max_value=state.value,
        witness=strategy_behavior(witness) if machine is None else witness,
        affine_rank=basis.rank,
        n_saturating=n_saturating,
        n_deterministic=n_det,
        saturating_points=tuple(from_half_units(f.scenario, v) for v in kept),
        truncated=basis.rank == stop_rank or (state.max2 == 0 and state.n_attaining > max_strategies),
    )


# ---------------------------------------------------------------------------
# Deterministic strategies saturating the machine-resistant family

# The eight three-setting saturators, as (alice, bob) outcome-0 marginal bits.
_BASE_SATURATORS_3 = (
    ((0, 1, 1), (1, 0, 0)),
    ((0, 1, 1), (0, 0, 0)),
    ((0, 1, 0), (0, 1, 0)),
    ((0, 1, 0), (0, 0, 0)),
    ((0, 0, 1), (0, 0, 1)),
    ((0, 0, 1), (0, 0, 0)),
    ((0, 0, 0), (0, 0, 1)),
    ((0, 0, 0), (0, 0, 0)),
)


def deterministic_saturators_mnn22(n: int) -> list:
    """The 2^n deterministic behaviors saturating `make_mnn22(n)`.

    Built recursively from the eight three-setting tables.  Each step maps a
    saturator to two: one appends an always-1 Alice setting and gives Bob a
    new always-1 setting in front; the other appends an always-0 Alice
    setting and slots Bob's new always-1 setting second, which keeps the one
    admissible Bob column aligned with the grown staircase.
    """
    if n < 3:
        raise ValueError("the family starts at three settings")
    pairs = list(_BASE_SATURATORS_3)
    for _ in range(3, n):
        grown = []
        for alpha, beta in pairs:
            grown.append((alpha + (0,), (0,) + beta))
            grown.append((alpha + (1,), (beta[0], 0) + beta[1:]))
        pairs = grown
    scenario = Scenario(n)
    return [
        deterministic_point(
            scenario,
            [1 - a for a in alpha],
            [1 - b for b in beta],
        )
        for alpha, beta in pairs
    ]


# ---------------------------------------------------------------------------
# No-signaling vertex enumeration and classification


def nontrivial_facets_n3() -> list:
    """The 648 non-trivial facets at three settings: both orbit closures."""
    return sorted(
        orbit(make_chsh(3)) | orbit(make_inn22(3)), key=BellFunctional.table_key
    )


def enumerate_nonlocal_vertices(n: int, machine: MachineSpec, facets) -> list:
    """Distinct one-machine behaviors that violate at least one supplied facet.

    Mirrors the generate / deduplicate / discard-local procedure; with the
    complete facet list this returns exactly the non-local vertices.
    """
    matrix = one_machine_half_matrix(n, machine)
    distinct = np.unique(matrix, axis=0)
    vals2 = doubled_values(distinct, facets)
    mask = (vals2 > 0).any(axis=1)
    return [tuple(int(v) for v in row) for row in distinct[mask]]


def _parity_residual_rank(halves, n: int) -> int:
    """GF(2) rank of the joint parity pattern modulo row/column output flips."""
    p = [[1 - halves[2 * n + i * n + j] for j in range(n)] for i in range(n)]
    q = [
        [p[i][j] ^ p[i][0] ^ p[0][j] ^ p[0][0] for j in range(1, n)]
        for i in range(1, n)
    ]
    return gf2_rank(q) if q else 0


def classify_vertex_n3(halves) -> str:
    """Shape class (S1..S4) of a three-setting non-local vertex.

    S2: one deterministic setting on each side; S3: one deterministic
    setting on exactly one side; S1/S4: none, split by the GF(2) rank of
    the flip-reduced joint parity pattern (2 needs the three-input box,
    1 is reachable with a two-input box).
    """
    n = 3
    a_det = sum(1 for v in halves[:n] if v in (0, 2))
    b_det = sum(1 for v in halves[n : 2 * n] if v in (0, 2))
    if (a_det, b_det) == (1, 1):
        return "S2"
    if (a_det, b_det) in ((1, 0), (0, 1)):
        return "S3"
    if (a_det, b_det) == (0, 0):
        rank = _parity_residual_rank(halves, n)
        if rank == 2:
            return "S1"
        if rank == 1:
            return "S4"
    raise ValueError(f"vertex does not match any known class shape: {halves}")


def enumerate_ns_vertices_n3(facets=None) -> list:
    """All 1344 non-local vertices at three settings, as (point, class label)."""
    if facets is None:
        facets = nontrivial_facets_n3()
    rows = enumerate_nonlocal_vertices(3, pr_machine(3), facets)
    scenario = Scenario(3)
    return [(from_half_units(scenario, row), classify_vertex_n3(row)) for row in rows]


@dataclass(frozen=True)
class ClassStats:
    count: int
    chsh_violations: int
    i3322_violations: int
    representative: BehaviorPoint


@dataclass(frozen=True)
class CensusResult:
    total: int
    classes: dict

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "classes": {
                label: {
                    "count": st.count,
                    "chsh": st.chsh_violations,
                    "i3322": st.i3322_violations,
                }
                for label, st in sorted(self.classes.items())
            },
        }

    def to_text(self) -> str:
        lines = ["class  count  chsh  i3322"]
        for label, st in sorted(self.classes.items()):
            lines.append(
                f"{label:<6} {st.count:>5} {st.chsh_violations:>5} {st.i3322_violations:>6}"
            )
        lines.append(f"total  {self.total:>5}")
        return "\n".join(lines)


def violation_census(classified, chsh_facets, i3322_facets) -> CensusResult:
    """Count violated CHSH-type and three-setting-type facets per vertex class.

    Every member of a class must violate the same number of facets of each
    type; any intra-class inconsistency signals an enumeration or orbit bug
    and raises.
    """
    halves = np.asarray([to_half_units(p) for p, _ in classified], dtype=np.int64)
    labels = [label for _, label in classified]
    chsh_counts = (doubled_values(halves, chsh_facets) > 0).sum(axis=1)
    i_counts = (doubled_values(halves, i3322_facets) > 0).sum(axis=1)
    per_class = {}
    for (point, label), c, i in zip(classified, chsh_counts, i_counts):
        entry = per_class.setdefault(label, [0, int(c), int(i), point])
        if (int(c), int(i)) != (entry[1], entry[2]):
            raise RuntimeError(
                f"class {label} members violate differing facet counts: "
                f"({c}, {i}) vs ({entry[1]}, {entry[2]})"
            )
        entry[0] += 1
    return CensusResult(
        total=len(classified),
        classes={
            label: ClassStats(cnt, chsh, i, rep)
            for label, (cnt, chsh, i, rep) in per_class.items()
        },
    )


def membership_by_facets(point: BehaviorPoint, facets) -> bool:
    """Inside the polytope cut out by `facets` (plus positivity via validate).

    Complete only when the facet list is complete for the scenario; for four
    or more settings the known lists are partial, so False is certain but
    True is relative to the supplied facets.
    """
    if validate(point):
        return False
    return all(f.evaluate(point) <= 0 for f in facets)


# ---------------------------------------------------------------------------
# Seeded property check for the majorization lemma


@dataclass(frozen=True)
class Lemma1Report:
    n_settings: int
    samples: int
    checked: int
    counterexamples: tuple


class LemmaCounterexampleError(AssertionError):
    def __init__(self, report):
        super().__init__(
            f"majorization lemma failed on {len(report.counterexamples)} of "
            f"{report.checked} samples"
        )
        self.report = report


def check_lemma1(
    n: int,
    samples: int = 10_000,
    seed: int = 0,
    raise_on_counterexample: bool = True,
) -> Lemma1Report:
    """Sample behaviors beyond the machine-resistant bound; check both relaxations.

    Draws mixtures lambda * PR_n + (1 - lambda) * random local vertex with
    lambda pushed past the positivity threshold, perturbs every other sample
    toward a second vertex, and asserts that each sampled point with a
    positive value also has strictly positive values on both majorized
    inequalities.  Arithmetic is exact (integer numerators over powers of
    two), and the generator is seeded for reproducibility.
    """
    if n < 3:
        raise ValueError("the lemma concerns three or more settings")
    rng = random.Random(seed)
    den = 4096
    m = make_mnn22(n)
    c1 = make_c1(n)
    c2 = make_c2(n)
    mc, mk = m.coefficient_vector()[:-1], m.constant
    c1c, c1k = c1.coefficient_vector()[:-1], c1.constant
    c2c, c2k = c2.coefficient_vector()[:-1], c2.constant
    pr_halves = to_half_units(machine_behavior(pr_machine(n)))
    scenario = Scenario(n)

    def det_halves():
        u = [rng.randrange(2) for _ in range(n)]
        v = [rng.randrange(2) for _ in range(n)]
        return to_half_units(deterministic_point(scenario, u, v))

    def dot(coeffs, vec):
        return sum(c * x for c, x in zip(coeffs, vec))

    counterexamples = []
    checked = 0
    for trial in range(samples):
        local = det_halves()
        v_local2 = dot(mc, local) + 2 * mk
        v_pr2 = dot(mc, pr_halves) + 2 * mk
        # smallest lambda = a/den with a positive mixture value
        a_min = (-v_local2 * den) // (v_pr2 - v_local2) + 1
        a = rng.randrange(max(a_min, 1), den + 1)
        mix = [a * p + (den - a) * q for p, q in zip(pr_halves, local)]
        denom = 2 * den
        if trial % 2 == 1:
            other = det_halves()
            b = rng.randrange(0, den // 4)
            bumped = [(den - b) * w + b * den * q for w, q in zip(mix, other)]
            if dot(mc, bumped) + mk * den * denom > 0:
                mix = bumped
                denom *= den
        m_num = dot(mc, mix) + mk * denom
        if m_num <= 0:
            raise RuntimeError("sampler produced a point below the bound")
        checked += 1
        c1_num = dot(c1c, mix) + c1k * denom
        c2_num = dot(c2c, mix) + c2k * denom
        if c1_num <= 0 or c2_num <= 0:
            point = BehaviorPoint.from_coords(
                scenario, [Fraction(x, denom) for x in mix]
            )
            counterexamples.append(point)
    report = Lemma1Report(n, samples, checked, tuple(counterexamples))
    if counterexamples and raise_on_counterexample:
        raise LemmaCounterexampleError(report)
    return report
