"""Facet verification, no-signaling vertex enumeration, and exact rank checks.

Every strategy behavior here comes as half-unit rows from `strategies`, for
the local class and for one box alike; this module ranks and counts them,
and never reads the option table itself.  A facet certificate bundles the
exact class maximum, the saturating behaviors, and the affine rank of the
saturating set; it is accepted exactly when the maximum is 0 and the rank
is N(N+2)-1.  The rank is kept as an integer basis of the orthogonal
complement (`IntRowBasis`), so each block of distinct saturating rows is
tested with one product.  The no-signaling vertices follow their definition: a
half-integral positive point is a vertex when the cells vanishing on it
have rank N(N+2), which reduces to a parity test on its joint pattern
(`ns_vertex_rows`); no facet list or strategy table is needed.
`enumerate_nonlocal_vertices` answers a different question, which rows of
the dense one-box table violate a facet.  The majorization lemma holds by
exact cell identities (`lemma1_identities`); its seeded sampler mixes PR_n
with local vertices in numpy blocks, each vertex evaluated from its drawn
bits, and every draw a 32-bit word of `random.Random(seed).getrandbits`.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .behavior import BehaviorPoint, Scenario, as_integer, from_half_units, to_half_units, validate
from .functionals import BellFunctional, make_c1, make_c2, make_chsh, make_inn22, make_mnn22, orbit
from .machines import MachineSpec, machine_behavior, pr_machine
from .strategies import (
    DecoupledMax,
    WiringStrategy,
    deterministic_point,
    half_rows,
    one_machine_half_matrix,
)


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals (integer rows, fraction-free)


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute entry, as a Python int (0 when empty)."""
    return int(np.abs(a).max()) if a.size else 0


def _int_rows(rows) -> tuple:
    """`(array, largest |entry|)` of integer rows: int64 below 2^62, else Python ints (object)."""
    out = rows if isinstance(rows, np.ndarray) else np.array(rows)
    if not len(out):
        return np.zeros((0, out.shape[-1] if out.ndim == 2 else 0), dtype=np.int64), 0
    if out.dtype.kind not in "iu" or out.dtype == np.uint64:
        out = np.array([[operator.index(x) for x in row] for row in rows], dtype=object)
    out = out.reshape(len(out), -1)
    size = _magnitude(out)
    return (out.astype(np.int64, copy=False) if size < 2**62 else out.astype(object)), size


class IntRowBasis:
    """Row space of integer vectors, kept as an integer basis of its orthogonal complement.

    `complement` holds gcd-normalized rows K spanning every vector
    orthogonal to the rows added so far (the identity before any), so a
    vector lies in the row space exactly when K v = 0, and the rank is the
    dimension minus the number of rows of K.  A block of rows is tested
    with one product; each independent row folds one complement row into
    the others, and the products of the rest of the block are updated the
    same way.  Arithmetic is int64 while a bound on every entry it can
    produce stays below 2^63, and exact Python ints past that.
    """

    def __init__(self):
        self.complement = None
        self._scale = 1  # largest |entry| of the complement

    @property
    def rank(self) -> int:
        k = self.complement
        return 0 if k is None else k.shape[1] - k.shape[0]

    def add_rows(self, rows) -> list:
        """Add rows in order; return the indices of those independent of the rows before them."""
        rows, size = _int_rows(rows)
        k = self.complement
        if k is None:
            k = np.eye(rows.shape[1], dtype=np.int64)
        row_scale = size * rows.shape[1]

        def overflows():  # a product, or an entry a fold makes, could leave int64
            bound = row_scale * self._scale
            return 2 * bound * max(bound, self._scale) >= 2**63

        if object in (rows.dtype, k.dtype) or overflows():
            rows, k = rows.astype(object), k.astype(object)
        # products[i] is zero exactly when row i is in the span
        products = rows if self.complement is None else rows @ k.T
        added = []
        offset = 0
        live = len(k)
        while live and len(products):
            independent = products.any(axis=1)
            i = int(independent.argmax())
            if not independent[i]:
                break
            r, products = products[i], products[i + 1 :]
            added.append(offset + i)
            offset += i + 1
            live -= 1
            # fold the row p with the smallest nonzero product into the others,
            # so that each becomes orthogonal to the new row; row p becomes 0
            sizes = [abs(x) if x else np.inf for x in r.tolist()]
            p = sizes.index(min(sizes))
            k = r[p] * k - np.outer(r, k[p])
            g = np.gcd.reduce(k, axis=1)
            np.maximum(g, 1, out=g)
            k //= g[:, None]
            if len(products):
                products = (r[p] * products - np.outer(products[:, p], r)) // g
            # a fold grows entries by at most 2 max|r|; measure them once that bound nears the limit
            self._scale *= 2 * max(x for x in sizes if x != np.inf)
            if k.dtype != object and overflows():
                self._scale = _magnitude(k)
                if overflows():
                    k, products = k.astype(object), products.astype(object)
        # drop the rows that folds zeroed
        self.complement = k[k.any(axis=1)] if added else k
        return added


def affine_rank_halves(vectors) -> int:
    """Affine rank of a set of integer coordinate vectors."""
    rows, _ = _int_rows(list(vectors))
    if len(rows) < 2:
        return 0
    basis = IntRowBasis()
    basis.add_rows(rows[1:] - rows[0])
    return basis.rank


# ---------------------------------------------------------------------------
# Vectorized behavior tables


def functional_matrix(functionals, d: int) -> tuple:
    """Stack coefficient vectors; returns (coeffs (m, d) int64, doubled constants (m,))."""
    rows = [f.coefficient_vector() for f in functionals]
    arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), d + 1)
    return arr[:, :-1], 2 * arr[:, -1]


def doubled_values(half_matrix: np.ndarray, functionals) -> np.ndarray:
    """Evaluate functionals on half-unit behaviors; entry [s, m] is 2 * value."""
    coeffs, consts2 = functional_matrix(functionals, half_matrix.shape[1])
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
    witness: WiringStrategy
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


# at most this many saturating behaviors are kept on a certificate
SATURATING_POINTS_CAP = 4096


def verify_facet(
    f: BellFunctional,
    strategy_class,
    *,
    max_strategies: int = 500_000,
) -> FacetCertificate:
    """Certify tightness and affine rank of `f` over a strategy class.

    `strategy_class` is the string "local" or a `MachineSpec` for the
    one-machine class; the witness is a `WiringStrategy` for both, with no
    machine for the local class.  The maximum and the numbers of saturating
    and of deterministic saturating strategies are exact.  When the maximum is 0,
    the affine rank is that of the distinct behaviors of `DecoupledMax.star_rows`
    (first `SATURATING_POINTS_CAP` kept), which span the saturating set's
    affine hull.  They are ranked block by block as the stream yields them,
    from the last attaining Alice vector back in blocks that start at one
    batch and double, and the ranking stops at the highest rank the set can
    have: N(N+2)-1 when `f` has a nonzero coefficient (the set lies in
    f = 0), else N(N+2).
    At most `max_strategies` distinct behaviors are examined; `truncated`
    says that more were left while the rank was below that ceiling.
    """
    machine = None if strategy_class == "local" else strategy_class
    if machine is not None and not isinstance(machine, MachineSpec):
        raise ValueError("strategy class must be 'local' or a MachineSpec")
    if max_strategies < 1:
        raise ValueError(f"max_strategies must be at least 1, got {max_strategies}")
    state = DecoupledMax(f, machine)
    d = f.scenario.dimension
    ceiling = d - 1 if any(f.coefficient_vector()[:-1]) else d
    kept = []
    basis = IntRowBasis()
    truncated = False
    if state.max2 == 0:
        examined = 0
        for fresh in state.star_rows():
            if not len(fresh):
                continue
            if examined == max_strategies:
                truncated = True
                break
            budget = max_strategies - examined
            left = len(fresh) > budget
            fresh = fresh[:budget].astype(np.int64)
            if not examined:
                base = fresh[0]
            added = basis.add_rows(fresh - base)
            if basis.rank == ceiling:
                fresh = fresh[: added[-1] + 1]
            kept += fresh[: SATURATING_POINTS_CAP - len(kept)].tolist()
            examined += len(fresh)
            if basis.rank == ceiling:
                break
            if left:
                truncated = True
                break
    return FacetCertificate(
        functional=f,
        strategy_class="local" if machine is None else "one_machine",
        machine=machine,
        max_value=state.value,
        witness=state.witness(),
        affine_rank=basis.rank,
        n_saturating=state.n_attaining if state.max2 == 0 else 0,
        n_deterministic=state.n_deterministic if state.max2 == 0 else 0,
        saturating_points=tuple(from_half_units(f.scenario, v) for v in kept),
        truncated=truncated,
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


def half_integral_candidates(n: int) -> np.ndarray:
    """Half-unit rows (int8) of every positive point with entries in {0, 1/2, 1}, lex order.

    The marginals range over {0, 1/2, 1}; a joint entry is forced by
    positivity (0 beside a zero marginal, the other marginal beside a one)
    unless both of its marginals are 1/2, when it is 0 or 1/2.  The rows
    grow one joint column at a time, each split row followed by its twin,
    so the order stays lexicographic: 136 rows at n = 2, 3,280 at n = 3 and
    225,568 at n = 4.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"half-integral candidates are generated for 2 to 4 settings, got {n}")
    marginals = np.array(list(itertools.product(range(3), repeat=2 * n)), dtype=np.int8)
    rows = np.zeros((len(marginals), n * (n + 2)), dtype=np.int8)
    rows[:, : 2 * n] = marginals
    for i in range(n):
        for j in range(n):
            a, b = rows[:, i], rows[:, n + j]
            free = (a == 1) & (b == 1)
            forced = np.where(a == 2, b, np.where(b == 2, a, 0))
            counts = 1 + free
            rows = np.repeat(rows, counts, axis=0)
            column = np.repeat(forced, counts)
            column[np.cumsum(counts)[free] - 1] = 1  # a split row's twin takes 1/2
            rows[:, (i + 2) * n + j] = column
    return rows


def nonlocal_vertex_mask(rows, n: int) -> np.ndarray:
    """Which half-integral candidates are non-local no-signaling vertices.

    A point is a vertex when the cells that vanish on it have rank n(n+2).
    A deterministic setting pins its marginal and its joint entries.  Where
    both marginals are 1/2 the vanishing cells say x_i = y_j (joint 1/2) or
    x_i = -y_j (joint 0) for the moves x, y of those marginals, and every
    other joint entry follows the marginals.  So a candidate with a
    non-deterministic setting is a vertex exactly when the joint-0 pattern
    on its half block is not u_i xor v_j: some residual
    z_ij ^ z_i0j ^ z_ij0 ^ z_i0j0 against the first half row i0 and column
    j0 is 1, which needs two half settings on each side.
    """
    rows = np.asarray(rows)
    half_a, half_b = rows[:, :n] == 1, rows[:, n : 2 * n] == 1
    zero = rows[:, 2 * n :].reshape(-1, n, n) == 0
    r = np.arange(len(rows))
    i0, j0 = half_a.argmax(axis=1), half_b.argmax(axis=1)
    residual = (
        zero
        ^ zero[r, i0][:, None, :]
        ^ zero[r, :, j0][:, :, None]
        ^ zero[r, i0, j0][:, None, None]
    )
    return (residual & half_a[:, :, None] & half_b[:, None, :]).any(axis=(1, 2))


def ns_vertex_rows(n: int) -> np.ndarray:
    """Half-unit rows (int8) of the non-local no-signaling vertices, lex order.

    Every vertex of the binary-output no-signaling polytope is half-integral
    (Barrett et al., PRA 71, 022101 (2005)), so the vertices are the
    `half_integral_candidates` that pass `nonlocal_vertex_mask`: 8 at n = 2,
    1,344 at n = 3 and 194,432 at n = 4.  No facet list and no strategy
    table is involved.
    """
    rows = half_integral_candidates(n)
    return rows[nonlocal_vertex_mask(rows, n)]


def enumerate_nonlocal_vertices(n: int, machine: MachineSpec, facets) -> list:
    """Distinct one-machine behaviors that violate at least one supplied facet.

    This is one-box reachability, not the vertex definition (that is
    `ns_vertex_rows`): the dense table of every wiring around `machine`,
    deduplicated, keeping the rows that violate a facet, in lexicographic
    row order.  At n = 3 with `pr_machine(3)` and the complete facet list it
    returns the same 1,344 rows as `ns_vertex_rows(3)`.  Rows are
    deduplicated by base-3 int64 keys, built one column at a time; they fit
    for n <= 5 (3^35 < 2^63).
    """
    if n > 5:
        raise ValueError("base-3 row keys overflow int64 beyond five settings")
    matrix = one_machine_half_matrix(n, machine)
    keys = np.zeros(matrix.shape[0], dtype=np.int64)
    for column in matrix.T:
        keys *= 3
        keys += column
    distinct = matrix[np.unique(keys, return_index=True)[1]]
    vals2 = doubled_values(distinct, facets)
    mask = (vals2 > 0).any(axis=1)
    return [tuple(int(v) for v in row) for row in distinct[mask]]


# (deterministic settings of Alice, of Bob, GF(2) rank of the residual) -> class
_VERTEX_CLASSES_N3 = {(1, 1, 1): "S2", (1, 0, 1): "S3", (0, 1, 1): "S3", (0, 0, 1): "S4", (0, 0, 2): "S1"}


def classify_vertex_n3(halves) -> str:
    """Class (S1..S4) of a three-setting non-local vertex, from its half block.

    The residual is the one `nonlocal_vertex_mask` tests: the joint-0
    pattern on the half block, each row xor the first half row and each
    column xor the first half column.  The class is the table entry of the
    numbers of deterministic settings and the residual's GF(2) rank: S2 has
    one deterministic setting on each side, S3 one on exactly one side, and
    S1/S4 none, with rank 2 (needs the three-input box) and 1 (reachable
    with a two-input box).  A row that is not a non-local vertex has rank 0
    and is refused.
    """
    n = 3
    if len(halves) != n * (n + 2):
        raise ValueError(f"a three-setting vertex has 15 coordinates, got {len(halves)}")
    half_a = [i for i in range(n) if halves[i] == 1]
    half_b = [j for j in range(n) if halves[n + j] == 1]
    # joint-0 bits of each half row on the half columns, the first one lowest
    codes = [sum(1 << k for k, j in enumerate(half_b) if halves[2 * n + i * n + j] == 0) for i in half_a]
    flip = (1 << len(half_b)) - 1
    # at n <= 3 at most two residual rows are nonzero, so the rank is the
    # number of distinct nonzero rows
    residual = {c ^ codes[0] ^ (flip if (c ^ codes[0]) & 1 else 0) for c in codes}
    label = _VERTEX_CLASSES_N3.get((n - len(half_a), n - len(half_b), len(residual - {0})))
    if label is None:
        raise ValueError(f"not a non-local vertex: {halves}")
    return label


def enumerate_ns_vertices_n3(facets=None) -> list:
    """The 1344 non-local vertices at three settings, as (point, class label).

    They come from `ns_vertex_rows(3)`.  A supplied facet list keeps only
    the vertices that violate at least one member; every vertex violates
    one of the complete 648 (`nontrivial_facets_n3`), so that list changes
    nothing.
    """
    rows = ns_vertex_rows(3)
    if facets is not None:
        rows = rows[(doubled_values(rows, facets) > 0).any(axis=1)]
    scenario = Scenario(3)
    return [(from_half_units(scenario, row), classify_vertex_n3(row)) for row in rows.tolist()]


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
    """`census_rows` of (point, class label) pairs, counted on the points' half-unit rows."""
    if not classified:
        return CensusResult(total=0, classes={})
    halves = np.asarray([to_half_units(p) for p, _ in classified], dtype=np.int64)
    labels = [label for _, label in classified]
    return census_rows(classified[0][0].scenario, halves, labels, chsh_facets, i3322_facets)


def census_rows(scenario: Scenario, rows, labels, chsh_facets, i3322_facets) -> CensusResult:
    """Count violated facets of each type per class, from half-unit rows and their labels.

    Every member of a class must violate the same number of facets of each
    type; any intra-class inconsistency signals an enumeration or orbit bug
    and raises.  A class's representative is the point of its first row.
    """
    chsh_counts = (doubled_values(rows, chsh_facets) > 0).sum(axis=1).tolist()
    i_counts = (doubled_values(rows, i3322_facets) > 0).sum(axis=1).tolist()
    per_class = {}
    for k, (label, c, i) in enumerate(zip(labels, chsh_counts, i_counts)):
        entry = per_class.setdefault(label, [0, c, i, k])
        if (c, i) != (entry[1], entry[2]):
            raise RuntimeError(
                f"class {label} members violate differing facet counts: "
                f"({c}, {i}) vs ({entry[1]}, {entry[2]})"
            )
        entry[0] += 1
    return CensusResult(
        total=len(labels),
        classes={
            label: ClassStats(cnt, chsh, i, from_half_units(scenario, rows[k].tolist()))
            for label, (cnt, chsh, i, k) in per_class.items()
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
# The majorization lemma: exact identities and a seeded property check


def lemma1_identities(n: int) -> tuple:
    """Cells (i, j, r_A, r_B) whose probabilities sum to C1 - M and to C2 - M.

    With M = `make_mnn22(n)`, identically in the coordinates,
    C1 - M = P(01|0,0) + sum_{i=1}^{n-1} P(10|i,0) + P(00|n-1,1) and
    C2 - M = P(01|0,n-1) + sum_{j=0}^{n-2} P(10|1,j) + P(00|1,n-1).
    Every cell is >= 0 on the no-signaling polytope, so each relaxation is
    >= M there exactly.
    """
    if n < 3:
        raise ValueError("the lemma concerns three or more settings")
    c1 = [(0, 0, 0, 1), *((i, 0, 1, 0) for i in range(1, n)), (n - 1, 1, 0, 0)]
    c2 = [(0, n - 1, 0, 1), *((1, j, 1, 0) for j in range(n - 1)), (1, n - 1, 0, 0)]
    return c1, c2


# samples the lemma sampler draws, evaluates and checks together; even, so the
# perturbed samples (every second one) are the odd rows of every block
LEMMA_BLOCK = 4096


def draw_words(rng: random.Random, m: int) -> np.ndarray:
    """m uniform 32-bit words: `rng.getrandbits(32 * m)` read as little-endian uint32."""
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")


def draw_bits(rng: random.Random, k: int) -> np.ndarray:
    """k uniform bits (uint8): the bits of `draw_words`, each word least significant bit first."""
    return np.unpackbits(draw_words(rng, -(-k // 32)).view(np.uint8), bitorder="little")[:k]


def draw_below(rng: random.Random, widths) -> np.ndarray:
    """One uniform int64 draw in [0, w) per width 1 <= w <= 2^32.

    A draw is the top bit_length(w - 1) bits of a word (frexp's exponent of
    w - 1), redrawn from fresh words while it is w or more.
    """
    widths = np.asarray(widths, dtype=np.int64)
    out = draw_words(rng, len(widths)) >> (32 - np.frexp(widths - 1)[1])
    rejected = np.flatnonzero(out >= widths)
    if len(rejected):
        out[rejected] = draw_below(rng, widths[rejected])
    return out


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
    lambda = a/4096 pushed past the positivity threshold, perturbs every
    other sample toward a second vertex by b/4096, b < 1024, while M stays
    positive, and asserts that each sampled point with a positive value also
    has strictly positive values on both majorized inequalities.  Samples go
    in numpy blocks of `LEMMA_BLOCK`.  A vertex is 2n bits u, v; with
    x = 1 - u and y = 1 - v, (M, C1, C2) there is c + A x + B y + x^T C y, so
    a point is built only for a counterexample.  Arithmetic is exact
    (integer numerators over powers of two).  Every draw is a 32-bit word of
    `random.Random(seed).getrandbits`; per block, the vertex bits (samples,
    then perturbations), one word per a (top-bits rejection, rejects redrawn
    after), one per b.  The lemma itself rests on `lemma1_identities`; this
    is a property check.
    """
    if n < 3:
        raise ValueError("the lemma concerns three or more settings")
    samples, seed = as_integer(samples, "samples"), as_integer(seed, "seed")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    den = 4096
    scenario = Scenario(n)
    coeffs, consts2 = functional_matrix((make_mnn22(n), make_c1(n), make_c2(n)), scenario.dimension)
    alice2, bob2, joint2 = 2 * coeffs[:, :n].T, 2 * coeffs[:, n : 2 * n].T, 2 * coeffs[:, 2 * n :].reshape(3, n, n)
    pr_halves = np.asarray(to_half_units(machine_behavior(pr_machine(n))), dtype=np.int64)
    pr2 = pr_halves @ coeffs.T + consts2
    counterexamples = []
    for start in range(0, samples, LEMMA_BLOCK):
        m = min(LEMMA_BLOCK, samples - start)
        bits = draw_bits(rng, 2 * n * (m + m // 2)).reshape(-1, 2 * n)
        x, y = 1 - bits[:, :n].astype(np.int64), 1 - bits[:, n:].astype(np.int64)
        vertex2 = consts2 + x @ alice2 + y @ bob2 + np.einsum("si,kij,sj->sk", x, joint2, y)
        local2, other2 = vertex2[:m], vertex2[m:]
        # smallest a with M > 0 at a/den PR_n + (1 - a/den) local
        low = np.maximum((-local2[:, 0] * den) // (pr2[0] - local2[:, 0]) + 1, 1)
        a = low + draw_below(rng, den + 1 - low)
        vals = a[:, None] * pr2 + (den - a)[:, None] * local2  # over 2 den
        b = draw_below(rng, np.full(m // 2, den // 4))
        bump = (den - b)[:, None] * vals[1::2] + (b * den)[:, None] * other2  # over 2 den^2
        bumped = np.zeros(m, dtype=bool)
        bumped[1::2] = bump[:, 0] > 0
        vals[bumped] = bump[bumped[1::2]]
        if (vals[:, 0] <= 0).any():
            raise RuntimeError("sampler produced a point below the bound")
        for k in np.flatnonzero((vals[:, 1:] <= 0).any(axis=1)).tolist():
            # int64 rows: numpy 1.x would keep an int8 row times a small scalar in int8
            mix = a[k] * pr_halves + (den - a[k]) * half_rows(None, bits[k, :n], bits[k, n:]).astype(np.int64)
            denom = 2 * den
            if bumped[k]:
                other = half_rows(None, bits[m + k // 2, :n], bits[m + k // 2, n:]).astype(np.int64)
                mix, denom = (den - b[k // 2]) * mix + b[k // 2] * den * other, denom * den
            counterexamples.append(BehaviorPoint.from_coords(scenario, [Fraction(v, denom) for v in mix.tolist()]))
    report = Lemma1Report(n, samples, samples, tuple(counterexamples))
    if counterexamples and raise_on_counterexample:
        raise LemmaCounterexampleError(report)
    return report
