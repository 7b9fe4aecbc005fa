"""Bell-type functionals in coefficient-table form, and their relabeling group.

A functional is an affine function of a behavior: marginal coefficient
vectors for both parties, an NxN joint block (first index Alice, matching
`BehaviorPoint.joint`), and an integer constant so that every inequality in
this module reads `value <= 0`.  The named families generated here are the
CHSH table and its zero-padded liftings, the tight N-setting family
I_NN22, the machine-resistant variant M_NN22 (same table with Alice's first
marginal strengthened to -(N-1)), and the two auxiliary inequalities
C1/C2 obtained from M_NN22 by no-signaling majorization.

The symmetry group is generated by setting permutations, per-setting output
flips on either side, and the party swap; its order is 2 * (N!)^2 * 2^(2N).
Output flips act affinely, so each element is one integer affine matrix on
`[coords, 1]` (`SymmetryElement.affine_matrix`).  Points move by that matrix;
a functional's coefficient row moves by the inverse's matrix, which can give
it a constant term.  Orbits are built one party factor at a time over the
integer coefficient tables (`orbit`).  Only this group code uses numpy, and
it imports numpy on first use, so the tables and the named families load
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import TYPE_CHECKING, Sequence

from .behavior import BehaviorPoint, Scenario, as_integer, json_tables, unchecked

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class BellFunctional:
    """Integer coefficient table with the bound convention `value <= 0`."""

    scenario: Scenario
    alice: tuple
    bob: tuple
    joint: tuple
    constant: int = 0

    def __post_init__(self):
        n = self.scenario.n_settings
        alice = tuple(as_integer(v) for v in self.alice)
        bob = tuple(as_integer(v) for v in self.bob)
        joint = tuple(tuple(as_integer(v) for v in row) for row in self.joint)
        if len(alice) != n or len(bob) != n or len(joint) != n or any(len(r) != n for r in joint):
            raise ValueError("coefficient tables must match the scenario size")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "constant", as_integer(self.constant, "constant"))

    def evaluate(self, point: BehaviorPoint):
        """Inner product with a behavior plus the constant term.

        The scalar backend of the point decides the result type.
        """
        if point.scenario != self.scenario:
            raise ValueError("functional and behavior live in different scenarios")
        n = self.scenario.n_settings
        total = self.constant
        for i in range(n):
            if self.alice[i]:
                total += self.alice[i] * point.alice[i]
        for j in range(n):
            if self.bob[j]:
                total += self.bob[j] * point.bob[j]
        for i in range(n):
            row_c, row_p = self.joint[i], point.joint[i]
            for j in range(n):
                if row_c[j]:
                    total += row_c[j] * row_p[j]
        if isinstance(total, int):
            total = float(total) if point.backend == "float" else Fraction(total)
        return total

    def coefficient_vector(self) -> tuple:
        """Flat integer vector aligned with `BehaviorPoint.coords()`, then the constant."""
        flat = self.alice + self.bob + tuple(v for row in self.joint for v in row)
        return flat + (self.constant,)

    def table_key(self) -> tuple:
        return (self.constant, self.alice, self.bob, self.joint)


def functional_to_json_dict(f: BellFunctional) -> dict:
    """JSON document mirroring the behavior layout, plus the constant term."""
    return {
        "n": f.scenario.n_settings,
        "alice": list(f.alice),
        "bob": list(f.bob),
        "joint": [list(r) for r in f.joint],
        "constant": f.constant,
    }


def functional_from_json_dict(doc: dict) -> BellFunctional:
    """Parse a functional document; a malformed one raises ValueError."""
    n, alice, bob, joint = json_tables(doc, "functional")
    return BellFunctional(
        Scenario(n),
        tuple(alice),
        tuple(bob),
        tuple(tuple(r) for r in joint),
        doc.get("constant", 0),
    )


def functional_from_rows(alice_header: Sequence[int], rows: Sequence[Sequence[int]], constant: int = 0) -> BellFunctional:
    """Build a functional from the row-per-Bob-setting table layout.

    `rows[j]` is `(bob_coeff_j, joint_with_A0, ..., joint_with_A(N-1))`, the
    layout used for printed tables (Alice marginals as the header row).
    """
    n = len(alice_header)
    bob = tuple(row[0] for row in rows)
    joint = tuple(tuple(rows[j][1 + i] for j in range(n)) for i in range(n))
    return BellFunctional(Scenario(n), tuple(alice_header), bob, joint, constant)


def display_rows(f: BellFunctional) -> list:
    """Inverse of `functional_from_rows`, for table rendering."""
    n = f.scenario.n_settings
    return [[f.bob[j]] + [f.joint[i][j] for i in range(n)] for j in range(n)]


# ---------------------------------------------------------------------------
# Named families


def make_chsh(n: int = 2) -> BellFunctional:
    """The CHSH table, zero-padded ("lifted") into scenarios with n > 2.

    The lifting keeps Alice's settings {0, 1} and moves Bob's pair to
    {1, 2}, which is the standard embedding for three settings; extra
    settings carry zero coefficients.
    """
    if n < 2:
        raise ValueError("CHSH needs at least two settings")
    scenario = Scenario(n)
    alice = tuple(-1 if i == 0 else 0 for i in range(n))
    joint = [[0] * n for _ in range(n)]
    if n == 2:
        bob = (-1, 0)
        joint[0][0] = joint[0][1] = joint[1][0] = 1
        joint[1][1] = -1
    else:
        bob = tuple(-1 if j == 1 else 0 for j in range(n))
        joint[0][1] = joint[1][1] = joint[0][2] = 1
        joint[1][2] = -1
    return BellFunctional(scenario, alice, bob, tuple(map(tuple, joint)))


def make_inn22(n: int) -> BellFunctional:
    """The tight N-setting family: staircase of +1 blocks with -1 on the anti-diagonal."""
    if n < 2:
        raise ValueError("the family starts at two settings")
    alice = tuple(-1 if i == 0 else 0 for i in range(n))
    bob = tuple(-(n - 1 - j) for j in range(n))
    joint = []
    for i in range(n):
        row = []
        for j in range(n):
            if i <= n - 1 - j:
                row.append(1)
            elif j >= 1 and i == n - j:
                row.append(-1)
            else:
                row.append(0)
        joint.append(tuple(row))
    return BellFunctional(Scenario(n), alice, bob, tuple(joint))


def make_mnn22(n: int) -> BellFunctional:
    """Same table as `make_inn22` with Alice's first marginal strengthened to -(n-1).

    The resulting inequality holds for every strategy wired around a single
    (n-1)-input box; no such inequality exists for two settings.
    """
    if n < 3:
        raise ValueError("the machine-resistant family starts at three settings")
    base = make_inn22(n)
    alice = (-(n - 1),) + base.alice[1:]
    return BellFunctional(base.scenario, alice, base.bob, base.joint)


def make_c1(n: int) -> BellFunctional:
    """First majorized form of `make_mnn22`: Alice's last and Bob's first setting dropped.

    C1(n) is the strengthened (n-1)-setting table (that of
    `make_mnn22(n - 1)`; CHSH for n = 3) on Alice's settings {0..n-2} and
    Bob's settings {1..n-1}, with zeros elsewhere.  It majorizes M_NN22 on
    the no-signaling polytope.
    """
    if n < 3:
        raise ValueError("defined for three or more settings")
    base = make_inn22(n)
    alice = (-(n - 2),) + (0,) * (n - 1)
    bob = (0,) + base.bob[1:]
    joint = [list(row) for row in base.joint]
    for i in range(n):
        joint[i][0] = 0
    joint[n - 1][1] = 0
    return BellFunctional(base.scenario, alice, bob, tuple(map(tuple, joint)))


def make_c2(n: int) -> BellFunctional:
    """Second majorized form of `make_mnn22`: Alice's second and Bob's last setting dropped.

    C2(n) is the same strengthened (n-1)-setting table as `make_c1` on
    Alice's settings {0, 2..n-1} and Bob's settings {0..n-2}, with zeros
    elsewhere.  It majorizes M_NN22 on the no-signaling polytope.
    """
    if n < 3:
        raise ValueError("defined for three or more settings")
    base = make_inn22(n)
    alice = (-(n - 2),) + (0,) * (n - 1)
    bob = tuple(-(n - 2 - j) if j <= n - 3 else 0 for j in range(n))
    joint = [list(row) for row in base.joint]
    for j in range(n):
        joint[1][j] = 0
    for i in range(n):
        joint[i][n - 1] = 0
    return BellFunctional(base.scenario, alice, bob, tuple(map(tuple, joint)))


# ---------------------------------------------------------------------------
# Relabeling group


def _check_perm(perm, n):
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the settings")


def _party_matrix(perm, flips) -> np.ndarray:
    """One party's (N+1)x(N+1) factor of `SymmetryElement.affine_matrix`."""
    import numpy as np

    n = len(perm)
    m = np.zeros((n + 1, n + 1), dtype=np.int64)
    m[0, 0] = 1
    m[1:, 0] = flips
    m[np.arange(1, n + 1), 1 + np.asarray(perm)] = np.where(flips, -1, 1)
    return m


def _table_positions(n: int) -> np.ndarray:
    """`coefficient_vector` index of each entry of the table [[constant, bob], [alice, joint]]."""
    import numpy as np

    d = n * (n + 2)
    return np.block([[d, np.arange(n, 2 * n)], [np.arange(n)[:, None], np.arange(2 * n, d).reshape(n, n)]])


def _from_vector(scenario: Scenario, row: list) -> BellFunctional:
    """Inverse of `BellFunctional.coefficient_vector`, for a list of Python ints of the right length."""
    n = scenario.n_settings
    joint = tuple(tuple(row[k : k + n]) for k in range(2 * n, n * (n + 2), n))
    return unchecked(
        BellFunctional, scenario=scenario, alice=tuple(row[:n]), bob=tuple(row[n : 2 * n]), joint=joint, constant=row[-1]
    )


@dataclass(frozen=True)
class SymmetryElement:
    """A relabeling: party swap first, then setting permutations and output flips.

    `alice_perm[x]` is the source setting measured at slot x after the
    relabeling, and `alice_flips[x]` says whether that slot's output is
    flipped; likewise for Bob.  These elements form a group of order
    2 * (N!)^2 * 2^(2N).
    """

    alice_perm: tuple
    bob_perm: tuple
    alice_flips: tuple
    bob_flips: tuple
    party_swap: bool = False

    def __post_init__(self):
        n = len(self.alice_perm)
        alice_perm = tuple(as_integer(v, "setting") for v in self.alice_perm)
        bob_perm = tuple(as_integer(v, "setting") for v in self.bob_perm)
        _check_perm(alice_perm, n)
        _check_perm(bob_perm, n)
        alice_flips = tuple(as_integer(v, "flip bit") for v in self.alice_flips)
        bob_flips = tuple(as_integer(v, "flip bit") for v in self.bob_flips)
        if len(alice_flips) != n or len(bob_flips) != n:
            raise ValueError("flip vectors must have one bit per setting")
        if not set(alice_flips + bob_flips) <= {0, 1}:
            raise ValueError("flip bits are 0 or 1")
        object.__setattr__(self, "alice_perm", alice_perm)
        object.__setattr__(self, "bob_perm", bob_perm)
        object.__setattr__(self, "alice_flips", alice_flips)
        object.__setattr__(self, "bob_flips", bob_flips)
        object.__setattr__(self, "party_swap", bool(self.party_swap))

    @property
    def n_settings(self) -> int:
        return len(self.alice_perm)

    @classmethod
    def identity(cls, n: int) -> "SymmetryElement":
        return cls(tuple(range(n)), tuple(range(n)), (0,) * n, (0,) * n, False)

    def affine_matrix(self) -> np.ndarray:
        """The integer (d+1)x(d+1) matrix M with `[coords(g.S), 1] = M @ [coords(S), 1]`.

        Bordered with the constant 1, a behavior is the table
        Q = [[1, bob], [alice, joint]], and the relabeling maps it to
        L_A Q L_B^T (Q^T under the party swap), where row x+1 of a party's L
        reads its source setting, or 1 minus it on a flipped slot.  M is
        L_A (x) L_B with Q's entries placed at their coordinate positions.
        """
        import numpy as np

        table = _table_positions(self.n_settings)
        source = table.T if self.party_swap else table
        m = np.empty((table.size, table.size), dtype=np.int64)
        m[np.ix_(table.ravel(), source.ravel())] = np.kron(
            _party_matrix(self.alice_perm, self.alice_flips), _party_matrix(self.bob_perm, self.bob_flips)
        )
        return m

    def apply_to_point(self, point: BehaviorPoint) -> BehaviorPoint:
        """`affine_matrix() @ [coords, 1]`, in the point's own scalars (exact or float)."""
        if point.scenario.n_settings != self.n_settings:
            raise ValueError("scenario mismatch")
        v = (*point.coords(), 1)
        moved = [sum(c * v[k] for k, c in enumerate(row) if c) for row in self.affine_matrix()[:-1].tolist()]
        return BehaviorPoint.from_coords(point.scenario, moved)

    def apply_to_functional(self, f: BellFunctional) -> BellFunctional:
        """Push a functional forward so that duality holds.

        For every behavior S, `g.apply_to_functional(f).evaluate(S)` equals
        `f.evaluate(g.inverse().apply_to_point(S))`, so the coefficient row
        is `[coeffs, constant] @ affine_matrix(g.inverse())`.
        """
        import numpy as np

        if f.scenario.n_settings != self.n_settings:
            raise ValueError("scenario mismatch")
        row = np.asarray(f.coefficient_vector(), dtype=object) @ self.inverse().affine_matrix()
        return _from_vector(f.scenario, row.tolist())

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        """The element acting as `other` first, then `self`."""
        n = self.n_settings
        if other.n_settings != n:
            raise ValueError("scenario mismatch")
        if self.party_swap:
            o_a = (other.bob_perm, other.bob_flips)
            o_b = (other.alice_perm, other.alice_flips)
        else:
            o_a = (other.alice_perm, other.alice_flips)
            o_b = (other.bob_perm, other.bob_flips)
        sa = tuple(o_a[0][self.alice_perm[x]] for x in range(n))
        fa = tuple(self.alice_flips[x] ^ o_a[1][self.alice_perm[x]] for x in range(n))
        sb = tuple(o_b[0][self.bob_perm[y]] for y in range(n))
        fb = tuple(self.bob_flips[y] ^ o_b[1][self.bob_perm[y]] for y in range(n))
        return SymmetryElement(sa, sb, fa, fb, self.party_swap ^ other.party_swap)

    def inverse(self) -> "SymmetryElement":
        n = self.n_settings
        inv_a = [0] * n
        inv_b = [0] * n
        for x in range(n):
            inv_a[self.alice_perm[x]] = x
            inv_b[self.bob_perm[x]] = x
        fa = tuple(self.alice_flips[inv_a[x]] for x in range(n))
        fb = tuple(self.bob_flips[inv_b[y]] for y in range(n))
        if self.party_swap:
            return SymmetryElement(tuple(inv_b), tuple(inv_a), fb, fa, True)
        return SymmetryElement(tuple(inv_a), tuple(inv_b), fa, fb, False)


def transform(f: BellFunctional, g: SymmetryElement) -> BellFunctional:
    return g.apply_to_functional(f)


def transform_point(point: BehaviorPoint, g: SymmetryElement) -> BehaviorPoint:
    return g.apply_to_point(point)


def group_order(n: int) -> int:
    return 2 * factorial(n) ** 2 * 4**n


def random_element(n: int, rng) -> SymmetryElement:
    sa = list(range(n))
    sb = list(range(n))
    rng.shuffle(sa)
    rng.shuffle(sb)
    fa = tuple(rng.randrange(2) for _ in range(n))
    fb = tuple(rng.randrange(2) for _ in range(n))
    return SymmetryElement(tuple(sa), tuple(sb), fa, fb, bool(rng.randrange(2)))


def unseen_rows(rows: np.ndarray, seen: set) -> list:
    """Indices of the rows whose bytes are not yet in `seen`, first occurrences only.

    `seen` gains their keys, one bytes key per row; np.unique(axis=0) sorts
    void rows and is ~30x slower.  The new keys are found by one set
    difference, so a block with none costs no Python loop.
    """
    import numpy as np

    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
    new = set(keys).difference(seen)
    if not new:
        return []
    seen |= new
    fresh = []
    for i, key in enumerate(keys):
        if key in new:
            new.remove(key)
            fresh.append(i)
            if not new:
                break
    return fresh


def orbit(f: BellFunctional) -> set:
    """All relabelings of f, the orbit under the full group (party swap included).

    On the bordered coefficient table F = [[constant, bob], [alice, joint]]
    a relabeling acts as F -> L_A^T F L_B, with each party's L from
    `_party_matrix`, and the party swap transposes F.  Each L is a flip
    pattern times a permutation, so the orbit comes from five factors in
    turn: Alice's flips and permutations, Bob's (Alice's, on the transposed
    tables) and the swap, each one batched int64 product over the distinct
    tables so far.  Every table on the way is an orbit member, and none has
    an entry above (d+1) times the coefficients' sum of absolute values, so
    a functional past that bound is refused, not wrapped.
    """
    import numpy as np

    n = f.scenario.n_settings
    row = f.coefficient_vector()
    if len(row) * sum(map(abs, row)) >= 2**63:
        raise ValueError("coefficients too large for an exact int64 orbit")
    at = _table_positions(n)
    tables = np.asarray(row, dtype=np.int64)[at][None]
    ident = tuple(range(n))
    flips = np.stack([_party_matrix(ident, bits) for bits in product((0, 1), repeat=n)])
    perms = np.stack([_party_matrix(perm, (0,) * n) for perm in permutations(ident)])

    def distinct(moved):
        flat = moved.reshape(-1, (n + 1) ** 2)
        return flat[unseen_rows(flat, set())].reshape(-1, n + 1, n + 1)

    for _ in range(2):  # Alice's side, then Bob's as Alice's side of the transposes
        for factor in (flips, perms):
            tables = distinct(factor.transpose(0, 2, 1)[:, None] @ tables)
        tables = tables.transpose(0, 2, 1)
    tables = distinct(np.stack([tables, tables.transpose(0, 2, 1)]))
    rows = np.empty((len(tables), len(row)), dtype=np.int64)
    rows[:, at.ravel()] = tables.reshape(len(tables), -1)
    return {_from_vector(f.scenario, r) for r in rows.tolist()}


def canonical_form(f: BellFunctional) -> BellFunctional:
    """Lexicographically smallest table in the orbit; equal iff equivalent."""
    return min(orbit(f), key=BellFunctional.table_key)
