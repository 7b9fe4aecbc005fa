"""Non-local machines with binary outputs, and wirings of PR-boxes.

A machine is stored by its anticorrelation set: the input pairs (x, y) on
which the two outputs satisfy a XOR b = 1 (all other pairs are perfectly
correlated).  Marginals are uniform, so every machine is no-signaling.
Formulas such as a XOR b = x*y are checkers against this set, never the
storage.  Machines are never sampled; only the exact induced behavior is
used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .behavior import BehaviorPoint, Scenario, as_integer, from_half_units, json_object
from .functionals import BellFunctional, make_inn22


@dataclass(frozen=True)
class MachineSpec:
    """An n-input, binary-output box given by its anticorrelation set."""

    n_inputs: int
    anticorrelated: frozenset

    def __post_init__(self):
        n = as_integer(self.n_inputs, "n_inputs")
        if n < 2:
            raise ValueError("machines need at least two inputs")
        pairs = frozenset((as_integer(x, "input"), as_integer(y, "input")) for x, y in self.anticorrelated)
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError("anticorrelation pair out of input range")
        object.__setattr__(self, "n_inputs", n)
        object.__setattr__(self, "anticorrelated", pairs)

    def anticorrelates(self, x: int, y: int) -> bool:
        return (x, y) in self.anticorrelated


def pr_box() -> MachineSpec:
    """The two-input box with a XOR b = x*y."""
    return MachineSpec(2, frozenset({(1, 1)}))


def recipe(f: BellFunctional) -> MachineSpec:
    """Read a machine off an inequality's joint block.

    Joint coefficients +1 and 0 become correlated input pairs, -1 becomes
    anticorrelated.  Only defined when every joint coefficient lies in
    {-1, 0, +1}.
    """
    pairs = set()
    for i, row in enumerate(f.joint):
        for j, c in enumerate(row):
            if c not in (-1, 0, 1):
                raise ValueError(f"joint coefficient {c} at ({i}, {j}) is outside -1..1")
            if c == -1:
                pairs.add((i, j))
    return MachineSpec(f.scenario.n_settings, frozenset(pairs))


def pr_machine(n: int) -> MachineSpec:
    """The n-input box saturating the tight n-setting inequality family."""
    if n < 2:
        raise ValueError("machines need at least two inputs")
    return recipe(make_inn22(n))


def machine_behavior(m: MachineSpec) -> BehaviorPoint:
    """Exact behavior: all marginals 1/2; joints 0 on anticorrelated pairs, else 1/2."""
    n = m.n_inputs
    joint = [0 if m.anticorrelates(x, y) else 1 for x in range(n) for y in range(n)]
    return from_half_units(Scenario(n), [1] * 2 * n + joint)


def pr3_formula_check(m: MachineSpec) -> bool:
    """Whether a 3-input machine realizes floor(x*y/2) = a + b (mod 2)."""
    if m.n_inputs != 3:
        raise ValueError("formula check applies to three-input machines")
    expected = frozenset(
        (x, y) for x, y in product(range(3), repeat=2) if (x * y // 2) % 2 == 1
    )
    return m.anticorrelated == expected


@dataclass(frozen=True)
class WiringTable:
    """Per-input bit rows routing each party's setting into a bank of PR-boxes.

    Row x of `alice` (and y of `bob`) lists the bits fed into each box; both
    parties output the XOR of all their box outputs.  The induced machine is
    fixed by the GF(2) parity matrix alice @ bob^T.
    """

    alice: tuple
    bob: tuple

    def __post_init__(self):
        alice = tuple(tuple(as_integer(v, "wiring entry") for v in row) for row in self.alice)
        bob = tuple(tuple(as_integer(v, "wiring entry") for v in row) for row in self.bob)
        if not alice or not bob:
            raise ValueError("wiring tables cannot be empty")
        widths = {len(r) for r in alice} | {len(r) for r in bob}
        if len(widths) != 1:
            raise ValueError("alice and bob wiring rows must address the same boxes")
        if len(alice) != len(bob):
            raise ValueError("both parties must wire the same number of inputs")
        for row in alice + bob:
            if any(v not in (0, 1) for v in row):
                raise ValueError("wiring entries are bits")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def n_inputs(self) -> int:
        return len(self.alice)

    @property
    def n_boxes(self) -> int:
        return len(self.alice[0])


def parity_matrix(w: WiringTable) -> tuple:
    """P[x][y] = XOR over boxes of alice[x][k] * bob[y][k]."""
    return tuple(
        tuple(sum(a * b for a, b in zip(row_a, row_b)) % 2 for row_b in w.bob)
        for row_a in w.alice
    )


def wire_pr_boxes(w: WiringTable) -> MachineSpec:
    """Machine induced by wiring a bank of PR-boxes: a XOR b = sum_k x_k y_k mod 2."""
    p = parity_matrix(w)
    pairs = frozenset(
        (x, y) for x in range(w.n_inputs) for y in range(w.n_inputs) if p[x][y]
    )
    return MachineSpec(w.n_inputs, pairs)


def make_prn_wiring(n: int) -> WiringTable:
    """Wiring of n-1 PR-boxes reproducing the n-input box of `pr_machine`.

    Box k (0-based) anticorrelates the single pair (n-1-k, k+1): Alice feeds
    it 1 exactly on input n-1-k, Bob exactly on input k+1.  The rank-one
    parities sum to the anti-diagonal pattern of the tight family.
    """
    if n < 2:
        raise ValueError("need at least two inputs")
    alice = tuple(
        tuple(1 if x == n - 1 - k else 0 for k in range(n - 1)) for x in range(n)
    )
    bob = tuple(
        tuple(1 if y == k + 1 else 0 for k in range(n - 1)) for y in range(n)
    )
    return WiringTable(alice, bob)


def gf2_rank(matrix) -> int:
    """Rank over GF(2) of a 0/1 matrix."""
    masks = []
    for row in matrix:
        m = 0
        for v in row:
            m = (m << 1) | (int(v) & 1)
        masks.append(m)
    rank = 0
    for col in range(len(matrix[0]) - 1, -1, -1):
        bit = 1 << col
        pivot = None
        for idx, m in enumerate(masks):
            if m & bit:
                pivot = idx
                break
        if pivot is None:
            continue
        pm = masks.pop(pivot)
        masks = [m ^ pm if m & bit else m for m in masks]
        rank += 1
    return rank


def machine_to_json_dict(m: MachineSpec) -> dict:
    return {
        "n_inputs": m.n_inputs,
        "anticorrelated": sorted([x, y] for x, y in m.anticorrelated),
    }


def _json_rows(doc: dict, key: str, width: int | None = None) -> list:
    """`doc[key]` if it is a list of lists (of `width` entries each), else ValueError."""
    rows = doc[key]
    if not isinstance(rows, list) or not all(isinstance(r, list) and width in (None, len(r)) for r in rows):
        raise ValueError(f'"{key}" must be a list of lists' + ("" if width is None else f" of {width} entries"))
    return rows


def machine_from_json_dict(doc: dict) -> MachineSpec:
    """Parse a machine document; a malformed one raises ValueError."""
    json_object(doc, "machine", "n_inputs", "anticorrelated")
    return MachineSpec(doc["n_inputs"], _json_rows(doc, "anticorrelated", 2))


def wiring_to_json_dict(w: WiringTable) -> dict:
    return {"alice": [list(r) for r in w.alice], "bob": [list(r) for r in w.bob]}


def wiring_from_json_dict(doc: dict) -> WiringTable:
    """Parse a wiring document; a malformed one raises ValueError."""
    json_object(doc, "wiring", "alice", "bob")
    return WiringTable(_json_rows(doc, "alice"), _json_rows(doc, "bob"))
