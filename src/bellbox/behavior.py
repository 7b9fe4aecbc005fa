"""Collins-Gisin coordinates for bipartite binary-outcome no-signaling behaviors.

A two-party experiment with N settings per side and outcomes in {0, 1} is
stored by its N(N+2) outcome-0 coordinates: the marginals P(r_A=0|A_i) and
P(r_B=0|B_j), and the joint probabilities P(r_A=0, r_B=0|A_i, B_j).  Because
marginals are single per-setting fields, no-signaling holds structurally;
positivity of the 4N^2 reconstructed probabilities is checked by `validate`.

Two scalar backends exist and never mix inside one point: exact rationals
(`fractions.Fraction`, the default everywhere) and double floats (used only
by the quantum module).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

HALF = Fraction(1, 2)

FLOAT_SLACK = 1e-9


class InvalidBehaviorError(ValueError):
    """An operation needed a positivity-valid behavior and did not get one."""

    def __init__(self, violations):
        super().__init__(f"behavior violates positivity at {sorted(violations)}")
        self.violations = list(violations)


@dataclass(frozen=True)
class Scenario:
    """Both parties choose among the same number of dichotomic settings."""

    n_settings: int

    n_outcomes: ClassVar[int] = 2

    def __post_init__(self):
        if not isinstance(self.n_settings, int) or self.n_settings < 2:
            raise ValueError("scenario needs an integer number of settings >= 2")

    @property
    def dimension(self) -> int:
        """Number of free coordinates of a no-signaling behavior, N(N+2)."""
        return self.n_settings * (self.n_settings + 2)


def _as_scalar(value):
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"probabilities are finite numbers, got {value}")
        return value
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


def unchecked(cls, **values):
    """An instance of the frozen dataclass `cls` with these field values, without `__post_init__`.

    Only for values already known to pass its checks; every field must be named.
    Setting each attribute, rather than updating `__dict__`, keeps the
    instance's compact attribute storage: about 130 bytes less per record.
    """
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


@dataclass(frozen=True)
class BehaviorPoint:
    """A no-signaling behavior in Collins-Gisin coordinates.

    `alice[i]` is P(r_A=0 | A_i), `bob[j]` is P(r_B=0 | B_j) and
    `joint[i][j]` is P(r_A=0, r_B=0 | A_i, B_j); the first joint index is
    always Alice's setting.  Values are all Fraction (exact backend) or all
    float.  Construction does not check positivity: coefficient tables and
    behaviors share this layout, so validity is a separate, lazy question.
    """

    scenario: Scenario
    alice: tuple
    bob: tuple
    joint: tuple

    def __post_init__(self):
        n = self.scenario.n_settings
        alice = tuple(_as_scalar(v) for v in self.alice)
        bob = tuple(_as_scalar(v) for v in self.bob)
        joint = tuple(tuple(_as_scalar(v) for v in row) for row in self.joint)
        if len(alice) != n or len(bob) != n:
            raise ValueError("marginal vectors must have one entry per setting")
        if len(joint) != n or any(len(row) != n for row in joint):
            raise ValueError("joint block must be an NxN matrix")
        scalars = [*alice, *bob, *(v for row in joint for v in row)]
        kinds = {type(v) for v in scalars}
        if len(kinds) > 1:
            raise ValueError("exact and float scalars cannot mix in one behavior")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "joint", joint)

    @property
    def backend(self) -> str:
        return "exact" if isinstance(self.alice[0], Fraction) else "float"

    def coords(self) -> tuple:
        """Flat coordinate vector: alice, bob, then joint rows (Alice-major)."""
        return self.alice + self.bob + tuple(v for row in self.joint for v in row)

    @classmethod
    def from_coords(cls, scenario: Scenario, coords: Sequence) -> "BehaviorPoint":
        n = scenario.n_settings
        if len(coords) != scenario.dimension:
            raise ValueError("coordinate vector has wrong length")
        alice = tuple(coords[:n])
        bob = tuple(coords[n : 2 * n])
        joint = tuple(tuple(coords[2 * n + i * n : 2 * n + (i + 1) * n]) for i in range(n))
        return cls(scenario, alice, bob, joint)


def cell_probabilities(point: BehaviorPoint, i: int, j: int) -> tuple:
    """The four probabilities P(r_A, r_B | A_i, B_j), ordered (00, 01, 10, 11)."""
    a, b, c = point.alice[i], point.bob[j], point.joint[i][j]
    return (c, a - c, b - c, 1 - a - b + c)


def validate(point: BehaviorPoint, slack=None) -> list:
    """Check positivity of all 4N^2 reconstructed probabilities.

    Returns the list of violated entries as (i, j, r_A, r_B) tuples; an empty
    list means the point is a valid behavior.  `slack` defaults to 0 for the
    exact backend and 1e-9 for floats.
    """
    if slack is None:
        slack = 0 if point.backend == "exact" else FLOAT_SLACK
    n = point.scenario.n_settings
    bad = []
    for i in range(n):
        for j in range(n):
            cell = cell_probabilities(point, i, j)
            for (ra, rb), p in zip(((0, 0), (0, 1), (1, 0), (1, 1)), cell):
                if p < -slack or p > 1 + slack:
                    bad.append((i, j, ra, rb))
    return bad


def reconstruct_full(point: BehaviorPoint):
    """Expand to the full table of 4N^2 probabilities.

    Returns nested tuples indexed [i][j][r_A][r_B].  The point must validate;
    otherwise the positivity report is raised.
    """
    violations = validate(point)
    if violations:
        raise InvalidBehaviorError(violations)
    n = point.scenario.n_settings
    full = []
    for i in range(n):
        row = []
        for j in range(n):
            p00, p01, p10, p11 = cell_probabilities(point, i, j)
            row.append(((p00, p01), (p10, p11)))
        full.append(tuple(row))
    return tuple(full)


def compress_full(full) -> BehaviorPoint:
    """Inverse of `reconstruct_full`: read the CG coordinates off a full table."""
    n = len(full)
    alice = tuple(full[i][0][0][0] + full[i][0][0][1] for i in range(n))
    bob = tuple(full[0][j][0][0] + full[0][j][1][0] for j in range(n))
    joint = tuple(tuple(full[i][j][0][0] for j in range(n)) for i in range(n))
    return BehaviorPoint(Scenario(n), alice, bob, joint)


def convex_combine(points: Sequence[BehaviorPoint], weights: Sequence) -> BehaviorPoint:
    """Coordinate-wise convex combination of behaviors over a shared scenario."""
    if len(points) != len(weights) or not points:
        raise ValueError("need one weight per point")
    scenario = points[0].scenario
    if any(p.scenario != scenario for p in points):
        raise ValueError("points live in different scenarios")
    backends = {p.backend for p in points}
    if len(backends) > 1:
        raise ValueError("cannot combine exact and float behaviors")
    weights = [_as_scalar(w) for w in weights]
    total = sum(weights)
    exact = backends == {"exact"}
    if exact and not all(isinstance(w, Fraction) for w in weights):
        raise ValueError("exact points need exact weights")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if (total != 1) if exact else abs(total - 1) > 1e-12:
        raise ValueError("weights must sum to one")
    coords = [p.coords() for p in points]
    mixed = tuple(sum(w * c[k] for w, c in zip(weights, coords)) for k in range(scenario.dimension))
    return BehaviorPoint.from_coords(scenario, mixed)


def to_half_units(point: BehaviorPoint) -> tuple:
    """Coordinates doubled to integers; only for points on the half-integer grid."""
    out = []
    for v in point.coords():
        if not isinstance(v, Fraction) or v.denominator > 2:
            raise ValueError("point is not half-integer valued")
        out.append(v.numerator if v.denominator == 2 else 2 * v.numerator)
    return tuple(out)


# the half-unit values of every table row, shared: a Fraction is immutable
_HALVES = (Fraction(0), HALF, Fraction(1))


def from_half_units(scenario: Scenario, halves: Sequence[int]) -> BehaviorPoint:
    """The exact point with coordinates `halves` / 2; only the length is checked.

    Every coordinate is a Fraction by construction, so the point is built
    without `BehaviorPoint`'s per-coordinate checks.
    """
    n = scenario.n_settings
    if len(halves) != scenario.dimension:
        raise ValueError("coordinate vector has wrong length")
    coords = [_HALVES[h] if 0 <= h <= 2 else Fraction(h, 2) for h in halves]
    joint = tuple(tuple(coords[2 * n + i * n : 2 * n + (i + 1) * n]) for i in range(n))
    return unchecked(
        BehaviorPoint, scenario=scenario, alice=tuple(coords[:n]), bob=tuple(coords[n : 2 * n]), joint=joint
    )


def _encode_scalar(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def to_json_dict(point: BehaviorPoint) -> dict:
    """JSON document; rationals as reduced "p/q" strings, floats as numbers."""
    return {
        "backend": point.backend,
        "n": point.scenario.n_settings,
        "alice": [_encode_scalar(v) for v in point.alice],
        "bob": [_encode_scalar(v) for v in point.bob],
        "joint": [[_encode_scalar(v) for v in row] for row in point.joint],
    }


def as_integer(value, what: str = "coefficient") -> int:
    """An integral value as an int; anything else raises, nothing is truncated."""
    if type(value) is int:
        return value
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {value!r} is not an integer")


def json_object(doc, kind: str, *fields: str):
    """Refuse, with a ValueError naming `kind`, a document that is not a JSON object with all of `fields`."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {kind} document is a JSON object")
    for field in fields:
        if field not in doc:
            raise ValueError(f'{kind} document has no "{field}" field')


def json_tables(doc, kind: str) -> tuple:
    """`(n, alice, bob, joint)` of a behavior or functional document, shapes checked.

    A document that is not an object or lacks one of these fields, an "n"
    that is not an integer, or tables that are not lists ("joint" a list of
    rows) raise ValueError.
    """
    json_object(doc, kind, "n", "alice", "bob", "joint")
    tables = (doc["alice"], doc["bob"], doc["joint"])
    if not all(isinstance(t, list) for t in tables) or not all(isinstance(r, list) for r in doc["joint"]):
        raise ValueError('"alice", "bob" and "joint" must be lists, and "joint" a list of rows')
    return (as_integer(doc["n"], "n"), *tables)


def _decode_exact(v) -> Fraction:
    """An exact JSON scalar: an integer or a "p/q" string, never a float."""
    if type(v) is int or isinstance(v, str) and re.fullmatch(r"-?\d+(/0*[1-9]\d*)?", v):
        return Fraction(v)
    raise ValueError(f"exact behavior entries are integers or \"p/q\" strings, got {v!r}")


def _decode_float(v) -> float:
    """A float JSON scalar: a finite integer or float, never a boolean or a string."""
    try:
        if type(v) in (int, float) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an integer past the float range
        pass
    raise ValueError(f"float behavior entries are finite numbers, got {v!r}")


def from_json_dict(doc: dict) -> BehaviorPoint:
    """Parse a behavior document; a malformed one raises ValueError."""
    n, alice, bob, joint = json_tables(doc, "behavior")
    backend = doc.get("backend", "exact")
    if backend == "exact":
        dec = _decode_exact
    elif backend == "float":
        dec = _decode_float
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return BehaviorPoint(
        Scenario(n),
        tuple(dec(v) for v in alice),
        tuple(dec(v) for v in bob),
        tuple(tuple(dec(v) for v in row) for row in joint),
    )
