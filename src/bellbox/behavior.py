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
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise TypeError(f"unsupported scalar type {type(value).__name__}")


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
        d = 2 * v
        if not isinstance(d, Fraction) or d.denominator != 1:
            raise ValueError("point is not half-integer valued")
        out.append(int(d))
    return tuple(out)


def from_half_units(scenario: Scenario, halves: Sequence[int]) -> BehaviorPoint:
    return BehaviorPoint.from_coords(scenario, [Fraction(h, 2) for h in halves])


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


def _decode_exact(v) -> Fraction:
    """An exact JSON scalar: an integer or a "p/q" string, never a float."""
    if type(v) is int or isinstance(v, str) and re.fullmatch(r"-?\d+(/0*[1-9]\d*)?", v):
        return Fraction(v)
    raise ValueError(f"exact behavior entries are integers or \"p/q\" strings, got {v!r}")


def from_json_dict(doc: dict) -> BehaviorPoint:
    backend = doc.get("backend", "exact")
    if backend == "exact":
        dec = _decode_exact
    elif backend == "float":
        dec = lambda v: float(v)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    scenario = Scenario(int(doc["n"]))
    return BehaviorPoint(
        scenario,
        tuple(dec(v) for v in doc["alice"]),
        tuple(dec(v) for v in doc["bob"]),
        tuple(tuple(dec(v) for v in row) for row in doc["joint"]),
    )
