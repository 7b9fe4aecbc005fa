"""Local deterministic strategies and wirings around a single non-local box.

Each party picks, per setting, one option from the alphabet
{det(0), det(1), machine(k), machine_flipped(k)} with k ranging over the
box inputs; serialized option names are "0d", "1d", "km", "kmf".
Options are encoded as integers in the canonical tie-breaking order
0d < 1d < 0m < 0mf < 1m < 1mf < ..., which also fixes enumeration order.

A behavior entry at settings (i, j) depends only on the two per-setting
choices, so one cached option table per machine (`option_table`, in integer
half-units, with `machine=None` as the local class) holds every entry; single
behaviors, strategy-pair matrices and the exact maximizer all gather from it.
The maximizer exploits the same locality: for a fixed Alice choice vector
each of Bob's settings can be optimized independently.  This turns the
(2+2K)^(2N) product search into (2+2K)^N * N * (2+2K) evaluations, all in
integer half-units.  Shared randomness never helps a linear
objective, so searching pure wirings is exhaustive for the strategy class.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .behavior import BehaviorPoint, Scenario, from_half_units
from .functionals import BellFunctional
from .machines import MachineSpec

DEFAULT_SETTING_CAP = 6

OPT_DET0 = 0
OPT_DET1 = 1


class CapExceededError(ValueError):
    """Enumeration would be too large; pass an explicit `cap` to override."""


def opt_machine(k: int, flip: bool = False) -> int:
    return 2 + 2 * k + (1 if flip else 0)


def option_name(code: int) -> str:
    if code == OPT_DET0:
        return "0d"
    if code == OPT_DET1:
        return "1d"
    k, flip = divmod(code - 2, 2)
    return f"{k}m" + ("f" if flip else "")


def option_code(name: str) -> int:
    if name == "0d":
        return OPT_DET0
    if name == "1d":
        return OPT_DET1
    m = re.fullmatch(r"(\d+)m(f?)", name)
    if not m:
        raise ValueError(f"unknown option name {name!r}")
    return opt_machine(int(m.group(1)), bool(m.group(2)))


def alphabet_size(machine: MachineSpec | None) -> int:
    return 2 if machine is None else 2 + 2 * machine.n_inputs


@dataclass(frozen=True)
class WiringStrategy:
    """Per-setting option choices for both parties around at most one box."""

    machine: MachineSpec | None
    alice: tuple
    bob: tuple

    def __post_init__(self):
        alice = tuple(int(c) for c in self.alice)
        bob = tuple(int(c) for c in self.bob)
        if len(alice) != len(bob):
            raise ValueError("both parties choose for the same number of settings")
        limit = alphabet_size(self.machine)
        for c in alice + bob:
            if not 0 <= c < limit:
                raise ValueError(f"choice code {c} outside the option alphabet")
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)

    @property
    def n_settings(self) -> int:
        return len(self.alice)

    def uses_machine(self) -> bool:
        return any(c >= 2 for c in self.alice + self.bob)


def strategy_to_json_dict(s: WiringStrategy) -> dict:
    from .machines import machine_to_json_dict

    return {
        "machine": None if s.machine is None else machine_to_json_dict(s.machine),
        "alice": [option_name(c) for c in s.alice],
        "bob": [option_name(c) for c in s.bob],
    }


def strategy_from_json_dict(doc: dict) -> WiringStrategy:
    from .machines import machine_from_json_dict

    machine = None if doc["machine"] is None else machine_from_json_dict(doc["machine"])
    return WiringStrategy(
        machine,
        tuple(option_code(c) for c in doc["alice"]),
        tuple(option_code(c) for c in doc["bob"]),
    )


# ---------------------------------------------------------------------------
# The option table: every behavior entry, in integer half-units (probability * 2)

STREAM_BATCH = 8192


@functools.lru_cache(maxsize=32)
def option_table(machine: MachineSpec | None) -> tuple:
    """Half-unit behavior entries per option: `(marginal (a,), joint (a, a))`.

    `marginal[c]` is 2 P(out=0) under option `c` and `joint[ca, cb]` is
    2 P(00) when Alice plays `ca` and Bob `cb`; `machine=None` is the local
    class {0d, 1d}.  A deterministic party is independent of the other, so
    its joint entry is the product of the marginals; two box ends give 1/2
    exactly when the net flip parity matches the box's correlation on the
    chosen input pair.  Both arrays are int8 and read-only.
    """
    a = alphabet_size(machine)
    marginal = np.ones(a, dtype=np.int8)
    marginal[[OPT_DET0, OPT_DET1]] = (2, 0)
    joint = marginal[:, None] * marginal[None, :] // 2
    if machine is not None:
        k = machine.n_inputs
        anti = np.array([[machine.anticorrelates(x, y) for y in range(k)] for x in range(k)])
        inputs, flips = np.divmod(np.arange(2 * k), 2)
        parity = flips[:, None] ^ flips[None, :]
        joint[2:, 2:] = parity == anti[inputs[:, None], inputs[None, :]]
    marginal.setflags(write=False)
    joint.setflags(write=False)
    return marginal, joint


def half_rows(machine: MachineSpec | None, alice, bob) -> np.ndarray:
    """Half-unit behaviors (alice, bob, joint) gathered from the option table.

    `alice` and `bob` are choice vectors of shape (..., n) that broadcast
    against each other; the result has shape (..., n(n+2)) and dtype int8.
    """
    marginal, joint = option_table(machine)
    alice, bob = np.asarray(alice), np.asarray(bob)
    n = alice.shape[-1]
    shape = np.broadcast_shapes(alice.shape[:-1], bob.shape[:-1])
    out = np.empty(shape + (n * (n + 2),), dtype=np.int8)
    out[..., :n] = marginal[alice]
    out[..., n : 2 * n] = marginal[bob]
    for i in range(n):
        out[..., (i + 2) * n : (i + 3) * n] = joint[alice[..., i, None], bob]
    return out


def _code_vectors(n: int, a: int) -> np.ndarray:
    """All a^n choice vectors as rows, in lexicographic (big-endian) order."""
    count = a**n
    codes = np.arange(count, dtype=np.int64)
    out = np.empty((count, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        out[:, i] = codes % a
        codes //= a
    return out


def one_machine_half_matrix(n: int, machine: MachineSpec | None) -> np.ndarray:
    """Half-unit behaviors (int8) of every strategy pair, Alice-major; `None` gives the local ones."""
    avec = _code_vectors(n, alphabet_size(machine))
    return half_rows(machine, avec[:, None, :], avec[None, :, :]).reshape(-1, n * (n + 2))


def strategy_behavior(s: WiringStrategy) -> BehaviorPoint:
    """Exact behavior induced by a wiring strategy, read off the option table."""
    return from_half_units(Scenario(s.n_settings), half_rows(s.machine, s.alice, s.bob).tolist())


def deterministic_point(scenario: Scenario, alice_outputs: Sequence[int], bob_outputs: Sequence[int]) -> BehaviorPoint:
    """The local vertex where each party always outputs the given bit per setting."""
    n = scenario.n_settings
    if len(alice_outputs) != n or len(bob_outputs) != n:
        raise ValueError("need one output bit per setting")
    a = tuple(1 - int(u) for u in alice_outputs)
    b = tuple(1 - int(v) for v in bob_outputs)
    joint = tuple(tuple(a[i] * b[j] for j in range(n)) for i in range(n))
    return BehaviorPoint(scenario, a, b, joint)


def _check_cap(n: int, cap: int | None):
    cap = DEFAULT_SETTING_CAP if cap is None else cap
    if n > cap:
        raise CapExceededError(
            f"enumeration at {n} settings exceeds the cap {cap}; pass cap={n} to override"
        )


def enumerate_local(scenario: Scenario, cap: int | None = None) -> list:
    """All 4^N deterministic behaviors, in output lexicographic order."""
    n = scenario.n_settings
    _check_cap(n, cap)
    points = []
    for u in itertools.product((0, 1), repeat=n):
        for v in itertools.product((0, 1), repeat=n):
            points.append(deterministic_point(scenario, u, v))
    return points


def enumerate_one_machine(scenario: Scenario, machine: MachineSpec, cap: int | None = None) -> Iterator[WiringStrategy]:
    """All (2+2K)^N x (2+2K)^N wiring strategies, deterministic subset included."""
    n = scenario.n_settings
    _check_cap(n, cap)
    codes = range(alphabet_size(machine))
    for alice in itertools.product(codes, repeat=n):
        for bob in itertools.product(codes, repeat=n):
            yield WiringStrategy(machine, alice, bob)


# ---------------------------------------------------------------------------
# Exact decoupled maximization


class DecoupledMax:
    """Numpy workspace for the Alice-outer / Bob-per-setting-inner maximization.

    `machine=None` searches the local deterministic class.  All entries are
    gathered from `option_table(machine)`; values are doubled integers.
    """

    def __init__(self, f: BellFunctional, machine: MachineSpec | None, vector_cap: int = 2_000_000):
        n = f.scenario.n_settings
        a = alphabet_size(machine)
        if a**n > vector_cap:
            raise CapExceededError(
                f"{a}^{n} Alice choice vectors exceed the optimizer cap {vector_cap}"
            )
        self.machine = machine
        self.n = n
        self.a = a
        marginal, joint = option_table(machine)
        avec = _code_vectors(n, a)
        acoef = np.asarray(f.alice, dtype=np.int64)
        bcoef = np.asarray(f.bob, dtype=np.int64)
        ccoef = np.asarray(f.joint, dtype=np.int64)
        self.alice_part = marginal[avec] @ acoef + 2 * f.constant
        # term[s, j, c]: doubled value of Bob's setting j playing option c
        term = np.einsum("sia,ij->sja", joint[avec], ccoef)
        term += (bcoef[:, None] * marginal[None, :])[None, :, :]
        self.avec = avec
        self.term = term
        self.best = term.max(axis=2)
        self.total = self.alice_part + self.best.sum(axis=1)
        self.max2 = int(self.total.max())

    @property
    def value(self) -> Fraction:
        return Fraction(self.max2, 2)

    @functools.cached_property
    def _attaining(self) -> tuple:
        """Per attaining Alice vector: Bob's optimal options per setting and stream offsets.

        Complete only for the maximum itself: a maximizer must be optimal in
        every Bob column, so the per-column argmax product covers them all.
        """
        sel = np.flatnonzero(self.total == self.max2)
        optimal = self.term[sel] == self.best[sel][:, :, None]
        sizes = optimal.sum(axis=2)
        # optimal options first, each column's in increasing code order
        options = np.argsort(~optimal, axis=2, kind="stable").astype(np.int8)
        counts = sizes.prod(axis=1)
        ends = np.cumsum(counts)
        return sel, sizes, options, ends - counts, ends

    @property
    def n_attaining(self) -> int:
        """Number of strategies attaining the maximum."""
        return int(self._attaining[4][-1])

    def attaining(self, limit: int) -> Iterator[tuple]:
        """The first `limit` maximizers in lexicographic order, as (alice, bob) code batches.

        Each batch holds up to `STREAM_BATCH` strategies as two (batch, n) arrays.
        """
        sel, sizes, options, starts, ends = self._attaining
        stop = min(limit, int(ends[-1]))
        for lo in range(0, stop, STREAM_BATCH):
            g = np.arange(lo, min(lo + STREAM_BATCH, stop))
            k = np.searchsorted(ends, g, side="right")
            rest = g - starts[k]
            bob = np.empty((g.size, self.n), dtype=np.int64)
            for j in range(self.n - 1, -1, -1):
                rest, pos = np.divmod(rest, sizes[k, j])
                bob[:, j] = options[k, j, pos]
            yield self.avec[sel[k]], bob

    def witness(self) -> WiringStrategy:
        """The lexicographically first strategy attaining the maximum."""
        alice, bob = next(self.attaining(1))
        return WiringStrategy(self.machine, tuple(alice[0].tolist()), tuple(bob[0].tolist()))


@dataclass(frozen=True)
class OneMachineMaximum:
    value: Fraction
    witness: WiringStrategy
    saturating: tuple
    truncated: bool


def max_over_one_machine(
    f: BellFunctional,
    machine: MachineSpec,
    collect_cap: int = 200_000,
) -> OneMachineMaximum:
    """Exact maximum of `f` over all strategies using at most one `machine`.

    Returns the value, the lexicographically first witness, and every
    strategy attaining the maximum up to `collect_cap` (the `truncated`
    flag says whether the cap was hit).
    """
    state = DecoupledMax(f, machine)
    saturating = tuple(
        WiringStrategy(machine, tuple(a), tuple(b))
        for alice, bob in state.attaining(collect_cap)
        for a, b in zip(alice.tolist(), bob.tolist())
    )
    return OneMachineMaximum(
        state.value, state.witness(), saturating, state.n_attaining > collect_cap
    )


def _pareto_prune(pairs):
    pairs.sort(key=lambda p: (-p[0], -p[1]))
    kept = []
    best_v = None
    for u, v in pairs:
        if best_v is None or v > best_v:
            kept.append((u, v))
            best_v = v
    return kept


def max_min_over_one_machine(f: BellFunctional, g: BellFunctional, machine: MachineSpec) -> Fraction:
    """Exact max over one-machine strategies of min(f, g).

    Per Alice vector, the reachable (f, g) value pairs form a Minkowski sum
    of per-setting option sets; a Pareto frontier sweep keeps this exact
    without enumerating Bob's full product space.
    """
    if f.scenario != g.scenario:
        raise ValueError("functionals live in different scenarios")
    sf = DecoupledMax(f, machine)
    sg = DecoupledMax(g, machine)
    n, a = sf.n, sf.a
    best2 = None
    for s in range(sf.avec.shape[0]):
        frontier = [(0, 0)]
        for j in range(n):
            tf = sf.term[s, j]
            tg = sg.term[s, j]
            frontier = _pareto_prune(
                [(u + int(tf[c]), v + int(tg[c])) for u, v in frontier for c in range(a)]
            )
        base_f, base_g = int(sf.alice_part[s]), int(sg.alice_part[s])
        cand = max(min(base_f + u, base_g + v) for u, v in frontier)
        if best2 is None or cand > best2:
            best2 = cand
    return Fraction(best2, 2)
