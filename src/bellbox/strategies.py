"""Local deterministic strategies and wirings around a single non-local box.

Each party picks, per setting, one option from the alphabet
{det(0), det(1), machine(k), machine_flipped(k)} with k ranging over the
box inputs; serialized option names are "0d", "1d", "km", "kmf".
Options are encoded as integers in the canonical tie-breaking order
0d < 1d < 0m < 0mf < 1m < 1mf < ..., which also fixes enumeration order.

A behavior entry at settings (i, j) depends only on the two per-setting
choices, so one cached option table per machine (`option_table`, in integer
half-units, with `machine=None` as the local class) holds every entry; single
behaviors, deterministic points, strategy-pair matrices and the exact
maximizer's spanning rows (`DecoupledMax.star_rows`) all gather from it.
The maximizer exploits the same locality: for a fixed Alice choice vector
each of Bob's settings can be optimized independently.  This turns the
(2+2K)^(2N) product search into (2+2K)^N * N * (2+2K) evaluations, all in
integer half-units.  Shared randomness never helps a linear
objective, so searching pure wirings is exhaustive for the strategy class.
The search splits Alice's vectors into heads (leading settings) and tails
and holds each share options-first, `term[c, setting, vector]`, so Bob's
best option per setting is an elementwise maximum over contiguous slices;
a head whose upper bound is below a value already attained is skipped.
The attaining Alice vectors are kept as int8 rows with one bit mask of
Bob's optimal options per setting.  The max-min of two functionals bounds
min(f, g) by (f + g) / 2 per Alice vector and runs the exact Pareto sweep
only where that bound beats a value already attained.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .behavior import BehaviorPoint, Scenario, as_integer, from_half_units, json_object, unchecked
from .functionals import BellFunctional, unseen_rows
from .machines import MachineSpec

DEFAULT_SETTING_CAP = 6

# Alice choice vectors are walked in blocks of at most this many
CHUNK_VECTORS = 4096

# `_split` refuses a search with more heads than this.  Building the head
# tables peaks at about 8 * a * (2n - tail settings) bytes per head, so the
# largest search kept in reach, M8822 against `pr_machine(7)` (16^5 heads of
# 16 options), peaks at about 1,750 MB; local CHSH at 36 settings (2^24 heads)
# would need about 3,200 MB for its int64 head vectors alone.
MAX_HEADS = 16**5

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
    m = re.fullmatch(r"(\d+)m(f?)", name) if isinstance(name, str) else None
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
        alice = tuple(as_integer(c, "choice code") for c in self.alice)
        bob = tuple(as_integer(c, "choice code") for c in self.bob)
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
    """Parse a strategy document; a malformed one raises ValueError."""
    from .machines import machine_from_json_dict

    json_object(doc, "strategy", "machine", "alice", "bob")
    if not all(isinstance(doc[k], list) for k in ("alice", "bob")):
        raise ValueError('"alice" and "bob" must be lists of option names')
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
    """The local vertex where each party always outputs the given bit per setting.

    Output bit u is choice code u (0d or 1d), so the point is a row of the
    local option table.
    """
    n = scenario.n_settings
    if len(alice_outputs) != n or len(bob_outputs) != n:
        raise ValueError("need one output bit per setting")
    bits = [as_integer(u, "output bit") for u in (*alice_outputs, *bob_outputs)]
    if not all(u in (0, 1) for u in bits):
        raise ValueError(f"output bits are 0 or 1, got {bits}")
    return from_half_units(scenario, half_rows(None, bits[:n], bits[n:]).tolist())


def check_cap(n: int, cap: int | None):
    """Refuse an enumeration at `n` settings beyond `cap` (default `DEFAULT_SETTING_CAP`)."""
    cap = DEFAULT_SETTING_CAP if cap is None else cap
    if n > cap:
        raise CapExceededError(
            f"enumeration at {n} settings exceeds the cap {cap}; pass cap={n} to override"
        )


def enumerate_local(scenario: Scenario, cap: int | None = None) -> list:
    """All 4^N deterministic behaviors, in output lexicographic order."""
    n = scenario.n_settings
    check_cap(n, cap)
    return [from_half_units(scenario, row) for row in one_machine_half_matrix(n, None).tolist()]


def enumerate_one_machine(scenario: Scenario, machine: MachineSpec, cap: int | None = None) -> Iterator[WiringStrategy]:
    """All (2+2K)^N x (2+2K)^N wiring strategies, deterministic subset included."""
    n = scenario.n_settings
    check_cap(n, cap)
    codes = range(alphabet_size(machine))
    for alice in itertools.product(codes, repeat=n):
        for bob in itertools.product(codes, repeat=n):
            yield unchecked(WiringStrategy, machine=machine, alice=alice, bob=bob)


# ---------------------------------------------------------------------------
# Exact decoupled maximization


def _search_dtype(*functionals: BellFunctional) -> np.dtype:
    """The narrowest signed integer dtype that holds every partial sum of the doubled values.

    Each half-unit entry lies in [0, 2], so no share of Alice's marginals,
    Bob's columns or their sum exceeds twice the coefficients' absolute sum
    (constant included) in magnitude; summed over the functionals, that
    bounds every term the searches add.
    """
    bound = 2 * sum(abs(c) for f in functionals for c in f.coefficient_vector())
    if bound >= 2**63:
        raise ValueError("coefficients too large for an exact int64 search")
    return np.min_scalar_type(-bound - 1)


def _split(f: BellFunctional, machine: MachineSpec | None, dtype: np.dtype) -> tuple:
    """Head and tail shares of the doubled value of `f`, options first.

    Alice's choice vector splits into leading (head) settings and as many
    trailing (tail) settings as keep the tails within `CHUNK_VECTORS`.
    Returns `(heads, tails, head_alice, tail_alice, head_term, tail_term)`:
    the head and tail choice vectors (int8, lexicographic), the doubled
    value of their Alice marginals (the tail's with the constant), and
    `*_term[c, j, v]`, the doubled value of Bob's setting j under option c
    from those Alice settings' joint column j (the tail's with Bob's
    marginal).  The value of Alice vector (head h, tail t) against Bob's
    choices b is `head_alice[h] + tail_alice[t]` plus, summed over j,
    `head_term[b_j, j, h] + tail_term[b_j, j, t]`, so Bob's best option
    per setting is an elementwise maximum over the
    contiguous (settings, tails) slices of the options axis, and a head's
    terms add to the tails' as one scalar per contiguous row.  The Alice
    shares are int64, the terms `dtype` (see `_search_dtype`).
    """
    n = f.scenario.n_settings
    a = alphabet_size(machine)
    marginal, joint = option_table(machine)
    acoef = np.asarray(f.alice, dtype=np.int64)
    ccoef = np.asarray(f.joint, dtype=np.int64)

    def parts(vectors, settings):  # the share of Alice's `settings` playing `vectors`
        alice = marginal[vectors] @ acoef[settings]
        term = np.matmul(ccoef[settings].T, joint[vectors].transpose(2, 1, 0).astype(np.int64))
        return alice, term

    free = max(k for k in range(n + 1) if a**k <= CHUNK_VECTORS)
    if a ** (n - free) > MAX_HEADS:
        raise ValueError(
            f"{n} settings with {a} options each need {a}^{n - free} = {a ** (n - free)} head vectors; "
            f"at most {MAX_HEADS} fit in memory"
        )
    heads = _code_vectors(n - free, a).astype(np.int8)
    tails = _code_vectors(free, a).astype(np.int8)
    head_alice, head_term = parts(heads, slice(0, n - free))
    tail_alice, tail_term = parts(tails, slice(n - free, n))
    tail_alice += 2 * f.constant
    tail_term += marginal[:, None, None] * np.asarray(f.bob, dtype=np.int64)[:, None]
    return heads, tails, head_alice, tail_alice, head_term.astype(dtype), tail_term.astype(dtype)


def _head_bound(head_alice, tail_alice, head_term, tail_term) -> np.ndarray:
    """Per head of `_split`'s shares, an upper bound on the doubled value of its vectors.

    The head's Alice share plus the largest tail Alice share plus, per Bob
    setting, the best option's head term plus that option's largest tail
    term.
    """
    return (
        head_alice
        + tail_alice.max()
        + (head_term + tail_term.max(axis=2)[:, :, None]).max(axis=0).sum(axis=0)
    )


class DecoupledMax:
    """Exact maximum by the Alice-outer / Bob-per-setting-inner decoupling.

    `machine=None` searches the local deterministic class; values are doubled
    integers.  One pass over the heads of `_split`, in lexicographic order,
    keeps the attaining Alice vectors (`avec`, int8) and per vector and Bob
    setting one bit mask of his optimal options (`optimal`, bit c for option
    c): a maximizer must be optimal in every Bob setting, so the masks
    describe every maximizer.  A head is skipped when its `_head_bound` is
    below a value already attained; the head with the largest bound is
    evaluated first to supply that value.  `visited` counts the heads
    searched.
    """

    def __init__(self, f: BellFunctional, machine: MachineSpec | None):
        self.machine = machine
        self.n = f.scenario.n_settings
        self.a = alphabet_size(machine)
        if self.a > 64:
            raise ValueError("the option masks hold at most 64 options (31 box inputs)")
        mask_type = np.min_scalar_type((1 << self.a) - 1)
        heads, tails, head_alice, tail_alice, head_term, tail_term = _split(f, machine, _search_dtype(f))
        bound = _head_bound(head_alice, tail_alice, head_term, tail_term)

        def search(h):
            term = tail_term + head_term[:, :, h, None]
            best = term.max(axis=0)
            return term, best, tail_alice + head_alice[h] + best.sum(axis=0)

        first = int(bound.argmax())
        primed = search(first)
        self.max2 = int(primed[2].max())
        self.visited = 0
        kept = []
        for h, head_bound in enumerate(bound.tolist()):
            if head_bound < self.max2:
                continue
            term, best, total = primed if h == first else search(h)
            self.visited += 1
            top = int(total.max())
            if top > self.max2:
                self.max2, kept = top, []
            elif top < self.max2:
                continue
            sel = np.flatnonzero(total == top)
            best = best[:, sel]
            optimal = np.zeros((self.n, len(sel)), dtype=mask_type)
            for c in range(self.a):
                optimal[term[c][:, sel] == best] |= mask_type.type(1 << c)
            optimal = optimal.T
            avec = np.empty((len(sel), self.n), dtype=np.int8)
            avec[:, : heads.shape[1]] = heads[h]
            avec[:, heads.shape[1] :] = tails[sel]
            kept.append((avec, optimal))
        self.avec = np.concatenate([avec for avec, _ in kept])
        self.optimal = np.concatenate([optimal for _, optimal in kept])

    @property
    def value(self) -> Fraction:
        return Fraction(self.max2, 2)

    def _products(self, optimal) -> int:
        """Sum over vectors of the product over settings of the options set in `optimal`.

        Counted in blocks of `CHUNK_VECTORS` vectors, so no full-size count
        array is made.
        """
        total = 0
        for lo in range(0, len(optimal), CHUNK_VECTORS):
            block = optimal[lo : lo + CHUNK_VECTORS]
            counts = sum((block >> c) & 1 for c in range(self.a))
            total += int(counts.prod(axis=1, dtype=np.int64).sum())
        return total

    @property
    def n_attaining(self) -> int:
        """Number of strategies attaining the maximum."""
        return self._products(self.optimal)

    @property
    def n_deterministic(self) -> int:
        """Number of attaining strategies in which neither party uses the box."""
        det = (self.avec < 2).all(axis=1)
        return self._products(self.optimal[det] & 3)

    def attaining(self) -> Iterator[tuple]:
        """Every maximizer as (alice, bob) code tuples, in lexicographic order.

        Per attaining Alice vector, Bob's maximizers are the product of his
        optimal options per setting.
        """
        for alice, optimal in zip(self.avec, self.optimal):
            alice = tuple(alice.tolist())
            options = ([c for c in range(self.a) if m >> c & 1] for m in optimal.tolist())
            for bob in itertools.product(*options):
                yield alice, bob

    def star_rows(self) -> Iterator[np.ndarray]:
        """Distinct half-unit rows (int8) of maximizers spanning the affine hull of all of them.

        A behavior is Alice's marginals plus one block per Bob setting that
        depends only on her vector and his option there, so one vector's
        maximizers form a product, spanned by a base choice (Bob's first
        optimal option per setting) and the moves that change one setting j
        to another optimal option c.  The rows that complete the rank come
        from the last attaining vectors in lexicographic order, so the walk
        starts at the last vector and runs backwards, batch by batch of
        `step` vectors: their base rows, then their move rows ordered by
        (vector, j, c).  It is yielded in blocks of whole batches, each row
        at its first occurrence only.  The first block is one batch and each
        next one doubles, up to `CHUNK_VECTORS` vectors, so a consumer that
        stops at full rank builds little.  A move rewrites only Bob's
        marginal j and joint column j, so it is fixed by its base row, j and
        that column (n + 1 entries in {0, 1, 2}, one base-3 code); a move
        whose (base row, j, code) was met before repeats a row already met
        and is not built.
        """
        marginal, joint = option_table(self.machine)
        n = self.n
        bits = np.arange(self.a, dtype=self.optimal.dtype)
        step = max(1, STREAM_BATCH // (n * self.a))
        full = step * max(1, CHUNK_VECTORS // step)
        column = 2 * n + n * np.arange(n)
        digits = 3 ** np.arange(n, dtype=np.int64)
        seen, base_ids, seen_moves = set(), {}, set()
        avec, masks = self.avec[::-1], self.optimal[::-1]
        lo, block = 0, step
        while lo < len(avec):
            alice = avec[lo : lo + block]
            optimal = (masks[lo : lo + block, :, None] >> bits) & 1 == 1
            lo, block = lo + block, min(2 * block, full)
            base = optimal.argmax(axis=2)
            s, j, c = np.unravel_index(np.flatnonzero(optimal & (bits != base[:, :, None])), optimal.shape)
            rows = half_rows(self.machine, alice, base)
            keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()
            ids = np.array([base_ids.setdefault(key, len(base_ids)) for key in keys], dtype=np.int64)
            # code[v, c]: Bob's column under option c against Alice vector v
            code = digits @ joint[alice].astype(np.int64) + marginal.astype(np.int64) * 3**n
            signature = (ids[s] * n + j) * 3 ** (n + 1) + code[s, c]
            # the distinct signatures and the first index of each, from one unstable sort
            order = np.argsort(signature)
            starts = np.flatnonzero(np.diff(signature[order], prepend=-1))
            unique, first = signature[order[starts]], np.minimum.reduceat(order, starts)
            new = [k for k, sig in enumerate(unique.tolist()) if sig not in seen_moves]
            seen_moves.update(unique[new].tolist())
            pick = np.sort(first[new])
            s, j, c = s[pick], j[pick], c[pick]
            moved = rows[s]
            at = np.arange(len(s))
            moved[at, n + j] = marginal[c]
            moved[at[:, None], column + j[:, None]] = joint[alice[s], c[:, None]]
            batch = np.concatenate([np.arange(len(rows)) // step * 2, s // step * 2 + 1])
            stream = np.concatenate([rows, moved])[np.argsort(batch, kind="stable")]
            yield stream[unseen_rows(stream, seen)]

    def witness(self) -> WiringStrategy:
        """The lexicographically first strategy attaining the maximum."""
        alice, bob = next(self.attaining())
        return unchecked(WiringStrategy, machine=self.machine, alice=alice, bob=bob)


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
    if collect_cap < 0:
        raise ValueError(f"collect_cap must be at least 0, got {collect_cap}")
    state = DecoupledMax(f, machine)
    saturating = tuple(
        unchecked(WiringStrategy, machine=machine, alice=alice, bob=bob)
        for alice, bob in itertools.islice(state.attaining(), collect_cap)
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

    In doubled units min(f, g) <= floor((f + g) / 2), and per Alice vector
    Bob maximizes f + g setting by setting, an elementwise maximum over the
    options axis of `_split`'s terms; playing, per setting, the maximizer
    with the largest f attains some min(f, g).  Heads whose bound on
    (f + g) / 2, half the `_head_bound` of f + g, does not beat the best
    attained value are skipped.  Only Alice vectors whose bound beats it
    get the exact search: their reachable (f, g) value pairs form a
    Minkowski sum of per-setting option sets, and a Pareto frontier sweep
    keeps this exact without enumerating Bob's full product space.
    """
    if f.scenario != g.scenario:
        raise ValueError("functionals live in different scenarios")
    dtype = _search_dtype(f, g)
    _, _, head_f, tail_f, head_tf, tail_tf = _split(f, machine, dtype)
    _, _, head_g, tail_g, head_tg, tail_tg = _split(g, machine, dtype)
    head_bound = _head_bound(head_f + head_g, tail_f + tail_g, head_tf + head_tg, tail_tf + tail_tg) // 2
    lowest = np.iinfo(dtype).min
    best2 = None
    candidates = []
    for h, bound in enumerate(head_bound.tolist()):
        if best2 is not None and bound <= best2:
            continue
        tf = tail_tf + head_tf[:, :, h, None]
        tg = tail_tg + head_tg[:, :, h, None]
        both = tf + tg
        best = both.max(axis=0)
        play_f = np.where(both == best, tf, lowest).max(axis=0)
        part_f, part_g = tail_f + head_f[h], tail_g + head_g[h]
        f_part = part_f + play_f.sum(axis=0)
        both_part = part_f + part_g + best.sum(axis=0)
        top = int(np.minimum(f_part, both_part - f_part).max())
        best2 = top if best2 is None else max(best2, top)
        bound = both_part // 2
        loose = np.flatnonzero(bound > best2)
        options_f, options_g = (t[:, :, loose].transpose(2, 1, 0) for t in (tf, tg))
        candidates += zip(*(x.tolist() for x in (bound[loose], part_f[loose], part_g[loose], options_f, options_g)))
    for bound, base_f, base_g, tf, tg in candidates:
        if bound <= best2:
            continue
        frontier = [(0, 0)]
        for options_f, options_g in zip(tf, tg):
            frontier = _pareto_prune(
                [(u + x, v + y) for u, v in frontier for x, y in zip(options_f, options_g)]
            )
        best2 = max(best2, max(min(base_f + u, base_g + v) for u, v in frontier))
    return Fraction(best2, 2)
