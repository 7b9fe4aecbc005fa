import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from bellbox.behavior import BehaviorPoint, Scenario, validate
from bellbox.functionals import (
    BellFunctional,
    make_c1,
    make_c2,
    make_chsh,
    make_inn22,
    make_mnn22,
    transform,
    random_element,
)
from bellbox import strategies
from bellbox.machines import machine_behavior, pr_box, pr_machine
from bellbox.polytope import doubled_values, one_machine_half_matrix
from bellbox.strategies import (
    CHUNK_VECTORS,
    OPT_DET0,
    OPT_DET1,
    CapExceededError,
    DecoupledMax,
    WiringStrategy,
    alphabet_size,
    deterministic_point,
    enumerate_local,
    enumerate_one_machine,
    half_rows,
    max_min_over_one_machine,
    max_over_one_machine,
    opt_machine,
    option_code,
    option_name,
    option_table,
    strategy_behavior,
    strategy_from_json_dict,
    strategy_to_json_dict,
)

HALF = Fraction(1, 2)


def oracle_behavior(s: WiringStrategy) -> BehaviorPoint:
    """Independent evaluation: average over the box's two output pairs.

    For each setting pair, enumerate the machine output pairs (a, b) with
    a XOR b fixed by the anticorrelation set, each carrying weight 1/2, and
    read off each party's final output bit.
    """
    n = s.n_settings
    m = s.machine

    def out_bit(code, a):
        if code == OPT_DET0:
            return 0
        if code == OPT_DET1:
            return 1
        k, flip = divmod(code - 2, 2)
        return a ^ flip

    def box_input(code):
        return 0 if code < 2 else (code - 2) // 2

    alice = []
    bob = []
    joint = []
    for i in range(n):
        row = []
        for j in range(n):
            x, y = box_input(s.alice[i]), box_input(s.bob[j])
            parity = 1 if (m is not None and m.anticorrelates(x, y)) else 0
            p00 = Fraction(0)
            pa0 = Fraction(0)
            pb0 = Fraction(0)
            for a in (0, 1):
                b = a ^ parity
                w = HALF
                ra = out_bit(s.alice[i], a)
                rb = out_bit(s.bob[j], b)
                if ra == 0:
                    pa0 += w
                if rb == 0:
                    pb0 += w
                if ra == 0 and rb == 0:
                    p00 += w
            row.append(p00)
            if j == 0:
                alice.append(pa0)
            if i == 0:
                bob.append(pb0)
        joint.append(tuple(row))
    return BehaviorPoint(Scenario(n), tuple(alice), tuple(bob), tuple(joint))


def test_option_names_and_codes():
    names = [option_name(c) for c in range(8)]
    assert names == ["0d", "1d", "0m", "0mf", "1m", "1mf", "2m", "2mf"]
    for c in range(8):
        assert option_code(option_name(c)) == c
    assert alphabet_size(pr_machine(3)) == 8
    assert alphabet_size(pr_box()) == 6
    assert alphabet_size(None) == 2


def reference_entries(machine, ca, cb):
    """Per-entry half-unit rule, (marginal of ca, joint of (ca, cb)), written out case by case."""
    def marginal(c):
        return {OPT_DET0: 2, OPT_DET1: 0}.get(c, 1)

    if ca < 2 and cb < 2:
        joint = 2 if ca == cb == OPT_DET0 else 0
    elif ca < 2 or cb < 2:
        det = ca if ca < 2 else cb
        joint = 1 if det == OPT_DET0 else 0
    else:
        ka, fa = divmod(ca - 2, 2)
        kb, fb = divmod(cb - 2, 2)
        joint = 1 if (fa ^ fb) == int(machine.anticorrelates(ka, kb)) else 0
    return marginal(ca), joint


def test_option_table_matches_the_per_entry_rule():
    for machine in (None, pr_box(), pr_machine(3), pr_machine(4)):
        marginal, joint = option_table(machine)
        size = alphabet_size(machine)
        assert marginal.shape == (size,) and joint.shape == (size, size)
        for ca in range(size):
            for cb in range(size):
                assert (marginal[ca], joint[ca, cb]) == reference_entries(machine, ca, cb)
        assert not marginal.flags.writeable and not joint.flags.writeable
        assert option_table(machine) is option_table(machine)


def test_identity_wiring_reproduces_the_machine_point():
    s = WiringStrategy(
        pr_machine(3),
        (opt_machine(0), opt_machine(1), opt_machine(2)),
        (opt_machine(0), opt_machine(1), opt_machine(2)),
    )
    assert strategy_behavior(s) == machine_behavior(pr_machine(3))


def test_pure_deterministic_strategy():
    s = WiringStrategy(None, (OPT_DET0, OPT_DET1), (OPT_DET0, OPT_DET0))
    assert strategy_behavior(s) == deterministic_point(Scenario(2), (0, 1), (0, 0))


def test_deterministic_point_refuses_what_is_not_an_output_bit():
    # 1 - int(u) gave Alice the marginal -4 for bit 5 and 2 for bit -1, and read 0.5 as 0
    for bad in (5, -1, 0.5, True):
        with pytest.raises(ValueError):
            deterministic_point(Scenario(2), (bad, 0), (0, 0))
        with pytest.raises(ValueError):
            deterministic_point(Scenario(2), (0, 0), (0, bad))
    assert deterministic_point(Scenario(2), (1, 0), (0, 1)).alice == (0, 1)


def test_mixed_strategy_has_one_deterministic_row_and_column():
    s = WiringStrategy(
        pr_box(),
        (opt_machine(0), opt_machine(1), OPT_DET1),
        (OPT_DET0, opt_machine(0), opt_machine(1)),
    )
    point = strategy_behavior(s)
    assert point == oracle_behavior(s)
    assert point.alice == (HALF, HALF, 0)
    assert point.bob == (1, HALF, HALF)
    assert validate(point) == []


def test_behavior_matches_probability_oracle_on_random_strategies():
    rng = random.Random(31)
    for machine in (pr_box(), pr_machine(3)):
        size = alphabet_size(machine)
        for n in (2, 3):
            for _ in range(60):
                s = WiringStrategy(
                    machine,
                    tuple(rng.randrange(size) for _ in range(n)),
                    tuple(rng.randrange(size) for _ in range(n)),
                )
                point = strategy_behavior(s)
                assert point == oracle_behavior(s)
                assert validate(point) == []
                assert all(
                    v.denominator in (1, 2) for row in point.joint for v in row
                )


def test_strategy_rejects_out_of_range_codes():
    with pytest.raises(ValueError):
        WiringStrategy(None, (0, 2), (0, 0))
    with pytest.raises(ValueError):
        WiringStrategy(pr_box(), (0, 6), (0, 0))


def test_non_integral_codes_and_malformed_documents_are_rejected():
    # int() read 2.9 as option 2, a machine option
    with pytest.raises(ValueError):
        WiringStrategy(pr_box(), (2.9, 0), (0, 1))
    doc = strategy_to_json_dict(WiringStrategy(pr_box(), (2, 0), (0, 1)))
    for key, bad in (("alice", 5), ("bob", "0d"), ("alice", [2, "0d"])):
        with pytest.raises(ValueError):
            strategy_from_json_dict({**doc, key: bad})
    with pytest.raises(ValueError):
        strategy_from_json_dict({"machine": None, "alice": 5, "bob": ["0d"]})
    with pytest.raises(ValueError):
        strategy_from_json_dict([doc])


def test_enumerate_local_counts():
    assert len(enumerate_local(Scenario(2))) == 16
    points3 = enumerate_local(Scenario(3))
    assert len(points3) == 64
    assert len(set(points3)) == 64
    assert len(enumerate_local(Scenario(4))) == 256
    coords = {v for p in points3 for v in p.coords()}
    assert coords <= {0, 1}


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_local(Scenario(7))
    assert len(enumerate_local(Scenario(7), cap=7)) == 4**7


def test_one_machine_enumeration_counts():
    assert sum(1 for _ in enumerate_one_machine(Scenario(2), pr_box())) == 1296
    count3 = sum(1 for _ in enumerate_one_machine(Scenario(3), pr_machine(3)))
    assert count3 == 8**3 * 8**3
    with pytest.raises(CapExceededError):
        next(enumerate_one_machine(Scenario(7), pr_box()))


def test_enumerated_strategies_equal_validated_constructions():
    for s in enumerate_one_machine(Scenario(2), pr_box()):
        assert WiringStrategy(s.machine, s.alice, s.bob) == s


def test_enumeration_contains_the_deterministic_subset():
    seen = {
        s.alice + s.bob
        for s in enumerate_one_machine(Scenario(2), pr_box())
        if not s.uses_machine()
    }
    assert len(seen) == 16


# ---------------------------------------------------------------------------
# Exact maximization


def exhaustive_max(f, machine):
    best = None
    for s in enumerate_one_machine(f.scenario, machine):
        v = f.evaluate(strategy_behavior(s))
        if best is None or v > best[0]:
            best = (v, s)
    return best


def test_known_maxima():
    assert max_over_one_machine(make_chsh(2), pr_box()).value == HALF
    assert max_over_one_machine(make_inn22(3), pr_machine(3)).value == 1
    assert max_over_one_machine(make_mnn22(3), pr_box()).value == 0
    assert max_over_one_machine(make_mnn22(4), pr_machine(3)).value == 0


def test_optimizer_agrees_with_full_enumeration_at_two_settings():
    rng = random.Random(5)
    corpus = [make_chsh(2), make_inn22(2)]
    corpus += [transform(make_chsh(2), random_element(2, rng)) for _ in range(3)]
    for f in corpus:
        value, witness = exhaustive_max(f, pr_box())
        result = max_over_one_machine(f, pr_box())
        assert result.value == value
        assert f.evaluate(strategy_behavior(result.witness)) == value
        assert (result.witness.alice, result.witness.bob) == (
            witness.alice,
            witness.bob,
        )


def test_optimizer_agrees_with_matrix_enumeration_at_three_settings():
    corpus = [make_chsh(3), make_inn22(3), make_mnn22(3), make_c1(3), make_c2(3)]
    for machine in (pr_box(), pr_machine(3)):
        matrix = one_machine_half_matrix(3, machine)
        values = doubled_values(matrix, corpus)
        for k, f in enumerate(corpus):
            expected = Fraction(int(values[:, k].max()), 2)
            result = max_over_one_machine(f, machine)
            assert result.value == expected
            assert f.evaluate(strategy_behavior(result.witness)) == expected


def test_machine_max_dominates_local_max():
    for f in (make_chsh(3), make_inn22(3), make_mnn22(3), make_c2(3)):
        local = max(f.evaluate(p) for p in enumerate_local(f.scenario))
        for machine in (pr_box(), pr_machine(3)):
            assert max_over_one_machine(f, machine).value >= local


def test_witness_is_deterministic_and_lexicographically_first():
    f = make_mnn22(3)
    r1 = max_over_one_machine(f, pr_box())
    r2 = max_over_one_machine(f, pr_box())
    assert (r1.witness.alice, r1.witness.bob) == (r2.witness.alice, r2.witness.bob)
    assert r1.value == 0
    assert (r1.witness.alice, r1.witness.bob) == min(exhaustive_maximizers_m3322())


def exhaustive_maximizers_m3322():
    """(alice, bob) of every pr_box strategy with M3322 value 0, from the dense table."""
    vectors = list(itertools.product(range(alphabet_size(pr_box())), repeat=3))
    vals2 = doubled_values(one_machine_half_matrix(3, pr_box()), [make_mnn22(3)])[:, 0]
    assert vals2.max() == 0
    # the table's rows run Alice-major over lexicographic choice vectors
    pairs = (divmod(int(i), len(vectors)) for i in np.flatnonzero(vals2 == 0))
    return [(vectors[a], vectors[b]) for a, b in pairs]


def test_saturating_list_hits_the_maximum():
    expected = exhaustive_maximizers_m3322()
    assert len(expected) == 524
    result = max_over_one_machine(make_mnn22(3), pr_box())
    assert not result.truncated
    assert [(s.alice, s.bob) for s in result.saturating] == expected
    assert (result.witness.alice, result.witness.bob) == expected[0]
    # built without re-validation, so the codes must already be plain ints
    assert all(type(c) is int for s in result.saturating for c in s.alice + s.bob)
    assert result.saturating[0] == WiringStrategy(pr_box(), *expected[0])
    assert len(set(result.saturating)) == 524


def test_collect_cap_truncates():
    expected = exhaustive_maximizers_m3322()
    for k in (1, 10, 523):
        result = max_over_one_machine(make_mnn22(3), pr_box(), collect_cap=k)
        assert result.truncated
        assert [(s.alice, s.bob) for s in result.saturating] == expected[:k]
    assert max_over_one_machine(make_mnn22(3), pr_box(), collect_cap=0).saturating == ()
    assert not max_over_one_machine(make_mnn22(3), pr_box(), collect_cap=524).truncated


def test_negative_collect_cap_is_refused():
    with pytest.raises(ValueError, match="collect_cap"):
        max_over_one_machine(make_mnn22(3), pr_box(), collect_cap=-5)


class HeadsBuilt(Exception):
    """Raised in place of building the head vectors, so no test allocates them."""


@pytest.mark.parametrize("f, machine, refused", [
    (make_mnn22(8), pr_machine(7), False),  # 16^5 heads, the largest search kept in reach
    (make_chsh(32), None, False),  # 2^20 heads
    (make_chsh(33), None, True),
    (make_mnn22(9), pr_machine(8), True),  # 18^7 heads
], ids=["M8822-pr7", "CHSH32-local", "CHSH33-local", "M9922-pr8"])
def test_split_refuses_heads_that_cannot_fit_before_building_them(monkeypatch, f, machine, refused):
    def build(n, a):
        raise HeadsBuilt

    monkeypatch.setattr(strategies, "_code_vectors", build)
    with pytest.raises(ValueError if refused else HeadsBuilt, match="head vectors" if refused else None):
        strategies._split(f, machine, np.int64)


def test_max_min_of_the_paired_relaxations():
    c1, c2 = make_c1(3), make_c2(3)
    # every pr_box strategy, doubled values of both relaxations per row
    vals2 = doubled_values(one_machine_half_matrix(3, pr_box()), [c1, c2])
    exhaustive = Fraction(int(vals2.min(axis=1).max()), 2)
    assert max_min_over_one_machine(c1, c2, pr_box()) == exhaustive
    # a single two-input PR box can beat both relaxations at three settings,
    # but the two-input PR box cannot at four or five
    assert exhaustive == HALF
    assert max_min_over_one_machine(make_c1(4), make_c2(4), pr_box()) == 0
    assert max_min_over_one_machine(make_c1(5), make_c2(5), pr_box()) == 0
    # but the three-input box that the four-setting bound is about beats
    # both.  Below, Alice's settings 0,1,2 and Bob's 1,2,3 play the box on
    # inputs 0,1,2 unflipped, which violates C1's block (Alice 0,1,2 x Bob
    # 1,2,3); Alice's setting 3 on input 1 flipped and Bob's setting 0 on
    # input 2 complete a violation of C2's block (Alice 0,2,3 x Bob 0,1,2).
    # M4422 stays at 0.
    box3 = pr_machine(3)
    assert max_min_over_one_machine(make_c1(4), make_c2(4), box3) == HALF
    witness = strategy_behavior(WiringStrategy(
        box3,
        (opt_machine(0), opt_machine(1), opt_machine(2), opt_machine(1, flip=True)),
        (opt_machine(2), opt_machine(0), opt_machine(1), opt_machine(2)),
    ))
    assert make_c1(4).evaluate(witness) == make_c2(4).evaluate(witness) == HALF
    assert make_mnn22(4).evaluate(witness) == 0


def test_max_min_of_the_six_setting_relaxations():
    # 12^6 Alice choice vectors, walked in blocks
    assert max_min_over_one_machine(make_c1(6), make_c2(6), pr_machine(5)) == HALF


def test_max_min_where_the_half_sum_bound_is_not_tight():
    # min(f, g) <= (f + g) / 2 bounds the max-min by 1/2 here, but no
    # strategy reaches it, so the exact frontier search decides the value
    scenario = Scenario(2)
    f = BellFunctional(scenario, (-2, 2), (-2, 2), ((1, 1), (2, -1)))
    g = BellFunctional(scenario, (2, -2), (2, -2), ((-2, -2), (-1, -1)))
    both = BellFunctional(scenario, (0, 0), (0, 0), ((-1, -1), (1, -2)))
    assert max_over_one_machine(both, pr_box()).value == 1
    exhaustive = max(
        min(f.evaluate(b), g.evaluate(b))
        for b in map(strategy_behavior, enumerate_one_machine(scenario, pr_box()))
    )
    assert exhaustive == 0
    assert max_min_over_one_machine(f, g, pr_box()) == exhaustive


def test_strategy_json_roundtrip():
    s = WiringStrategy(
        pr_machine(3),
        (opt_machine(0), opt_machine(2, flip=True), OPT_DET1),
        (OPT_DET0, opt_machine(1), opt_machine(1, flip=True)),
    )
    doc = strategy_to_json_dict(s)
    assert doc["alice"] == ["0m", "2mf", "1d"]
    assert strategy_from_json_dict(doc) == s


# ---------------------------------------------------------------------------
# The option-major kernel against the exhaustive n = 3 table


def random_functional(rng, n=3):
    coefficient = lambda: rng.randint(-2, 2)  # noqa: E731
    return BellFunctional(
        Scenario(n),
        tuple(coefficient() for _ in range(n)),
        tuple(coefficient() for _ in range(n)),
        tuple(tuple(coefficient() for _ in range(n)) for _ in range(n)),
        coefficient(),
    )


def exhaustive_kernel(f, machine):
    """What `DecoupledMax` must hold, read off the dense table of every strategy pair.

    Returns (doubled maximum, attaining Alice vectors in lexicographic order,
    per vector and Bob setting which options some maximizer plays there,
    number of maximizers, number of them without the box, first maximizer).
    """
    a = alphabet_size(machine)
    vectors = np.array(list(itertools.product(range(a), repeat=3)))
    vals2 = doubled_values(one_machine_half_matrix(3, machine), [f])[:, 0].reshape(a**3, a**3)
    hit = vals2 == vals2.max()
    rows = np.flatnonzero(hit.any(axis=1))
    plays = (vectors[:, :, None] == np.arange(a)).reshape(a**3, 3 * a).astype(np.int64)
    masks = (hit[rows].astype(np.int64) @ plays > 0).reshape(-1, 3, a)
    det = (vectors < 2).all(axis=1)
    s, b = np.argwhere(hit)[0]
    first = (tuple(vectors[s].tolist()), tuple(vectors[b].tolist()))
    return int(vals2.max()), vectors[rows], masks, int(hit.sum()), int(hit[np.ix_(det, det)].sum()), first


def option_bits(state):
    """`state.optimal` unpacked to (vectors, n, a) bools."""
    return (state.optimal[..., None] >> np.arange(state.a)) & 1 == 1


# 8 Alice vectors per block splits an n = 3 vector into a two-setting head and
# a one-setting tail under pr_machine(3), so the 64 heads are bounded and the
# kept vectors come from several blocks; on these facets no head bound falls
# below the maximum, on the random functionals most do
@pytest.mark.parametrize("chunk", [CHUNK_VECTORS, 8])
def test_decoupled_max_matches_the_exhaustive_table(monkeypatch, chunk):
    monkeypatch.setattr(strategies, "CHUNK_VECTORS", chunk)
    rng = random.Random(11)
    machine = pr_machine(3)
    corpus = [transform(base, random_element(3, rng))
              for base in (make_mnn22(3), make_inn22(3), make_chsh(3)) for _ in range(2)]
    corpus += [random_functional(rng) for _ in range(4)]
    visited = []
    for f in corpus:
        top, avec, masks, count, det, first = exhaustive_kernel(f, machine)
        state = DecoupledMax(f, machine)
        assert state.max2 == top
        assert state.avec.dtype == np.int8 and state.optimal.shape == avec.shape
        assert np.array_equal(state.avec, avec)
        assert np.array_equal(option_bits(state), masks)
        assert (state.n_attaining, state.n_deterministic) == (count, det)
        witness = state.witness()
        assert (witness.alice, witness.bob) == first
        visited.append(state.visited)
    if chunk == 8:
        assert visited[:6] == [64] * 6 and sum(visited[6:]) < 4 * 64
    else:
        assert visited == [1] * len(corpus)


# sha256 of the attaining Alice vectors (int64) and their option masks as
# (vectors, n, a) bools, recorded with the setting-major kernel
KERNEL_DIGESTS = {
    3: "f76a021d960742c0dfbde38f3b3d0942bd99494ff0fea81e984efd7c8b8b767e",
    4: "2dcf03f023a81c6523d8c03cce22c31fe11c1cf89cd284207d615811bf6fb24e",
    5: "71f39010441c759259a4e8b417c6ffdf5be0348e3e62ffe9c35fb31422cea8d3",
}


@pytest.mark.parametrize("n", sorted(KERNEL_DIGESTS))
def test_machine_resistant_maximizers_are_pinned(n):
    state = DecoupledMax(make_mnn22(n), pr_box() if n == 3 else pr_machine(n - 1))
    data = state.avec.astype(np.int64).tobytes() + option_bits(state).tobytes()
    assert hashlib.sha256(data).hexdigest() == KERNEL_DIGESTS[n]
    if n == 5:
        # the head bound skips 25 of the 100 two-setting heads
        assert state.visited == 75


# sha256 of the concatenated int8 blocks of distinct star rows, recorded when
# the stream first walked the attaining vectors from the last one back; the
# last case cuts M4422's 824 attaining vectors into batches of two, so its
# blocks grow from one batch through many doublings
STAR_ROW_DIGESTS = {
    "M3322": (lambda: (make_mnn22(3), pr_box()), None,
              "f57c66c5a9e90ac6d648208e824a000c5b63a77ddd014d2f7d1293144c10907b"),
    "M4422": (lambda: (make_mnn22(4), pr_machine(3)), None,
              "362be48d0fa5dfef5f097fb8ab51196f070378dea1b8c1049492ecd4f1d36fa1"),
    "M5522": (lambda: (make_mnn22(5), pr_machine(4)), None,
              "ac74d6ed5ab03c0474c910d17395e40f2157bbd20ca9ab972fb8beeeb1b53f6c"),
    "M4422-relabeled": (lambda: (transform(make_mnn22(4), random_element(4, random.Random(1))), pr_machine(3)), None,
                        "d85c97bae57d9e9ce2a252948436f99c61a4c6494ffdde43ab8ecf2a785fedc9"),
    "I3322-relabeled": (lambda: (transform(make_inn22(3), random_element(3, random.Random(2))), pr_box()), None,
                        "c4f8942c063811ccac5dbdc8d77ac0b983de0242ba68a84fa0040ce82632db8f"),
    "I4422-local": (lambda: (make_inn22(4), None), None,
                    "17025c7b5e6387d15107467e6df4f3cfd1e22dcdddf1098e666b6239429bd65c"),
    "CHSH3-local": (lambda: (make_chsh(3), None), None,
                    "3f4cd179e6d9454fb6394692a4d20ecc8e0202aa170b09c0583edc4413543f26"),
    "M4422-batch-64": (lambda: (make_mnn22(4), pr_machine(3)), 64,
                       "69230f285f189dc17628499ebf6606f2b49efce4583858011f702209ff20b981"),
}


@pytest.mark.parametrize("case", sorted(STAR_ROW_DIGESTS))
def test_star_rows_are_pinned(monkeypatch, case):
    build, batch, digest = STAR_ROW_DIGESTS[case]
    if batch is not None:
        monkeypatch.setattr(strategies, "STREAM_BATCH", batch)
    f, machine = build()
    blocks = list(DecoupledMax(f, machine).star_rows())
    assert all(block.dtype == np.int8 for block in blocks)
    rows = np.concatenate(blocks)
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert hashlib.sha256(b"".join(block.tobytes() for block in blocks)).hexdigest() == digest


@pytest.mark.parametrize("chunk, count", [(CHUNK_VECTORS, 9), (8, 105)])
def test_star_blocks_double_from_one_batch(monkeypatch, chunk, count):
    # M4422's 824 attaining vectors in batches of two: blocks of 2, 4, 8, ...
    # vectors, up to 4,096 (9 blocks) or, with 8-vector chunks, 2, 4, then 8s
    monkeypatch.setattr(strategies, "STREAM_BATCH", 64)
    monkeypatch.setattr(strategies, "CHUNK_VECTORS", chunk)
    state = DecoupledMax(make_mnn22(4), pr_machine(3))
    assert len(state.avec) == 824
    assert len(list(state.star_rows())) == count


@pytest.mark.parametrize("case", sorted(STAR_ROW_DIGESTS))
def test_star_rows_are_the_star_set(monkeypatch, case):
    # per attaining Alice vector: the base row (Bob's first optimal option in
    # every setting) and each row that moves one setting to another optimal option
    build, batch, _ = STAR_ROW_DIGESTS[case]
    if batch is not None:
        monkeypatch.setattr(strategies, "STREAM_BATCH", batch)
    f, machine = build()
    state = DecoupledMax(f, machine)
    expected = set()
    for alice, optimal in zip(state.avec.tolist(), option_bits(state).tolist()):
        base = [options.index(True) for options in optimal]
        bobs = [base] + [
            base[:j] + [c] + base[j + 1 :]
            for j, options in enumerate(optimal)
            for c in range(state.a)
            if options[c] and c != base[j]
        ]
        expected.update(row.tobytes() for row in half_rows(machine, alice, bobs))
    rows = np.concatenate(list(state.star_rows()))
    streamed = [row.tobytes() for row in rows]
    assert len(set(streamed)) == len(streamed)
    assert set(streamed) == expected


@pytest.mark.parametrize("chunk", [CHUNK_VECTORS, 6])
def test_max_min_matches_the_exhaustive_table(monkeypatch, chunk):
    monkeypatch.setattr(strategies, "CHUNK_VECTORS", chunk)
    machine = pr_box()
    matrix = one_machine_half_matrix(3, machine)
    rng = random.Random(7)
    loose = 0
    for _ in range(6):
        f, g = random_functional(rng), random_functional(rng)
        vals2 = doubled_values(matrix, [f, g])
        exhaustive = int(np.minimum(vals2[:, 0], vals2[:, 1]).max())
        # the (f + g) / 2 bound is not attained, so the Pareto sweep decides
        loose += exhaustive < int((vals2.sum(axis=1) // 2).max())
        assert max_min_over_one_machine(f, g, machine) == Fraction(exhaustive, 2)
    assert loose >= 2
