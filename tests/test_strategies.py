import random
from fractions import Fraction

import numpy as np
import pytest

from bellbox.behavior import BehaviorPoint, Scenario, validate
from bellbox.functionals import (
    make_c1,
    make_c2,
    make_chsh,
    make_inn22,
    make_mnn22,
    transform,
    random_element,
)
from bellbox.machines import machine_behavior, pr_box, pr_machine
from bellbox.polytope import doubled_values, one_machine_half_matrix
from bellbox.strategies import (
    OPT_DET0,
    OPT_DET1,
    CapExceededError,
    WiringStrategy,
    alphabet_size,
    deterministic_point,
    enumerate_local,
    enumerate_one_machine,
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
    attained = [
        (s.alice, s.bob)
        for s in enumerate_one_machine(f.scenario, pr_box())
        if f.evaluate(strategy_behavior(s)) == r1.value
    ]
    assert (r1.witness.alice, r1.witness.bob) == min(attained)


def test_saturating_list_hits_the_maximum():
    result = max_over_one_machine(make_mnn22(3), pr_box())
    assert not result.truncated
    assert result.saturating
    rng = random.Random(2)
    sample = rng.sample(list(result.saturating), 25)
    f = make_mnn22(3)
    for s in sample:
        assert f.evaluate(strategy_behavior(s)) == result.value


def test_collect_cap_truncates():
    result = max_over_one_machine(make_mnn22(3), pr_box(), collect_cap=10)
    assert result.truncated
    assert len(result.saturating) == 10


def test_max_min_of_the_paired_relaxations():
    exhaustive = None
    c1, c2 = make_c1(3), make_c2(3)
    for s in enumerate_one_machine(Scenario(3), pr_box()):
        b = strategy_behavior(s)
        key = min(c1.evaluate(b), c2.evaluate(b))
        exhaustive = key if exhaustive is None else max(exhaustive, key)
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


def test_strategy_json_roundtrip():
    s = WiringStrategy(
        pr_machine(3),
        (opt_machine(0), opt_machine(2, flip=True), OPT_DET1),
        (OPT_DET0, opt_machine(1), opt_machine(1, flip=True)),
    )
    doc = strategy_to_json_dict(s)
    assert doc["alice"] == ["0m", "2mf", "1d"]
    assert strategy_from_json_dict(doc) == s
