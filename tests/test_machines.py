from fractions import Fraction

import pytest

from bellbox.behavior import Scenario, convex_combine, validate
from bellbox.functionals import BellFunctional, SymmetryElement, make_chsh, make_mnn22
from bellbox.machines import (
    MachineSpec,
    WiringTable,
    gf2_rank,
    machine_behavior,
    machine_from_json_dict,
    machine_to_json_dict,
    make_prn_wiring,
    parity_matrix,
    pr3_formula_check,
    pr_box,
    pr_machine,
    recipe,
    wire_pr_boxes,
    wiring_from_json_dict,
    wiring_to_json_dict,
)
from bellbox.strategies import deterministic_point

HALF = Fraction(1, 2)

# the two-box strategy tables routing each ternary input into a pair of PR-boxes
TWO_BOX_ALICE = ((0, 0), (0, 1), (1, 0))
TWO_BOX_BOB = ((0, 0), (1, 0), (0, 1))


def test_recipe_of_chsh_is_the_pr_box():
    m = recipe(make_chsh(2))
    assert m == pr_box()
    assert machine_behavior(m).joint == ((HALF, HALF), (HALF, 0))


def test_recipe_of_the_three_setting_family():
    m = pr_machine(3)
    assert sorted(m.anticorrelated) == [(1, 2), (2, 1)]
    point = machine_behavior(m)
    assert point.alice == (HALF,) * 3
    assert point.joint == (
        (HALF, HALF, HALF),
        (HALF, HALF, 0),
        (HALF, 0, HALF),
    )


def test_recipe_reads_minus_one_positions_at_four_settings():
    assert sorted(pr_machine(4).anticorrelated) == [(1, 3), (2, 2), (3, 1)]


def test_recipe_accepts_the_strengthened_family():
    assert recipe(make_mnn22(4)) == pr_machine(4)


def test_recipe_rejects_large_coefficients():
    f = BellFunctional(Scenario(2), (0, 0), (0, 0), ((2, 0), (0, 0)))
    with pytest.raises(ValueError):
        recipe(f)


def test_fully_correlated_machine_is_a_local_mixture():
    m = MachineSpec(2, frozenset())
    point = machine_behavior(m)
    scen = Scenario(2)
    l0 = deterministic_point(scen, (0, 0), (0, 0))
    l1 = deterministic_point(scen, (1, 1), (1, 1))
    assert point == convex_combine([l0, l1], [HALF, HALF])
    assert make_chsh(2).evaluate(point) <= 0


def test_machine_behaviors_are_valid_with_uniform_marginals():
    for n in range(2, 7):
        point = machine_behavior(pr_machine(n))
        assert validate(point) == []
        assert set(point.alice) == {HALF} and set(point.bob) == {HALF}


def test_pr3_formula_check():
    assert pr3_formula_check(pr_machine(3)) is True
    assert pr3_formula_check(MachineSpec(3, frozenset({(1, 1)}))) is False
    with pytest.raises(ValueError):
        pr3_formula_check(pr_box())


def test_unequal_inputs_machine_fails_formula_but_is_flip_equivalent():
    diagonal = MachineSpec(3, frozenset({(x, y) for x in range(3) for y in range(3) if x != y}))
    assert pr3_formula_check(diagonal) is False
    flip = SymmetryElement((0, 1, 2), (0, 1, 2), (1, 0, 0), (1, 0, 0), False)
    assert flip.apply_to_point(machine_behavior(diagonal)) == machine_behavior(
        pr_machine(3)
    )


def test_two_box_wiring_parity_matches_the_three_input_machine():
    w = WiringTable(TWO_BOX_ALICE, TWO_BOX_BOB)
    assert parity_matrix(w) == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    assert wire_pr_boxes(w) == pr_machine(3)


def test_single_box_identity_wiring_is_the_pr_box():
    w = WiringTable(((0,), (1,)), ((0,), (1,)))
    assert wire_pr_boxes(w) == pr_box()


def test_wiring_shape_mismatch_errors():
    with pytest.raises(ValueError):
        WiringTable(((0, 0), (1, 0)), ((0,), (1,)))
    with pytest.raises(ValueError):
        WiringTable(((0,), (1,)), ((0,), (1,), (0,)))


def test_standard_wiring_reproduces_every_machine_with_minimal_boxes():
    assert make_prn_wiring(3).alice == TWO_BOX_ALICE
    assert make_prn_wiring(3).bob == TWO_BOX_BOB
    for n in range(2, 7):
        w = make_prn_wiring(n)
        assert w.n_boxes == n - 1
        assert wire_pr_boxes(w) == pr_machine(n)


def test_five_input_wiring_parity_pattern():
    p = parity_matrix(make_prn_wiring(5))
    ones = {(x, y) for x in range(5) for y in range(5) if p[x][y]}
    assert ones == {(4, 1), (3, 2), (2, 3), (1, 4)}


def test_anticorrelation_pattern_rank_matches_box_count():
    for n in range(2, 7):
        m = pr_machine(n)
        pattern = [
            [1 if m.anticorrelates(x, y) else 0 for y in range(n)] for x in range(n)
        ]
        assert gf2_rank(pattern) == n - 1


def test_machine_json_roundtrip():
    m = pr_machine(4)
    assert machine_from_json_dict(machine_to_json_dict(m)) == m
    w = make_prn_wiring(4)
    assert wiring_from_json_dict(wiring_to_json_dict(w)) == w


def test_non_integral_machine_and_wiring_entries_are_rejected_not_truncated():
    with pytest.raises(ValueError):
        MachineSpec(3.5, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        MachineSpec(3, frozenset({(1.7, 1)}))
    with pytest.raises(ValueError):
        WiringTable(((0.5,), (1,)), ((0,), (1,)))
    assert MachineSpec(3.0, [(1.0, 2)]) == MachineSpec(3, frozenset({(1, 2)}))
    for bad in ({"n_inputs": 3, "anticorrelated": 5}, [3, []], {"n_inputs": 3, "anticorrelated": [[1]]}):
        with pytest.raises(ValueError):
            machine_from_json_dict(bad)
    for bad in ({"alice": 5, "bob": [[0]]}, [[[0]], [[1]]]):
        with pytest.raises(ValueError):
            wiring_from_json_dict(bad)
