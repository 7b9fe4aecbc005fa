import random
from fractions import Fraction

import pytest

from bellbox.behavior import (
    BehaviorPoint,
    InvalidBehaviorError,
    Scenario,
    cell_probabilities,
    compress_full,
    convex_combine,
    from_half_units,
    from_json_dict,
    reconstruct_full,
    to_half_units,
    to_json_dict,
    validate,
)
from bellbox.functionals import make_inn22
from bellbox.machines import machine_behavior, pr_box, pr_machine
from bellbox.strategies import deterministic_point, one_machine_half_matrix

HALF = Fraction(1, 2)


def uniform_point(n):
    return BehaviorPoint(
        Scenario(n),
        (HALF,) * n,
        (HALF,) * n,
        tuple((Fraction(1, 4),) * n for _ in range(n)),
    )


def random_valid_point(rng, n):
    scen = Scenario(n)
    parts = [
        deterministic_point(
            scen,
            [rng.randrange(2) for _ in range(n)],
            [rng.randrange(2) for _ in range(n)],
        )
        for _ in range(3)
    ]
    parts.append(machine_behavior(pr_machine(n)))
    weights = [Fraction(rng.randrange(1, 9)) for _ in parts]
    total = sum(weights)
    return convex_combine(parts, [w / total for w in weights])


def test_scenario_dimension():
    assert Scenario(2).dimension == 8
    assert Scenario(3).dimension == 15
    assert Scenario(6).dimension == 48


def test_scenario_requires_two_settings():
    with pytest.raises(ValueError):
        Scenario(1)


def test_pr_box_point_is_valid():
    assert validate(machine_behavior(pr_box())) == []


def test_all_zero_point_is_valid():
    zero = BehaviorPoint(Scenario(2), (0, 0), (0, 0), ((0, 0), (0, 0)))
    assert validate(zero) == []


def test_corrupted_pr_box_reports_the_broken_cell():
    pr = machine_behavior(pr_box())
    broken = BehaviorPoint(
        pr.scenario, pr.alice, pr.bob, ((Fraction(1), HALF), pr.joint[1])
    )
    report = validate(broken)
    assert (0, 0, 0, 1) in report


def test_dimension_mismatch_is_structural_not_a_validity_report():
    with pytest.raises(ValueError):
        BehaviorPoint(Scenario(2), (0, 0, 0), (0, 0), ((0, 0), (0, 0)))


def test_backends_cannot_mix():
    with pytest.raises(ValueError):
        BehaviorPoint(Scenario(2), (0.5, HALF), (0.5, 0.5), ((0.25,) * 2,) * 2)


def test_reconstruct_pr_box_anticorrelated_pair():
    full = reconstruct_full(machine_behavior(pr_box()))
    assert full[1][1] == ((0, HALF), (HALF, 0))


def test_reconstruct_deterministic_point():
    point = deterministic_point(Scenario(2), (0, 1), (0, 0))
    assert point.alice == (1, 0) and point.bob == (1, 1)
    full = reconstruct_full(point)
    assert full[0][0][0][0] == 1


def test_reconstruct_uniform_point():
    full = reconstruct_full(uniform_point(2))
    quarter = Fraction(1, 4)
    for i in range(2):
        for j in range(2):
            assert full[i][j] == ((quarter, quarter), (quarter, quarter))


def test_reconstruct_rejects_invalid_points():
    bad = BehaviorPoint(Scenario(2), (1, 1), (1, 1), ((0, 0), (0, 0)))
    with pytest.raises(InvalidBehaviorError) as err:
        reconstruct_full(bad)
    assert err.value.violations


def test_cells_normalize_exactly():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(20):
            p = random_valid_point(rng, n)
            for i in range(n):
                for j in range(n):
                    assert sum(cell_probabilities(p, i, j)) == 1


def test_joint_below_both_marginals_on_valid_points():
    rng = random.Random(8)
    for _ in range(30):
        p = random_valid_point(rng, 3)
        for i in range(3):
            for j in range(3):
                assert p.joint[i][j] <= min(p.alice[i], p.bob[j])


def test_reconstruct_compress_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        p = random_valid_point(rng, 3)
        assert compress_full(reconstruct_full(p)) == p


def test_combine_is_idempotent_on_equal_points():
    pr = machine_behavior(pr_box())
    assert convex_combine([pr, pr], [HALF, HALF]) == pr


def test_combine_of_opposite_corners_is_uniform_marginals():
    scen = Scenario(3)
    l0 = deterministic_point(scen, (0, 0, 0), (0, 0, 0))
    l1 = deterministic_point(scen, (1, 1, 1), (1, 1, 1))
    mix = convex_combine([l0, l1], [HALF, HALF])
    assert set(mix.alice) == {HALF} and set(mix.bob) == {HALF}
    assert {v for row in mix.joint for v in row} == {HALF}


def test_combine_commutes_with_evaluation():
    f = make_inn22(3)
    pr3 = machine_behavior(pr_machine(3))
    local = deterministic_point(Scenario(3), (0, 1, 0), (1, 0, 0))
    lam = Fraction(3, 4)
    mixed = convex_combine([pr3, local], [lam, 1 - lam])
    assert f.evaluate(mixed) == lam * f.evaluate(pr3) + (1 - lam) * f.evaluate(local)
    assert f.evaluate(pr3) == 1


def test_combine_rejects_bad_weights():
    pr = machine_behavior(pr_box())
    with pytest.raises(ValueError):
        convex_combine([pr, pr], [HALF, HALF + 1])
    with pytest.raises(ValueError):
        convex_combine([pr, pr], [Fraction(3, 2), Fraction(-1, 2)])


def test_combine_rejects_scenario_mismatch():
    with pytest.raises(ValueError):
        convex_combine(
            [machine_behavior(pr_box()), machine_behavior(pr_machine(3))],
            [HALF, HALF],
        )


def test_json_roundtrip_exact():
    p = machine_behavior(pr_machine(3))
    doc = to_json_dict(p)
    assert doc["backend"] == "exact"
    assert doc["alice"] == ["1/2", "1/2", "1/2"]
    assert from_json_dict(doc) == p


def test_json_roundtrip_float():
    p = BehaviorPoint(Scenario(2), (0.5, 0.5), (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25)))
    doc = to_json_dict(p)
    assert doc["backend"] == "float"
    assert from_json_dict(doc) == p


@pytest.mark.parametrize("key, bad", [
    ("alice", 5),
    ("joint", [0.25, 0.25]),
    ("n", 2.5),  # int() would truncate it to 2
    ("bob", [[0.5], 0.5]),  # float() of a list is a TypeError
    ("alice", [True, 0.5]),  # float() would read it as 1.0
    ("alice", ["0.5", 0.5]),  # float() would parse it
    ("alice", [float("nan"), 0.5]),
    ("alice", [float("inf"), 0.5]),
    ("alice", [10**400, 0.5]),  # past the float range
])
def test_json_shape_errors_are_value_errors(key, bad):
    doc = to_json_dict(BehaviorPoint(Scenario(2), (0.5, 0.5), (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25))))
    doc[key] = bad
    with pytest.raises(ValueError):
        from_json_dict(doc)
    with pytest.raises(ValueError):
        from_json_dict([doc])


def test_a_non_finite_point_is_refused():
    with pytest.raises(ValueError, match="finite"):
        BehaviorPoint(Scenario(2), (float("nan"), 0.5), (0.5, 0.5), ((0.25, 0.25), (0.25, 0.25)))
    with pytest.raises(ValueError, match="finite"):
        BehaviorPoint(Scenario(2), (0.5, 0.5), (0.5, 0.5), ((0.25, 0.25), (0.25, float("inf"))))


def test_float_validation_uses_slack():
    p = BehaviorPoint(
        Scenario(2), (0.5, 0.5), (0.5, 0.5), ((0.25, 0.25), (0.25, -1e-12))
    )
    assert validate(p) == []
    assert validate(p, slack=0) != []


def test_half_units_roundtrip_on_the_one_box_table():
    # the conversion is a function of the row, so each distinct row of the
    # 262,144 stands for all its copies
    scenario = Scenario(3)
    rows = sorted(set(map(tuple, one_machine_half_matrix(3, pr_machine(3)).tolist())))
    assert len(rows) == 3280
    for row in rows:
        point = from_half_units(scenario, row)
        assert to_half_units(point) == row
        assert point.coords() == tuple(Fraction(h, 2) for h in row)
        assert all(type(v) is Fraction for v in point.coords())


def test_half_units_off_the_table_and_off_the_grid():
    scenario = Scenario(2)
    halves = (-1, 3, 0, 1, 2, -1, 3, 4)
    point = from_half_units(scenario, halves)
    assert point.coords() == tuple(Fraction(h, 2) for h in halves)
    assert to_half_units(point) == halves
    assert point == BehaviorPoint.from_coords(scenario, [Fraction(h, 2) for h in halves])
    with pytest.raises(ValueError, match="wrong length"):
        from_half_units(scenario, halves[:-1])
    with pytest.raises(ValueError):
        to_half_units(BehaviorPoint(Scenario(2), (0.5, 0.5), (0.5, 0.5), ((0.5, 0.0), (0.0, 0.5))))
    third = BehaviorPoint(Scenario(2), (HALF, HALF), (HALF, Fraction(1, 3)), ((HALF, 0), (0, 0)))
    with pytest.raises(ValueError):
        to_half_units(third)
