import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bellbox.behavior import BehaviorPoint, Scenario, convex_combine, to_half_units, validate
from bellbox.functionals import BellFunctional, make_c1, make_c2, make_chsh, make_inn22, make_mnn22
from bellbox.machines import machine_behavior, pr_box, pr_machine
from bellbox.polytope import (
    IntRowBasis,
    affine_rank_halves,
    check_lemma1,
    classify_vertex_n3,
    deterministic_saturators_mnn22,
    doubled_values,
    enumerate_nonlocal_vertices,
    enumerate_ns_vertices_n3,
    exact_affine_rank,
    membership_by_facets,
    verify_facet,
    violation_census,
)
from bellbox.strategies import deterministic_point, enumerate_local

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Exact rank machinery


def test_row_basis_counts_independent_rows():
    basis = IntRowBasis()
    assert basis.add([1, 1, 0])
    assert basis.add([0, 1, 1])
    assert not basis.add([1, 2, 1])
    assert basis.add([0, 0, 7])
    assert basis.rank == 3


def test_row_basis_handles_interleaved_pivots():
    basis = IntRowBasis()
    assert basis.add([0, 1, 1])
    assert basis.add([1, 1, 0])
    assert not basis.add([1, 0, -1])


def test_affine_rank_of_collinear_points_is_one():
    assert affine_rank_halves([[0, 0], [1, 1], [2, 2], [3, 3]]) == 1
    assert affine_rank_halves([[0, 0], [1, 0], [0, 1]]) == 2
    assert affine_rank_halves([]) == 0


def test_exact_affine_rank_on_behaviors():
    scen = Scenario(2)
    a = deterministic_point(scen, (0, 0), (0, 0))
    b = deterministic_point(scen, (1, 1), (1, 1))
    mid = convex_combine([a, b], [HALF, HALF])
    third = convex_combine([a, b], [Fraction(1, 3), Fraction(2, 3)])
    assert exact_affine_rank([a, b, mid, third]) == 1


# ---------------------------------------------------------------------------
# Facet certificates


def test_chsh_is_a_local_facet_at_two_settings():
    cert = verify_facet(make_chsh(2), "local")
    assert cert.max_value == 0
    assert cert.affine_rank == 7
    assert cert.accepted


def test_lifted_chsh_stays_a_local_facet():
    cert = verify_facet(make_chsh(3), "local")
    assert cert.accepted and cert.affine_rank == 14


def test_machine_resistant_inequality_is_a_one_box_facet():
    cert = verify_facet(make_mnn22(3), pr_box())
    assert cert.max_value == 0
    assert cert.affine_rank == 14
    assert cert.n_deterministic >= 8
    assert cert.n_saturating - cert.n_deterministic >= 57
    assert cert.accepted
    assert not cert.truncated
    for p in cert.saturating_points[:10]:
        assert make_mnn22(3).evaluate(p) == 0
        assert validate(p) == []


def test_four_setting_certificate_against_the_three_input_box():
    cert = verify_facet(make_mnn22(4), pr_machine(3))
    assert cert.max_value == 0
    assert cert.affine_rank == 4 * 6 - 1
    assert cert.accepted


def test_tight_family_members_are_local_facets():
    for n in (4, 5):
        assert verify_facet(make_inn22(n), "local").accepted
        assert verify_facet(make_chsh(n), "local").accepted


def test_strengthened_family_is_tight_but_not_a_local_facet():
    for n in (3, 4):
        cert = verify_facet(make_mnn22(n), "local")
        assert cert.max_value == 0
        assert cert.affine_rank < n * (n + 2) - 1
        assert not cert.accepted


def test_rejected_certificate_carries_a_violating_witness():
    from bellbox.strategies import strategy_behavior

    cert = verify_facet(make_inn22(3), pr_machine(3))
    assert cert.max_value == 1
    assert not cert.accepted
    assert make_inn22(3).evaluate(strategy_behavior(cert.witness)) == 1


def test_strategy_class_argument_is_checked():
    with pytest.raises(ValueError):
        verify_facet(make_chsh(2), "nonsense")
    with pytest.raises(ValueError):
        verify_facet(make_mnn22(3), pr_box(), max_strategies=0)


def certificate_fields(cert):
    return (cert.n_saturating, cert.n_deterministic, cert.affine_rank, cert.truncated)


def test_machine_resistant_certificates_keep_their_stop_points():
    # the n = 5 stream stops at the rank target, so these counts pin where
    assert certificate_fields(verify_facet(make_mnn22(3), pr_box())) == (65, 8, 14, False)
    assert certificate_fields(verify_facet(make_mnn22(4), pr_machine(3))) == (279, 16, 23, False)
    assert certificate_fields(verify_facet(make_mnn22(5), pr_machine(4))) == (1344, 32, 34, True)
    capped = verify_facet(make_mnn22(5), pr_machine(4), max_strategies=1000)
    assert certificate_fields(capped) == (40, 8, 6, True)
    # the cap counts strategies, not behaviors: the first two differ
    assert certificate_fields(verify_facet(make_mnn22(3), pr_box(), max_strategies=2)) == (2, 2, 1, True)


def test_locally_violated_functional_has_no_saturating_set():
    chsh = make_chsh(2)
    shifted = BellFunctional(chsh.scenario, chsh.alice, chsh.bob, chsh.joint, 1)
    cert = verify_facet(shifted, "local")
    assert cert.max_value == 1
    assert (cert.n_saturating, cert.affine_rank, cert.saturating_points) == (0, 0, ())
    assert shifted.evaluate(cert.witness) == 1
    assert not cert.accepted


# ---------------------------------------------------------------------------
# Deterministic saturators


def test_saturator_counts_and_values():
    for n in (3, 4, 5, 6):
        sats = deterministic_saturators_mnn22(n)
        assert len(sats) == 2**n
        m = make_mnn22(n)
        for p in sats:
            assert m.evaluate(p) == 0
            assert set(p.coords()) <= {0, 1}


def test_saturators_are_exactly_the_local_zero_set():
    for n in (3, 4, 5, 6):
        m = make_mnn22(n)
        brute = {
            p.coords() for p in enumerate_local(Scenario(n)) if m.evaluate(p) == 0
        }
        assert {p.coords() for p in deterministic_saturators_mnn22(n)} == brute


def test_saturators_require_three_settings():
    with pytest.raises(ValueError):
        deterministic_saturators_mnn22(2)


# ---------------------------------------------------------------------------
# Vertex enumeration and census


@pytest.fixture(scope="module")
def labeled_vertices(chsh3_orbit, i3322_orbit):
    return enumerate_ns_vertices_n3(list(chsh3_orbit) + list(i3322_orbit))


def test_vertex_count_and_classes(labeled_vertices):
    assert len(labeled_vertices) == 1344
    counts = Counter(label for _, label in labeled_vertices)
    assert counts == {"S1": 192, "S2": 288, "S3": 576, "S4": 288}


def test_vertices_are_valid_and_nonlocal(labeled_vertices, chsh3_orbit, i3322_orbit):
    facets = list(chsh3_orbit) + list(i3322_orbit)
    halves = np.asarray([to_half_units(p) for p, _ in labeled_vertices], dtype=np.int64)
    values = doubled_values(halves, facets)
    assert (values > 0).any(axis=1).all()
    for p, _ in labeled_vertices[:50]:
        assert validate(p) == []


def test_two_input_box_embedded_point_is_class_s2(chsh3_orbit, i3322_orbit):
    point = BehaviorPoint(
        Scenario(3),
        (HALF, HALF, 0),
        (0, HALF, HALF),
        ((0, HALF, HALF), (0, HALF, 0), (0, 0, 0)),
    )
    assert classify_vertex_n3(to_half_units(point)) == "S2"
    assert make_chsh(3).evaluate(point) == HALF
    chsh_hits = sum(1 for f in chsh3_orbit if f.evaluate(point) > 0)
    i_hits = sum(1 for f in i3322_orbit if f.evaluate(point) > 0)
    assert (chsh_hits, i_hits) == (1, 8)


def test_violation_census_matches_known_table(labeled_vertices, chsh3_orbit, i3322_orbit):
    result = violation_census(labeled_vertices, chsh3_orbit, i3322_orbit)
    assert result.total == 1344
    table = {
        label: (st.count, st.chsh_violations, st.i3322_violations)
        for label, st in result.classes.items()
    }
    assert table == {
        "S1": (192, 6, 18),
        "S2": (288, 1, 8),
        "S3": (576, 2, 12),
        "S4": (288, 4, 24),
    }
    for label, st in result.classes.items():
        assert classify_vertex_n3(to_half_units(st.representative)) == label


def test_census_rejects_inconsistent_labels(labeled_vertices, chsh3_orbit, i3322_orbit):
    s1 = next(p for p, label in labeled_vertices if label == "S1")
    s2 = next(p for p, label in labeled_vertices if label == "S2")
    with pytest.raises(RuntimeError):
        violation_census([(s1, "X"), (s2, "X")], chsh3_orbit, i3322_orbit)


def test_class_one_members_violate_the_three_setting_family_maximally(
    labeled_vertices, i3322_orbit
):
    halves = np.asarray(
        [to_half_units(p) for p, label in labeled_vertices if label == "S1"],
        dtype=np.int64,
    )
    values = doubled_values(halves, i3322_orbit)
    assert (values.max(axis=1) == 2).all()


def test_two_setting_vertex_census(chsh2_orbit):
    rows = enumerate_nonlocal_vertices(2, pr_box(), chsh2_orbit)
    assert len(rows) == 8
    assert len(enumerate_local(Scenario(2))) + len(rows) == 24


def test_recipe_machine_saturates_the_no_signaling_maximum(
    chsh2_orbit, labeled_vertices
):
    chsh = make_chsh(2)
    vertex_values = [
        chsh.evaluate(p) for p in enumerate_local(Scenario(2))
    ] + [
        Fraction(int(v), 2)
        for v in doubled_values(
            np.asarray(
                enumerate_nonlocal_vertices(2, pr_box(), chsh2_orbit), dtype=np.int64
            ),
            [chsh],
        )[:, 0]
    ]
    assert max(vertex_values) == HALF
    assert chsh.evaluate(machine_behavior(pr_box())) == HALF

    i3 = make_inn22(3)
    values3 = [i3.evaluate(p) for p in enumerate_local(Scenario(3))]
    values3 += [i3.evaluate(p) for p, _ in labeled_vertices]
    assert max(values3) == 1
    assert i3.evaluate(machine_behavior(pr_machine(3))) == 1
    box_point = machine_behavior(pr_machine(3))
    assert any(p == box_point for p, label in labeled_vertices if label == "S1")


# ---------------------------------------------------------------------------
# Membership and the majorization lemma


def test_membership_by_facets(chsh2_orbit, i3322_orbit, chsh3_orbit):
    pr = machine_behavior(pr_box())
    assert membership_by_facets(pr, chsh2_orbit) is False
    rng = random.Random(4)
    scen = Scenario(2)
    locals2 = enumerate_local(scen)
    for _ in range(10):
        pts = rng.sample(locals2, 3)
        w = [Fraction(rng.randrange(1, 5)) for _ in pts]
        s = sum(w)
        mix = convex_combine(pts, [x / s for x in w])
        assert membership_by_facets(mix, chsh2_orbit) is True
    pr3 = machine_behavior(pr_machine(3))
    assert make_inn22(3).evaluate(pr3) == 1
    assert membership_by_facets(pr3, list(chsh3_orbit) + list(i3322_orbit)) is False


def test_lemma_holds_on_seeded_samples():
    for n in (3, 4):
        report = check_lemma1(n, samples=2000, seed=0)
        assert report.checked == 2000
        assert not report.counterexamples


def test_lemma_report_is_reproducible():
    r1 = check_lemma1(3, samples=200, seed=11)
    r2 = check_lemma1(3, samples=200, seed=11)
    assert r1 == r2


def test_box_point_beats_all_three_bounds():
    for n in (3, 4, 5):
        prn = machine_behavior(pr_machine(n))
        assert make_mnn22(n).evaluate(prn) == HALF
        assert make_c1(n).evaluate(prn) == HALF
        assert make_c2(n).evaluate(prn) == HALF


def test_local_vertices_stay_below_the_strengthened_bound():
    m = make_mnn22(3)
    assert all(m.evaluate(p) <= 0 for p in enumerate_local(Scenario(3)))
