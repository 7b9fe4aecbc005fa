import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bellbox import polytope
from bellbox.behavior import (
    BehaviorPoint,
    Scenario,
    cell_probabilities,
    convex_combine,
    to_half_units,
    to_json_dict,
    validate,
)
from bellbox.functionals import BellFunctional, make_c1, make_c2, make_chsh, make_inn22, make_mnn22
from bellbox.machines import machine_behavior, pr_box, pr_machine
from bellbox.polytope import (
    LEMMA_BLOCK,
    IntRowBasis,
    affine_rank_halves,
    check_lemma1,
    classify_vertex_n3,
    deterministic_saturators_mnn22,
    doubled_values,
    draw_below,
    draw_bits,
    enumerate_nonlocal_vertices,
    enumerate_ns_vertices_n3,
    half_integral_candidates,
    lemma1_identities,
    membership_by_facets,
    nonlocal_vertex_mask,
    nontrivial_facets_n3,
    ns_vertex_rows,
    one_machine_half_matrix,
    verify_facet,
    violation_census,
)
from bellbox.strategies import deterministic_point, enumerate_local, strategy_behavior

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Exact rank machinery


def test_row_basis_counts_independent_rows():
    basis = IntRowBasis()
    assert basis.add_rows([[1, 1, 0]])
    assert basis.add_rows([[0, 1, 1]])
    assert not basis.add_rows([[1, 2, 1]])
    assert basis.add_rows([[0, 0, 7]])
    assert basis.rank == 3


def test_row_basis_handles_interleaved_pivots():
    basis = IntRowBasis()
    assert basis.add_rows([[0, 1, 1]])
    assert basis.add_rows([[1, 1, 0]])
    assert not basis.add_rows([[1, 0, -1]])


def test_affine_rank_of_collinear_points_is_one():
    assert affine_rank_halves([[0, 0], [1, 1], [2, 2], [3, 3]]) == 1
    assert affine_rank_halves([[0, 0], [1, 0], [0, 1]]) == 2
    assert affine_rank_halves([]) == 0


def fraction_profile(rows) -> list:
    """Indices of the rows that raise the rank of the rows before them, by Fraction elimination."""
    reduced, pivots, independent = [], [], []
    for index, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for b, p in zip(reduced, pivots):
            if v[p]:
                factor = v[p] / b[p]
                v = [x - factor * y for x, y in zip(v, b)]
        if any(v):
            reduced.append(v)
            pivots.append(next(k for k, x in enumerate(v) if x))
            independent.append(index)
    return independent


def planted_rows(rng, d: int, rank: int, scale: int) -> list:
    """Integer rows of dimension d spanning `rank` dimensions, dependent rows interleaved."""
    rows = []
    for _ in range(rank):
        if rows:
            for _ in range(rng.randrange(3)):  # combinations of the rows so far
                weights = [rng.randint(-2, 2) for _ in rows]
                rows.append([sum(w * r[k] for w, r in zip(weights, rows)) for k in range(d)])
        rows.append([rng.randint(-scale, scale) for _ in range(d)])
    rows.append([0] * d)
    rows.append(list(rows[0]))
    return rows


def test_complement_basis_matches_fraction_elimination():
    rng = random.Random(2026)
    for _ in range(40):
        d = rng.randint(2, 9)
        rows = planted_rows(rng, d, rng.randint(1, d), 3)
        expected = fraction_profile(rows)
        basis = IntRowBasis()
        assert basis.add_rows(rows) == expected
        assert basis.rank == len(expected)
        assert basis.complement.dtype == np.int64
        # the same rows one at a time, and in two blocks
        single = IntRowBasis()
        assert [i for i, row in enumerate(rows) if single.add_rows([row])] == expected
        split = IntRowBasis()
        cut = len(rows) // 2
        added = split.add_rows(rows[:cut]) + [cut + i for i in split.add_rows(np.array(rows[cut:]))]
        assert added == expected
        # K v = 0 exactly on the row space
        assert not (np.array(rows, dtype=np.int64) @ basis.complement.T).any()


def test_complement_basis_switches_to_python_ints_before_int64_overflows():
    rng = random.Random(5)
    # entries near 2^40: a product against the complement, or a fold of two
    # of them, could pass 2^63, so the guard must move to exact Python ints
    rows = planted_rows(rng, 7, 5, 2**40)
    basis = IntRowBasis()
    assert basis.add_rows(rows) == fraction_profile(rows)
    # the complement is exact: orthogonal to every row in Python ints
    complement = basis.complement.tolist()
    assert len(complement) == 2
    assert all(sum(a * b for a, b in zip(k, row)) == 0 for k in complement for row in rows)
    assert basis.complement.dtype == object
    assert affine_rank_halves(rows) == len(fraction_profile([[x - y for x, y in zip(r, rows[0])] for r in rows[1:]]))
    # entries past int64 arrive as Python ints
    huge = [[3**50, 1, 0], [2 * 3**50, 2, 0], [0, 0, 2**70]]
    basis = IntRowBasis()
    assert basis.add_rows(huge) == [0, 2]
    assert basis.rank == 2 and basis.complement.dtype == object


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


def saturating_behaviors_n3():
    """Distinct one-PR-box behaviors with M3322 = 0, by exhaustive evaluation."""
    rows = one_machine_half_matrix(3, pr_box())
    on_facet = rows[doubled_values(rows, [make_mnn22(3)])[:, 0] == 0]
    return np.unique(on_facet, axis=0)


def test_machine_resistant_inequality_is_a_one_box_facet():
    cert = verify_facet(make_mnn22(3), pr_box())
    assert cert.max_value == 0
    assert cert.affine_rank == 14
    assert (cert.n_saturating, cert.n_deterministic) == (524, 8)
    distinct = saturating_behaviors_n3()
    deterministic = np.isin(distinct[:, :6], (0, 2)).all(axis=1)
    assert (len(distinct), int(deterministic.sum())) == (65, 8)
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


def test_machine_resistant_certificates_are_exact():
    # exact counts of saturating and deterministic saturating strategies
    assert certificate_fields(verify_facet(make_mnn22(3), pr_box())) == (524, 8, 14, False)
    assert certificate_fields(verify_facet(make_mnn22(4), pr_machine(3))) == (10936, 16, 23, False)
    assert certificate_fields(verify_facet(make_mnn22(5), pr_machine(4))) == (385576, 32, 34, False)
    # the cap counts distinct behaviors; the star order reaches rank 34 at the 269th
    reached = verify_facet(make_mnn22(5), pr_machine(4), max_strategies=269)
    assert certificate_fields(reached) == (385576, 32, 34, False)
    assert len(reached.saturating_points) == 269
    capped = verify_facet(make_mnn22(5), pr_machine(4), max_strategies=268)
    assert certificate_fields(capped) == (385576, 32, 33, True)
    assert certificate_fields(verify_facet(make_mnn22(3), pr_box(), max_strategies=2)) == (524, 8, 1, True)


def test_zero_functional_spans_the_full_dimension():
    # with no nonzero coefficient the saturating set need not lie in a
    # hyperplane, so the rank runs past N(N+2)-1 and the certificate fails
    scenario = Scenario(5)
    zero = BellFunctional(scenario, (0,) * 5, (0,) * 5, ((0,) * 5,) * 5, 0)
    cert = verify_facet(zero, pr_machine(4))
    assert cert.max_value == 0
    assert (cert.affine_rank, cert.truncated, cert.accepted) == (35, False, False)
    assert cert.n_saturating == 10**10


def test_locally_violated_functional_has_no_saturating_set():
    chsh = make_chsh(2)
    shifted = BellFunctional(chsh.scenario, chsh.alice, chsh.bob, chsh.joint, 1)
    cert = verify_facet(shifted, "local")
    assert cert.max_value == 1
    assert (cert.n_saturating, cert.affine_rank, cert.saturating_points) == (0, 0, ())
    assert shifted.evaluate(strategy_behavior(cert.witness)) == 1
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


def test_classify_vertex_n3_refuses_every_candidate_that_is_not_a_vertex():
    rows = half_integral_candidates(3)
    others = rows[~nonlocal_vertex_mask(rows, 3)].tolist()
    assert len(others) == 1936
    for row in others:
        with pytest.raises(ValueError, match="not a non-local vertex"):
            classify_vertex_n3(row)


def test_class_counts_of_the_three_setting_vertices():
    counts = Counter(classify_vertex_n3(row) for row in ns_vertex_rows(3).tolist())
    assert counts == {"S1": 192, "S2": 288, "S3": 576, "S4": 288}


def test_classify_vertex_n3_refuses_a_row_of_the_wrong_length():
    with pytest.raises(ValueError, match="got 8"):
        classify_vertex_n3([1] * 8)
    with pytest.raises(ValueError, match="got 16"):
        classify_vertex_n3([1] * 16)


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


def test_empty_functional_lists_select_nothing(labeled_vertices):
    assert doubled_values(ns_vertex_rows(3), []).shape == (1344, 0)
    assert enumerate_ns_vertices_n3([]) == []
    assert enumerate_nonlocal_vertices(2, pr_box(), []) == []
    result = violation_census(labeled_vertices, [], [])
    assert result.total == 1344
    assert all((st.chsh_violations, st.i3322_violations) == (0, 0) for st in result.classes.values())
    nothing = violation_census([], [], [])
    assert (nothing.total, nothing.classes) == (0, {})


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


def _tight_cell_rank(halves, n: int) -> int:
    """Exact rank of the cells P(r_A r_B | A_i, B_j) that vanish at a half-unit point."""
    basis = IntRowBasis()
    for i in range(n):
        for j in range(n):
            a, b, c = halves[i], halves[n + j], halves[2 * n + i * n + j]
            for ca, cb, cc, k in CELL_TERMS.values():
                if ca * a + cb * b + cc * c + 2 * k == 0:
                    vec = [0] * (n * (n + 2))
                    vec[i], vec[n + j], vec[2 * n + i * n + j] = ca, cb, cc
                    basis.add_rows([vec])
                    if basis.rank == n * (n + 2):
                        return basis.rank
    return basis.rank


def _agrees_with_the_tight_cell_rank(rows, mask, n: int) -> Counter:
    kinds = Counter()
    for row, nonlocal_vertex in zip(rows.tolist(), mask.tolist()):
        vertex = _tight_cell_rank(row, n) == n * (n + 2)
        deterministic = 1 not in row[: 2 * n]
        assert nonlocal_vertex == (vertex and not deterministic), row
        kinds[vertex, deterministic] += 1
    return kinds


def test_parity_test_is_the_tight_cell_rank():
    for n, local, nonlocal_count, others in ((2, 16, 8, 112), (3, 64, 1344, 1872)):
        rows = half_integral_candidates(n)
        kinds = _agrees_with_the_tight_cell_rank(rows, nonlocal_vertex_mask(rows, n), n)
        assert kinds == {(True, True): local, (True, False): nonlocal_count, (False, False): others}
    rows = half_integral_candidates(4)
    sample = rows[sorted(random.Random(4).sample(range(len(rows)), 3000))]
    kinds = _agrees_with_the_tight_cell_rank(sample, nonlocal_vertex_mask(sample, 4), 4)
    assert kinds[True, False] and kinds[False, False]


def _count_by_half_settings(n: int, patterns) -> int:
    """Sum over k_A, k_B half settings of the marginal choices times `patterns(k_A, k_B)`."""
    return sum(
        comb(n, ka) * 2 ** (n - ka) * comb(n, kb) * 2 ** (n - kb) * patterns(ka, kb)
        for ka in range(n + 1)
        for kb in range(n + 1)
    )


def test_vertex_counts_follow_the_closed_form():
    # a half block carries 2^(kA kB) joint patterns, 2^(kA+kB-1) of them u_i xor v_j
    for n, candidates, vertices in ((2, 136, 8), (3, 3280, 1344), (4, 225568, 194432)):
        rows = half_integral_candidates(n)
        assert len(rows) == candidates == _count_by_half_settings(n, lambda ka, kb: 2 ** (ka * kb))
        assert len(ns_vertex_rows(n)) == vertices == _count_by_half_settings(
            n, lambda ka, kb: (2 ** (ka * kb) - 2 ** (ka + kb - 1)) if min(ka, kb) >= 2 else 0
        )
        rows = rows.astype(np.int64)
        keys = rows @ (3 ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64))
        assert (np.diff(keys) > 0).all()
        a, b, c = rows[:, :n, None], rows[:, None, n : 2 * n], rows[:, 2 * n :].reshape(-1, n, n)
        assert ((c >= 0) & (a - c >= 0) & (b - c >= 0) & (2 - a - b + c >= 0)).all()
    for n in (1, 5):
        with pytest.raises(ValueError):
            ns_vertex_rows(n)


def test_vertices_are_the_one_box_rows_that_violate_a_facet():
    facets = nontrivial_facets_n3()
    rows = [tuple(r) for r in ns_vertex_rows(3).tolist()]
    assert rows == enumerate_nonlocal_vertices(3, pr_machine(3), facets)
    assert enumerate_ns_vertices_n3() == enumerate_ns_vertices_n3(facets)
    assert len(enumerate_ns_vertices_n3(facets[:72])) < 1344


def test_vertex_enumeration_builds_no_strategy_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the one-box table was built")

    monkeypatch.setattr(polytope, "one_machine_half_matrix", refuse)
    labeled = enumerate_ns_vertices_n3()
    assert Counter(label for _, label in labeled) == {"S1": 192, "S2": 288, "S3": 576, "S4": 288}


def test_two_setting_vertex_census(chsh2_orbit):
    rows = enumerate_nonlocal_vertices(2, pr_box(), chsh2_orbit)
    assert len(rows) == 8
    assert len(enumerate_local(Scenario(2))) + len(rows) == 24


def test_vertex_rows_are_distinct_and_sorted_and_keys_are_bounded(chsh2_orbit):
    rows = enumerate_nonlocal_vertices(2, pr_box(), chsh2_orbit)
    assert rows == sorted(set(rows))
    # base-3 row keys of n(n+2) digits overflow int64 past five settings
    with pytest.raises(ValueError):
        enumerate_nonlocal_vertices(6, pr_box(), chsh2_orbit)


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


def test_word_draws_are_bits_and_uniform_below_their_widths():
    for seed in (0, 7, 123):
        bits = draw_bits(random.Random(seed), 1000)
        assert bits.shape == (1000,) and set(bits.tolist()) == {0, 1}
        assert (draw_bits(random.Random(seed), 1000) == bits).all()
        for w in (1, 2, 3, 1024, 4096):
            draws = draw_below(random.Random(seed), np.full(2000, w))
            assert draws.min() >= 0 and draws.max() < w
            assert (draw_below(random.Random(seed), np.full(2000, w)) == draws).all()
            if w <= 3:
                assert set(draws.tolist()) == set(range(w))


def test_lemma_check_of_no_samples_is_refused():
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_lemma1(3, samples=samples)
    for samples, seed in ((True, 0), (10, None), (10, "abc"), (10, 1.5)):
        with pytest.raises(ValueError, match="is not an integer"):
            check_lemma1(3, samples=samples, seed=seed)


def _negated(f):
    return BellFunctional(
        f.scenario,
        tuple(-x for x in f.alice),
        tuple(-x for x in f.bob),
        tuple(tuple(-x for x in row) for row in f.joint),
        -f.constant,
    )


# sha256 of the sampled points' JSON, recorded with the block sampler that
# reads every draw from 32-bit words of random.Random(seed).getrandbits
LEMMA_DRAW_DIGESTS = {
    (3, 0): "63f8c924f93e6c3e8fb49229e6926f03d0043ecdd3e8b1eef0285d1d55853a33",
    (3, 7): "5ddb5fb33c3127bd2d2fddd00161331af5c88217e3a4499f7a655b3f47ffd30f",
    (4, 0): "d78d515f547644fd13047b6338ecff39a5d84bbb4a945b47d67aa28a3649d2f4",
    (4, 7): "a4ae3154c3ffb55f869a82b0fed5b350c540bf37acaf08596c2280a1d56bbef7",
    (5, 0): "a05dc3536a694d7d48e59a82e774e5374776d643e96ed606da09f5c2a686d3c3",
    (5, 7): "ca05c074288248f4358cfbb62842f780a425eb7bf99a604edb7e429a496ea312",
}


@pytest.mark.parametrize("n, seed", sorted(LEMMA_DRAW_DIGESTS))
def test_lemma_sampler_draws_are_pinned(monkeypatch, n, seed):
    # with C1 negated every sample is a counterexample, so the report holds
    # every sampled point and any change to the draws shows in its digest
    monkeypatch.setattr(polytope, "make_c1", lambda k: _negated(make_c1(k)))
    report = check_lemma1(n, samples=300, seed=seed, raise_on_counterexample=False)
    assert report.checked == len(report.counterexamples) == 300
    doc = json.dumps([to_json_dict(p) for p in report.counterexamples], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == LEMMA_DRAW_DIGESTS[n, seed]
    m, negated_c1 = make_mnn22(n), _negated(make_c1(n))
    for point in report.counterexamples:
        assert m.evaluate(point) > 0
        assert negated_c1.evaluate(point) <= 0


def test_lemma_sampler_reports_every_sample_across_a_block_boundary(monkeypatch):
    monkeypatch.setattr(polytope, "make_c1", lambda k: _negated(make_c1(k)))
    report = check_lemma1(3, samples=LEMMA_BLOCK + 1, seed=3, raise_on_counterexample=False)
    assert report.checked == len(report.counterexamples) == LEMMA_BLOCK + 1
    m = make_mnn22(3)
    for point in report.counterexamples:
        assert validate(point) == []
        assert m.evaluate(point) > 0


# (alice, bob, joint, constant) coefficients of P(r_A r_B | A_i, B_j), as in cell_probabilities
CELL_TERMS = {(0, 0): (0, 0, 1, 0), (0, 1): (1, 0, -1, 0), (1, 0): (0, 1, -1, 0), (1, 1): (-1, -1, 1, 1)}


def _cell_vector(n: int, cells) -> list:
    """Integer coefficient vector (coords, then constant) of a sum of cell probabilities."""
    vec = [0] * (n * (n + 2) + 1)
    for i, j, ra, rb in cells:
        for k, c in zip((i, n + j, 2 * n + i * n + j, -1), CELL_TERMS[ra, rb]):
            vec[k] += c
    return vec


def test_lemma1_identities_hold_coefficient_by_coefficient():
    for n in range(3, 13):
        m = make_mnn22(n).coefficient_vector()
        cells1, cells2 = lemma1_identities(n)
        assert len(cells1) == len(cells2) == n + 1
        for relaxation, cells in ((make_c1(n), cells1), (make_c2(n), cells2)):
            assert all(0 <= i < n and 0 <= j < n for i, j, _, _ in cells)
            diff = [x - y for x, y in zip(relaxation.coefficient_vector(), m)]
            assert diff == _cell_vector(n, cells)
            if n <= 5:
                rng = random.Random(n)
                corner = deterministic_point(
                    Scenario(n), [rng.randrange(2) for _ in range(n)], [rng.randrange(2) for _ in range(n)]
                )
                point = convex_combine([machine_behavior(pr_machine(n)), corner], [Fraction(2, 3), Fraction(1, 3)])
                cell_sum = sum(cell_probabilities(point, i, j)[2 * ra + rb] for i, j, ra, rb in cells)
                assert relaxation.evaluate(point) - make_mnn22(n).evaluate(point) == cell_sum
    with pytest.raises(ValueError):
        lemma1_identities(2)


def test_box_point_beats_all_three_bounds():
    for n in (3, 4, 5):
        prn = machine_behavior(pr_machine(n))
        assert make_mnn22(n).evaluate(prn) == HALF
        assert make_c1(n).evaluate(prn) == HALF
        assert make_c2(n).evaluate(prn) == HALF


def test_local_vertices_stay_below_the_strengthened_bound():
    m = make_mnn22(3)
    assert all(m.evaluate(p) <= 0 for p in enumerate_local(Scenario(3)))
