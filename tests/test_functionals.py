import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from bellbox.behavior import Scenario, convex_combine, validate
from bellbox.functionals import (
    BellFunctional,
    SymmetryElement,
    canonical_form,
    display_rows,
    functional_from_rows,
    group_order,
    make_c1,
    make_c2,
    make_chsh,
    make_inn22,
    make_mnn22,
    orbit,
    random_element,
    transform,
    transform_point,
)
from bellbox.machines import machine_behavior, pr_box, pr_machine
from bellbox.strategies import deterministic_point, enumerate_local

HALF = Fraction(1, 2)


def brute_local_max(f):
    return max(f.evaluate(p) for p in enumerate_local(f.scenario))


def pr_embedded_n3():
    """The two-input box used on settings {0,1} x {1,2}, third arms deterministic."""
    return Scenario(3), (
        (HALF, HALF, 0),
        (0, HALF, HALF),
        ((0, HALF, HALF), (0, HALF, 0), (0, 0, 0)),
    )


# ---------------------------------------------------------------------------
# Tables of the named families


def test_chsh_table():
    assert make_chsh(2) == functional_from_rows((-1, 0), [(-1, 1, 1), (0, 1, -1)])


def test_chsh_lifting_at_three_settings():
    expected = functional_from_rows(
        (-1, 0, 0), [(0, 0, 0, 0), (-1, 1, 1, 0), (0, 1, -1, 0)]
    )
    assert make_chsh(3) == expected


def test_inn22_three_settings_table():
    expected = functional_from_rows(
        (-1, 0, 0), [(-2, 1, 1, 1), (-1, 1, 1, -1), (0, 1, -1, 0)]
    )
    assert make_inn22(3) == expected


def test_inn22_two_settings_is_chsh():
    assert make_inn22(2) == make_chsh(2)


def test_mnn22_table_strengthens_first_alice_marginal():
    m3 = make_mnn22(3)
    i3 = make_inn22(3)
    assert m3.alice == (-2, 0, 0)
    assert (m3.bob, m3.joint) == (i3.bob, i3.joint)
    m4 = make_mnn22(4)
    assert m4.alice == (-3, 0, 0, 0)
    assert (m4.bob, m4.joint) == (make_inn22(4).bob, make_inn22(4).joint)


def test_c1_c2_three_settings_tables():
    assert make_c1(3) == functional_from_rows(
        (-1, 0, 0), [(0, 0, 0, 0), (-1, 1, 1, 0), (0, 1, -1, 0)]
    )
    assert make_c2(3) == functional_from_rows(
        (-1, 0, 0), [(-1, 1, 0, 1), (0, 1, 0, -1), (0, 0, 0, 0)]
    )


def test_family_domain_errors():
    for maker in (make_chsh, make_inn22):
        with pytest.raises(ValueError):
            maker(1)
    for maker in (make_mnn22, make_c1, make_c2):
        with pytest.raises(ValueError):
            maker(2)


def test_display_rows_roundtrip():
    f = make_c2(4)
    assert functional_from_rows(f.alice, display_rows(f)) == f


def test_functional_json_roundtrip():
    from bellbox.functionals import functional_from_json_dict, functional_to_json_dict

    f = make_mnn22(4)
    doc = functional_to_json_dict(f)
    assert doc["alice"] == [-3, 0, 0, 0] and doc["constant"] == 0
    assert functional_from_json_dict(doc) == f


def test_non_integral_coefficients_are_rejected_not_truncated():
    from bellbox.functionals import functional_from_json_dict, functional_to_json_dict

    chsh = make_chsh(2)
    with pytest.raises(ValueError):
        BellFunctional(chsh.scenario, (-1.7, 0), chsh.bob, chsh.joint)
    with pytest.raises(ValueError):
        BellFunctional(chsh.scenario, chsh.alice, chsh.bob, chsh.joint, Fraction(1, 2))
    assert BellFunctional(chsh.scenario, (-1.0, 0), chsh.bob, chsh.joint) == chsh
    doc = functional_to_json_dict(chsh)
    for key, bad in (("n", 2.5), ("constant", 0.5), ("joint", [1, 2]), ("alice", 5)):
        with pytest.raises(ValueError):
            functional_from_json_dict({**doc, key: bad})


# ---------------------------------------------------------------------------
# Evaluation


def test_box_values():
    assert make_chsh(2).evaluate(machine_behavior(pr_box())) == HALF
    assert make_inn22(3).evaluate(machine_behavior(pr_machine(3))) == 1
    assert make_mnn22(3).evaluate(machine_behavior(pr_machine(3))) == HALF


def test_two_input_box_embedded_at_three_settings_reaches_half():
    scen, (alice, bob, joint) = pr_embedded_n3()
    from bellbox.behavior import BehaviorPoint

    point = BehaviorPoint(scen, alice, bob, joint)
    assert validate(point) == []
    assert make_inn22(3).evaluate(point) == HALF


def test_box_value_growth_across_the_family():
    for n in range(2, 7):
        value = make_inn22(n).evaluate(machine_behavior(pr_machine(n)))
        assert value == Fraction(n - 1, 2)


def test_evaluate_rejects_scenario_mismatch():
    with pytest.raises(ValueError):
        make_chsh(2).evaluate(machine_behavior(pr_machine(3)))


def test_generators_are_nonpositive_on_corner_points():
    for n in (3, 4):
        scen = Scenario(n)
        l0 = deterministic_point(scen, (0,) * n, (0,) * n)
        l1 = deterministic_point(scen, (1,) * n, (1,) * n)
        for f in (make_inn22(n), make_mnn22(n), make_c1(n), make_c2(n), make_chsh(n)):
            assert f.evaluate(l0) <= 0
            assert f.evaluate(l1) <= 0


def test_local_maxima_are_zero():
    for n in (2, 3, 4, 5):
        assert brute_local_max(make_inn22(n)) == 0
    for n in (2, 3):
        assert brute_local_max(make_chsh(n)) == 0
    for n in (3, 4, 5):
        assert brute_local_max(make_mnn22(n)) == 0
        assert brute_local_max(make_c1(n)) == 0
        assert brute_local_max(make_c2(n)) == 0


# ---------------------------------------------------------------------------
# Symmetry group


def random_exact_point(rng, n):
    scen = Scenario(n)
    parts = [
        deterministic_point(
            scen,
            [rng.randrange(2) for _ in range(n)],
            [rng.randrange(2) for _ in range(n)],
        )
        for _ in range(2)
    ]
    parts.append(machine_behavior(pr_machine(n)))
    weights = [Fraction(rng.randrange(1, 7)) for _ in parts]
    total = sum(weights)
    return convex_combine(parts, [w / total for w in weights])


def random_functional(rng, n):
    return BellFunctional(
        Scenario(n),
        tuple(rng.randrange(-3, 4) for _ in range(n)),
        tuple(rng.randrange(-3, 4) for _ in range(n)),
        tuple(tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n)),
        rng.randrange(-2, 3),
    )


def test_duality_on_a_thousand_random_triples():
    rng = random.Random(12345)
    for _ in range(1000):
        n = rng.choice((2, 3))
        f = random_functional(rng, n)
        g = random_element(n, rng)
        s = random_exact_point(rng, n)
        assert transform(f, g).evaluate(s) == f.evaluate(
            transform_point(s, g.inverse())
        )


def test_group_axioms_hold():
    rng = random.Random(54321)
    for _ in range(300):
        n = rng.choice((2, 3))
        g = random_element(n, rng)
        h = random_element(n, rng)
        s = random_exact_point(rng, n)
        assert g.compose(h).apply_to_point(s) == g.apply_to_point(h.apply_to_point(s))
        assert g.inverse().apply_to_point(g.apply_to_point(s)) == s
        ident = SymmetryElement.identity(n)
        assert ident.apply_to_point(s) == s


def test_transforms_preserve_validity():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.choice((2, 3))
        s = random_exact_point(rng, n)
        g = random_element(n, rng)
        assert validate(g.apply_to_point(s)) == []


def test_identity_leaves_functionals_alone():
    f = make_inn22(3)
    assert transform(f, SymmetryElement.identity(3)) == f


def test_first_setting_flips_diagonalize_the_three_input_box():
    flip = SymmetryElement(
        (0, 1, 2), (0, 1, 2), (1, 0, 0), (1, 0, 0), False
    )
    moved = flip.apply_to_point(machine_behavior(pr_machine(3)))
    assert moved.alice == (HALF,) * 3 and moved.bob == (HALF,) * 3
    assert moved.joint == (
        (HALF, 0, 0),
        (0, HALF, 0),
        (0, 0, HALF),
    )


def test_non_integral_relabelings_are_rejected_not_truncated():
    # int() read (0, 1.7) as the permutation (0, 1) and the flip 0.5 as 1
    with pytest.raises(ValueError):
        SymmetryElement((0, 1.7), (0, 1), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        SymmetryElement((0, 1), (0, 1), (0.5, 0), (0, 0))
    with pytest.raises(ValueError):
        SymmetryElement((0, 1), (0, 1), (0, 0), (2, 0))
    g = SymmetryElement((1.0, 0), (0, 1), (1, 0), (0, 0))
    assert g.alice_perm == (1, 0) and all(type(v) is int for v in g.alice_perm)


def test_party_swap_keeps_chsh_value_on_the_box():
    swap = SymmetryElement((0, 1), (0, 1), (0, 0), (0, 0), True)
    swapped = transform(make_chsh(2), swap)
    assert swapped.evaluate(machine_behavior(pr_box())) == HALF


def test_orbit_sizes(chsh2_orbit, chsh3_orbit, i3322_orbit):
    assert len(chsh2_orbit) == 8
    assert len(chsh3_orbit) == 72
    assert len(i3322_orbit) == 576
    assert group_order(2) % 8 == 0
    assert group_order(3) % 72 == 0
    assert group_order(3) % 576 == 0
    assert len(set(chsh3_orbit) | set(i3322_orbit)) == 648


def test_orbit_membership_detects_equivalence(i3322_orbit):
    rng = random.Random(99)
    moved = make_inn22(3)
    for _ in range(4):
        moved = transform(moved, random_element(3, rng))
    assert moved in set(i3322_orbit)
    assert canonical_form(moved) == canonical_form(make_inn22(3))
    assert canonical_form(make_chsh(3)) != canonical_form(make_inn22(3))


def test_orbit_members_stay_tight_locally(chsh3_orbit):
    rng = random.Random(3)
    member = make_chsh(3)
    for _ in range(5):
        member = random_element(3, rng).apply_to_functional(member)
    assert member in set(chsh3_orbit)
    assert brute_local_max(member) == 0


def test_orbit_members_equal_validated_constructions(i3322_orbit):
    # orbit and transform build their members unchecked, from int rows
    rng = random.Random(3)
    moved = [transform(make_mnn22(3), random_element(3, rng)) for _ in range(20)]
    for f in i3322_orbit + moved:
        assert all(type(v) is int for v in f.coefficient_vector())
        assert BellFunctional(f.scenario, f.alice, f.bob, f.joint, f.constant) == f


def test_affine_matrix_is_a_group_homomorphism():
    rng = random.Random(2024)
    for n in (2, 3, 4, 5):
        ident = np.eye(n * (n + 2) + 1, dtype=np.int64)
        assert np.array_equal(SymmetryElement.identity(n).affine_matrix(), ident)
        for _ in range(40):
            g = random_element(n, rng)
            h = random_element(n, rng)
            m = g.affine_matrix()
            assert np.array_equal(g.compose(h).affine_matrix(), m @ h.affine_matrix())
            assert np.array_equal(m @ g.inverse().affine_matrix(), ident)
            assert np.array_equal(m[-1], ident[-1])


def test_large_coefficients_move_exactly_or_are_refused():
    chsh = make_chsh(2)
    big = BellFunctional(chsh.scenario, (2**70, 0), chsh.bob, chsh.joint)
    rng = random.Random(8)
    for _ in range(20):
        g = random_element(2, rng)
        s = random_exact_point(rng, 2)
        assert transform(big, g).evaluate(s) == big.evaluate(transform_point(s, g.inverse()))
    # the orbit closure runs in int64, which would wrap
    with pytest.raises(ValueError):
        orbit(big)


# sha256 of the sorted coefficient vectors of each orbit, recorded with the
# hand-written point and functional maps
ORBIT_DIGESTS = [
    (make_chsh, 72, "6bdac17411cc748396b9d94c82c1c52bd90b8e0d5a82e769bf58cee99ac33f00"),
    (make_inn22, 576, "bbc92d84fce8ae12d9836c9d1490b5c700ee049c42c9a7e67e42542bd94a8107"),
]


@pytest.mark.parametrize("maker, size, digest", ORBIT_DIGESTS)
def test_orbit_is_pinned(maker, size, digest):
    rows = sorted(f.coefficient_vector() for f in orbit(maker(3)))
    assert len(rows) == size
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def all_elements(n):
    perms = list(itertools.permutations(range(n)))
    flips = list(itertools.product((0, 1), repeat=n))
    for sa, sb, fa, fb, swap in itertools.product(perms, perms, flips, flips, (False, True)):
        yield SymmetryElement(sa, sb, fa, fb, swap)


def test_orbit_is_every_relabeling_applied():
    rng = random.Random(14)
    cases = [make_chsh(2)] + [random_functional(rng, 2) for _ in range(4)] + [make_chsh(3), make_mnn22(3)]
    for f in cases:
        elements = list(all_elements(f.scenario.n_settings))
        assert len(elements) == group_order(f.scenario.n_settings)
        assert orbit(f) == {transform(f, g) for g in elements}


def test_four_setting_orbit_is_pinned():
    rows = sorted(f.coefficient_vector() for f in orbit(make_mnn22(4)))
    assert len(rows) == 147_456
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "71cd542999c2c41c0e48c6d16369ed7b482484da3e8e07125e848870b5ab27a4"
    )
