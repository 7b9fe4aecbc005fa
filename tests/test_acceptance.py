"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
assertion uses the exact values or stated tolerances, and each criterion
also checks its runtime budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bellbox.behavior import Scenario
from bellbox.functionals import make_c1, make_c2, make_chsh, make_inn22, make_mnn22
from bellbox.machines import (
    WiringTable,
    machine_behavior,
    make_prn_wiring,
    parity_matrix,
    pr_box,
    pr_machine,
    recipe,
    wire_pr_boxes,
)
from bellbox.polytope import (
    check_lemma1,
    deterministic_saturators_mnn22,
    doubled_values,
    enumerate_nonlocal_vertices,
    enumerate_ns_vertices_n3,
    one_machine_half_matrix,
    verify_facet,
    violation_census,
)
from bellbox.quantum import TwoQubitState, seesaw_maximize, theta_sweep
from bellbox.strategies import (
    enumerate_local,
    enumerate_one_machine,
    option_name,
    strategy_behavior,
)

HALF = Fraction(1, 2)


class Criterion:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) - {detail}")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget, (
            f"criterion {self.number} took {elapsed:.1f}s, budget {self.budget}s"
        )


def test_criterion_1_two_setting_counts(chsh2_orbit):
    crit = Criterion(1, 1.0)
    locals2 = enumerate_local(Scenario(2))
    nonlocal2 = enumerate_nonlocal_vertices(2, pr_box(), chsh2_orbit)
    ok = (
        len(locals2) == 16
        and len(chsh2_orbit) == 8
        and len(nonlocal2) == 8
        and len(locals2) + len(nonlocal2) == 24
    )
    crit.finish(
        ok,
        f"16 local, {len(chsh2_orbit)} CHSH orbit members, "
        f"{len(locals2) + len(nonlocal2)} no-signaling vertices",
    )


def test_criterion_2_three_setting_facets(chsh3_orbit, i3322_orbit):
    crit = Criterion(2, 10.0)
    locals3 = one_machine_half_matrix(3, None)
    facets = list(chsh3_orbit) + list(i3322_orbit)
    values = doubled_values(locals3, facets)
    maxima = values.max(axis=0)
    ok = (
        locals3.shape[0] == 64
        and len(chsh3_orbit) == 72
        and len(i3322_orbit) == 576
        and len(facets) == 648
        and (maxima == 0).all()
    )
    crit.finish(
        ok,
        f"64 local vertices, 72+576=648 facets, all tight at 0 "
        f"(max of maxima {int(maxima.max())}, min {int(maxima.min())})",
    )


def test_criterion_3_vertex_census(chsh3_orbit, i3322_orbit):
    crit = Criterion(3, 60.0)
    pairs = one_machine_half_matrix(3, pr_machine(3))
    labeled = enumerate_ns_vertices_n3(list(chsh3_orbit) + list(i3322_orbit))
    census = violation_census(labeled, chsh3_orbit, i3322_orbit)
    table = {
        label: (st.count, st.chsh_violations, st.i3322_violations)
        for label, st in census.classes.items()
    }
    expected = {
        "S1": (192, 6, 18),
        "S2": (288, 1, 8),
        "S3": (576, 2, 12),
        "S4": (288, 4, 24),
    }
    ok = pairs.shape[0] == 262144 and census.total == 1344 and table == expected
    crit.finish(ok, f"262144 strategy pairs -> 1344 vertices, census {table}")


def test_criterion_4_machine_values():
    crit = Criterion(4, 1.0)
    chsh_value = make_chsh(2).evaluate(machine_behavior(pr_box()))
    i3_value = make_inn22(3).evaluate(machine_behavior(pr_machine(3)))
    family = [
        make_inn22(n).evaluate(machine_behavior(pr_machine(n))) for n in range(2, 7)
    ]
    ok = (
        chsh_value == HALF
        and i3_value == 1
        and family == [Fraction(n - 1, 2) for n in range(2, 7)]
    )
    crit.finish(ok, f"CHSH/box {chsh_value}, three-setting {i3_value}, family {family}")


def test_criterion_5_wirings():
    crit = Criterion(5, 1.0)
    displayed = WiringTable(((0, 0), (0, 1), (1, 0)), ((0, 0), (1, 0), (0, 1)))
    parity = parity_matrix(displayed)
    ok = parity == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    ok = ok and wire_pr_boxes(displayed) == recipe(make_inn22(3))
    boxes = []
    for n in range(2, 7):
        w = make_prn_wiring(n)
        boxes.append(w.n_boxes)
        ok = ok and w.n_boxes == n - 1 and wire_pr_boxes(w) == pr_machine(n)
    crit.finish(ok, f"displayed parity {parity}, box counts {boxes}")


def test_criterion_6_machine_resistant_facets():
    crit = Criterion(6, 300.0)
    cert3 = verify_facet(make_mnn22(3), pr_box())
    # exhaustively, the distinct one-box behaviors on the M3322 facet
    rows = one_machine_half_matrix(3, pr_box())
    on_facet = np.unique(rows[doubled_values(rows, [make_mnn22(3)])[:, 0] == 0], axis=0)
    n_det = int(np.isin(on_facet[:, :6], (0, 2)).all(axis=1).sum())
    ok = (
        cert3.max_value == 0
        and (cert3.n_saturating, cert3.n_deterministic) == (524, 8)
        and (len(on_facet), n_det) == (65, 8)
        and cert3.affine_rank == 14
    )
    details = [
        f"n=3: max {cert3.max_value}, {cert3.n_saturating} saturating strategies "
        f"({cert3.n_deterministic} deterministic) on {len(on_facet)} distinct behaviors "
        f"({n_det} deterministic), rank {cert3.affine_rank}"
    ]
    for n in (4, 5):
        cert = verify_facet(make_mnn22(n), pr_machine(n - 1))
        ok = ok and cert.max_value == 0 and cert.affine_rank == n * (n + 2) - 1
        details.append(f"n={n}: max {cert.max_value}, rank {cert.affine_rank}")
    cert6 = verify_facet(make_mnn22(6), pr_machine(5))
    ok = ok and (
        cert6.max_value == 0
        and cert6.affine_rank == 47
        and (cert6.n_saturating, cert6.n_deterministic) == (16_942_320, 64)
        and cert6.accepted
        and not cert6.truncated
    )
    details.append(
        f"n=6: max {cert6.max_value}, rank {cert6.affine_rank}, "
        f"{cert6.n_saturating} saturating ({cert6.n_deterministic} deterministic)"
    )
    counts = [len(deterministic_saturators_mnn22(n)) for n in range(3, 7)]
    ok = ok and counts == [2**n for n in range(3, 7)]
    details.append(f"deterministic saturators {counts}")
    crit.finish(ok, "; ".join(details))


def test_criterion_7_lemma_property_suite():
    crit = Criterion(7, 30.0)
    details = []
    ok = True
    for n in (3, 4):
        report = check_lemma1(n, samples=10_000, seed=0, raise_on_counterexample=False)
        ok = ok and report.checked == 10_000 and not report.counterexamples
        details.append(f"n={n}: {report.checked} samples, "
                       f"{len(report.counterexamples)} counterexamples")
    crit.finish(ok, "; ".join(details))


# The one-PR-box strategies that violate both relaxations at three settings,
# derived by hand rather than read off the enumerator.
#
# make_c1(3) is CHSH on Alice {0,1} x Bob {1,2}; make_c2(3) is CHSH on Alice
# {0,2} x Bob {0,1}.  A CHSH block can only exceed 0 when all four of its
# settings use the box with distinct box inputs on each side: a deterministic
# output, or one box input reused on a side, leaves that side with one
# effective input and the block local.  Alice's setting 0 lies in both
# blocks, so her settings 1 and 2 share the input opposite hers (2 ways);
# Bob's setting 1 lies in both, so his settings 0 and 2 share the input
# opposite his (2 ways).  On box inputs (x, y) the two outputs are equal
# exactly when flip_A + flip_B = x*y (mod 2).  The block value is then 1/2
# (its one-box maximum) exactly when the three +1 pairs have equal outputs
# and the -1 pair unequal ones: 3 independent GF(2) conditions per block.
# The six conditions have rank 5, because flipping every output on both
# sides leaves every entry unchanged, so each input choice admits 2 flip
# patterns.  Total 2 * 2 * 2 = 8, each with C1 = C2 = 1/2 and M3322 = 0.
DOUBLE_VIOLATORS_N3 = {
    # Alice's setting 0 on box input 0, Bob's setting 1 on input 0
    (("0m", "1m", "1mf"), ("1m", "0m", "1m")),
    (("0mf", "1mf", "1m"), ("1mf", "0mf", "1mf")),
    # Alice's setting 0 on input 0, Bob's setting 1 on input 1
    (("0m", "1mf", "1m"), ("0m", "1m", "0m")),
    (("0mf", "1m", "1mf"), ("0mf", "1mf", "0mf")),
    # Alice's setting 0 on input 1, Bob's setting 1 on input 0
    (("1m", "0m", "0mf"), ("1mf", "0m", "1mf")),
    (("1mf", "0mf", "0m"), ("1m", "0mf", "1m")),
    # Alice's setting 0 on input 1, Bob's setting 1 on input 1
    (("1m", "0mf", "0m"), ("0m", "1mf", "0m")),
    (("1mf", "0m", "0mf"), ("0mf", "1m", "0mf")),
}


def test_criterion_8_relaxation_exclusivity():
    """Exclusivity of the two relaxations, as it stands at three settings.

    No one-box strategy may violate both C1 and C2 except the eight derived
    above; those break the relaxation route but not the bound itself, which
    criterion 6 certifies by exhaustive maximum.
    """
    crit = Criterion(8, 60.0)
    c1, c2, m3 = make_c1(3), make_c2(3), make_mnn22(3)
    strategies = list(enumerate_one_machine(Scenario(3), pr_box()))
    behaviors = one_machine_half_matrix(3, pr_box())
    values = doubled_values(behaviors, [c1, c2, m3])
    found = {}
    for idx in np.flatnonzero((values[:, :2] > 0).all(axis=1)):
        s = strategies[idx]
        point = strategy_behavior(s)
        exact = (c1.evaluate(point), c2.evaluate(point), m3.evaluate(point))
        key = (tuple(map(option_name, s.alice)), tuple(map(option_name, s.bob)))
        found[key] = (tuple(int(v) for v in values[idx]), exact)
    ok = (
        len(strategies) == behaviors.shape[0] == 46656
        and set(found) == DOUBLE_VIOLATORS_N3
        and all(v == ((1, 1, 0), (HALF, HALF, 0)) for v in found.values())
    )
    detail = (
        f"{len(found)} of {behaviors.shape[0]} one-box strategies violate both "
        f"relaxations, doubled (C1, C2, M3322) values {sorted(set(v[0] for v in found.values()))}"
    )
    if set(found) != DOUBLE_VIOLATORS_N3:
        detail += (
            f"; unexpected {sorted(set(found) - DOUBLE_VIOLATORS_N3)}"
            f"; missing {sorted(DOUBLE_VIOLATORS_N3 - set(found))}"
        )
    crit.finish(ok, detail)


def test_criterion_9_quantum_claims():
    crit = Criterion(9, 600.0)
    state = TwoQubitState.schmidt(math.pi / 4)
    chsh = seesaw_maximize(make_chsh(2), state, restarts=20, seed=0)
    target = 1 / math.sqrt(2) - 0.5
    ok = abs(chsh.value - target) < 1e-6
    details = [f"CHSH {chsh.value:.8f}"]
    m3_max_ent = seesaw_maximize(make_mnn22(3), state, restarts=50, seed=0)
    ok = ok and m3_max_ent.value <= 1e-9
    details.append(f"m3322@pi/4 {m3_max_ent.value:.2e}")
    sweep3 = theta_sweep(make_mnn22(3), grid=60, restarts=12, seed=0)
    ok = ok and sweep3.best_value > 0 and sweep3.best_theta < math.pi / 4
    details.append(
        f"m3322 sweep best {sweep3.best_value:.2e} at theta {sweep3.best_theta:.3f}"
    )
    for n in (4, 5):
        sweep = theta_sweep(make_mnn22(n), grid=100, restarts=20, seed=0)
        ok = ok and max(sweep.values) <= 1e-7
        details.append(f"m{n}{n}22 sweep max {max(sweep.values):.2e}")
    crit.finish(ok, "; ".join(details))


def test_criterion_10_documented_exclusions(chsh3_orbit, i3322_orbit):
    crit = Criterion(10, 10.0)
    ok = len(set(chsh3_orbit) | set(i3322_orbit)) == 648
    crit.finish(
        ok,
        "completeness of the 648-facet classification and of facet lists for "
        "four or more settings is taken from the published classifications, "
        "not re-derived; tightness and rank property tests (criteria 2 and 6) "
        "stand in",
    )
