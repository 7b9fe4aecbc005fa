"""Tests of the benchmark itself: each check fails on a corrupted result.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from bellbox import functionals, machines, polytope, quantum, strategies  # noqa: E402


def fails(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


@pytest.fixture(scope="module")
def cert3():
    return polytope.verify_facet(functionals.make_mnn22(3), machines.pr_box())


@pytest.fixture(scope="module")
def census_inputs():
    inp = workloads.VertexCensus().build(0, 0)
    chsh = workloads.VertexCensus._sorted_orbit(inp["chsh3"])
    i3322 = workloads.VertexCensus._sorted_orbit(inp["i3322"])
    labeled = polytope.enumerate_ns_vertices_n3(chsh + i3322)
    return chsh, i3322, labeled, polytope.violation_census(labeled, chsh, i3322)


# ---------------------------------------------------------------------------
# the independent rules agree with bellbox on valid inputs


def test_one_box_rule_matches_strategy_behavior():
    rng = random.Random(3)
    for box in (machines.pr_box(), machines.pr_machine(3), machines.pr_machine(4)):
        anti = checks.pr_anticorrelated(box.n_inputs)
        assert anti == box.anticorrelated
        size = strategies.alphabet_size(box)
        for _ in range(50):
            alice = tuple(rng.randrange(size) for _ in range(4))
            bob = tuple(rng.randrange(size) for _ in range(4))
            point = strategies.strategy_behavior(strategies.WiringStrategy(box, alice, bob))
            assert checks.one_box_halves(alice, bob, anti) == checks.halves_of(point)


def test_schmidt_formula_matches_quantum_behavior():
    rng = np.random.default_rng(4)
    f = functionals.make_mnn22(3)
    for theta in (0.0, 0.3, math.pi / 4):
        vecs = rng.normal(size=(6, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        point = quantum.quantum_behavior(quantum.TwoQubitState.schmidt(theta), vecs[:3], vecs[3:])
        assert abs(checks.schmidt_value(f, theta, vecs[:3], vecs[3:]) - f.evaluate(point)) <= 1e-12


def test_mnn22_table_matches_make_mnn22():
    for n in (3, 4, 5, 6):
        assert checks.mnn22_table(n) == functionals.make_mnn22(n).coefficient_vector()


# ---------------------------------------------------------------------------
# one-box-facets


def test_certificate_check_accepts_the_real_certificate(cert3):
    checks.check_certificate(cert3, functionals.make_mnn22(3), 3, checks.pr_anticorrelated(2))


def test_certificate_check_rejects_a_point_off_the_facet(cert3):
    points = list(cert3.saturating_points)
    p = points[0]
    moved = dataclasses.replace(p, alice=(p.alice[0] + Fraction(1, 2),) + p.alice[1:])
    points[0] = moved
    bad = dataclasses.replace(cert3, saturating_points=tuple(points))
    fails(checks.check_certificate, bad, functionals.make_mnn22(3), 3, checks.pr_anticorrelated(2))


def test_certificate_check_rejects_a_rank_one_short(cert3):
    f, anti = functionals.make_mnn22(3), checks.pr_anticorrelated(2)
    fails(checks.check_certificate, dataclasses.replace(cert3, affine_rank=cert3.affine_rank - 1), f, 3, anti)
    # points spanning one dimension less, while the certificate still claims the full rank
    kept, rank = [], 0
    for p in cert3.saturating_points:
        trial = checks.float_affine_rank([checks.halves_of(q) for q in kept + [p]])
        if trial > rank and rank == 13:
            continue
        if trial > rank or not kept:
            kept.append(p)
            rank = trial
    assert checks.float_affine_rank([checks.halves_of(q) for q in kept]) == 13
    fails(checks.check_certificate, dataclasses.replace(cert3, saturating_points=tuple(kept)), f, 3, anti)


def test_certificate_check_rejects_a_witness_below_the_maximum(cert3):
    bad = dataclasses.replace(cert3, witness=strategies.WiringStrategy(machines.pr_box(), (0, 0, 0), (0, 0, 1)))
    fails(checks.check_certificate, bad, functionals.make_mnn22(3), 3, checks.pr_anticorrelated(2))


def test_saturator_check():
    points = polytope.deterministic_saturators_mnn22(4)
    checks.check_saturators(points, 4)
    fails(checks.check_saturators, points[:-1] + [points[0]], 4)


def test_max_min_check_uses_the_relabeled_hand_witness():
    inp = workloads.OneBoxFacets().build(5, 0)
    n, g, c1, c2, box = inp["pairs"][0]
    anti = checks.pr_anticorrelated(box.n_inputs)
    checks.check_max_min(Fraction(1, 2), c1, c2, n, g, anti)
    fails(checks.check_max_min, Fraction(0), c1, c2, n, g, anti)
    # M4422 is 0 on the witness, so it cannot stand in for C1
    fails(checks.check_max_min, Fraction(1, 2), g.apply_to_functional(functionals.make_mnn22(n)), c2, n, g, anti)


# ---------------------------------------------------------------------------
# seesaw-sweep


def test_seesaw_check_rejects_a_perturbed_bloch_vector():
    f = functionals.make_chsh(2)
    result = quantum.seesaw_maximize(f, quantum.TwoQubitState.schmidt(math.pi / 4), restarts=4, seed=1)
    checks.check_seesaw(result, f, math.pi / 4, "CHSH")
    checks.check_chsh(result)
    a = np.asarray(result.measurements.alice)
    c, s = math.cos(1e-3), math.sin(1e-3)
    a[0] = [c * a[0, 0] - s * a[0, 2], a[0, 1], s * a[0, 0] + c * a[0, 2]]
    bad = dataclasses.replace(result, measurements=quantum.MeasurementSet(tuple(map(tuple, a)),
                                                                          result.measurements.bob))
    fails(checks.check_seesaw, bad, f, math.pi / 4, "CHSH")
    fails(checks.check_chsh, dataclasses.replace(result, value=result.value - 1e-4))


def test_sweep_check():
    sweep = quantum.theta_sweep(functionals.make_mnn22(3), grid=6, restarts=6, seed=0)
    checks.check_sweep(sweep, 3, 6)
    values = list(sweep.values)
    fails(checks.check_sweep, dataclasses.replace(sweep, values=tuple(values[:-1] + [1e-3])), 3, 6)
    fails(checks.check_sweep, dataclasses.replace(sweep, values=tuple([1e-3] + values[1:])), 3, 6)
    fails(checks.check_sweep, dataclasses.replace(sweep, values=tuple(min(v, 0.0) for v in values)), 3, 6)
    fails(checks.check_sweep, dataclasses.replace(sweep, values=tuple(values)), 4, 6)


# ---------------------------------------------------------------------------
# vertex-census


def test_census_checks_accept_the_real_census(census_inputs):
    chsh, i3322, labeled, census = census_inputs
    checks.check_orbits(chsh, i3322)
    checks.check_vertices(labeled, chsh + i3322)
    checks.check_census(census, labeled, chsh, i3322)


def test_census_check_rejects_a_wrong_count(census_inputs):
    chsh, i3322, labeled, census = census_inputs
    s1 = census.classes["S1"]
    classes = {**census.classes, "S1": dataclasses.replace(s1, count=s1.count - 1)}
    fails(checks.check_census, dataclasses.replace(census, classes=classes), labeled, chsh, i3322)
    fails(checks.check_census, census, labeled, chsh[1:] + chsh[:1], i3322[:-1])
    fails(checks.check_orbits, chsh[:-1], i3322)
    fails(checks.check_vertices, labeled[:-1], chsh + i3322)
    relabeled = [(p, {"S1": "S2"}.get(label, "S1") if k == 0 else label) for k, (p, label) in enumerate(labeled)]
    fails(checks.check_census, census, relabeled, chsh, i3322)


def test_lemma_check():
    report = polytope.check_lemma1(3, samples=50, seed=1)
    checks.check_lemma(report, 3, 50)
    fails(checks.check_lemma, dataclasses.replace(report, checked=49), 3, 50)
    fails(checks.check_lemma, dataclasses.replace(report, counterexamples=(None,)), 3, 50)


# ---------------------------------------------------------------------------
# cli-commands


def test_cli_checks_reject_corrupted_output(census_inputs):
    doc = {"total": 1344, "classes": {k: {"count": c, "chsh": x, "i3322": y}
                                      for k, (c, x, y) in checks.PUBLISHED_CENSUS_N3.items()}}
    checks.check_cli_census(doc)
    doc["classes"]["S3"]["count"] = 575
    fails(checks.check_cli_census, doc)
    verify = {"accepted": True, "affine_rank": 23, "rank_needed": 23, "max_value": "0"}
    checks.check_cli_verify_facet(verify, 4)
    fails(checks.check_cli_verify_facet, {**verify, "affine_rank": 22}, 4)
    fails(checks.check_cli_verify_facet, {**verify, "accepted": False}, 4)
    csv = b"theta,value\n0,-0.5\n0.785398163,-0.25\n"
    checks.check_cli_sweeps(csv, csv, 2)
    fails(checks.check_cli_sweeps, csv, csv.replace(b"-0.25", b"-0.26"), 2)


def test_gen_eval_check():
    inp = workloads.CliCommands().build(3, 0)
    behavior_doc = inp["behavior"]
    gen_doc = functionals.functional_to_json_dict(functionals.make_mnn22(4))
    f = functionals.make_mnn22(4)
    from bellbox.behavior import from_json_dict
    value = str(f.evaluate(from_json_dict(behavior_doc)))
    checks.check_cli_gen_eval(gen_doc, value + "\n", behavior_doc, 4)
    fails(checks.check_cli_gen_eval, gen_doc, value + "1", behavior_doc, 4)
    fails(checks.check_cli_gen_eval, {**gen_doc, "constant": 1}, value, behavior_doc, 4)


# ---------------------------------------------------------------------------
# seeds and the command itself


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert repr(w.build(11, 0)) == repr(w.build(11, 0))
    assert repr(w.build(11, 0)) != repr(w.build(12, 0))
    assert repr(w.build(11, 0)) != repr(w.build(11, 1))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_runs_on_a_second_seed():
    proc = run_bench(ROOT, "--workload", "vertex-census", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == {"setup_s", "wall_s", "max_call_s", "cpu_s", "peak_rss_mb"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "vertex-census", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
