"""The four workloads of the bellbox benchmark.

Each workload
- builds the inputs of pass k from the seed (`build`); the same seed gives
  the same inputs, and each pass of a run gets fresh ones of the same make-up,
- runs one pass of public bellbox calls through a `Recorder` (`run_pass`),
- checks a pass's results with `checks` (`check`),
- in a traced run, also times the stages that public functions reach on
  the same inputs (`stages`, checked by `check_stages`), and
- turns spans and counts into its per-layer metrics (`layer_metrics`).

Which layer each workload loads, and why, is in README.md.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import statistics
from fractions import Fraction

from bellbox import behavior, functionals, machines, polytope, quantum, strategies

import checks
from recorder import Failed, spawn

CLI_TIMEOUT_S = 150


def pass_rng(seed: int, k: int) -> random.Random:
    """The random source for the inputs of pass k of a run with this seed."""
    return random.Random(f"{seed}/{k}")


def relabeling(n: int, rng) -> functionals.SymmetryElement:
    """A seeded relabeling by setting permutations and output flips (no party swap).

    The one-box class is closed under these, so maxima, ranks and the
    number of attaining strategies do not change; only the labels do.
    """
    perm_a, perm_b = list(range(n)), list(range(n))
    rng.shuffle(perm_a)
    rng.shuffle(perm_b)
    flips_a = [rng.randrange(2) for _ in range(n)]
    flips_b = [rng.randrange(2) for _ in range(n)]
    return functionals.SymmetryElement(perm_a, perm_b, flips_a, flips_b, False)


def box_for(n: int) -> machines.MachineSpec:
    """The (n-1)-input box the n-setting bound is about; the PR box at n = 3."""
    return machines.pr_box() if n == 3 else machines.pr_machine(n - 1)


def ok(*results) -> bool:
    return not any(isinstance(r, Failed) for r in results)


def run_checks(failures: list, fn, *args):
    """Run one check unless an input is a failed operation; collect its message."""
    if not ok(*args):
        return
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        failures.append(str(exc))
    except Exception as exc:  # a malformed result fails the check, not the run
        failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")


def per_pass(rec, name: str, n_passes: int) -> float:
    """Median over passes of the time spent in spans called `name`."""
    return statistics.median(sum(rec.durations(name, {k})) for k in range(n_passes))


def in_stages(rec, name: str) -> float:
    return sum(rec.durations(name, {None}))


class OneBoxFacets:
    """Exact one-box maxima, facet ranks and max-min values; strategies and polytope."""

    name = "one-box-facets"

    def build(self, seed: int, k: int) -> dict:
        rng = pass_rng(seed, k)
        facets = []
        for n in (3, 4):
            g = relabeling(n, rng)
            facets.append((n, g.apply_to_functional(functionals.make_mnn22(n)), box_for(n)))
        # n = 5 keeps the published labels: its stream stops at the rank
        # target, and where it stops depends on the labels.
        facets.append((5, functionals.make_mnn22(5), box_for(5)))
        pairs = []
        for n in (4, 5):
            g = relabeling(n, rng)
            pairs.append((n, g, g.apply_to_functional(functionals.make_c1(n)),
                          g.apply_to_functional(functionals.make_c2(n)), box_for(n)))
        return {"facets": facets, "pairs": pairs}

    def run_pass(self, rec, inp) -> dict:
        res = {}
        for n, f, box in inp["facets"]:
            cert = rec.op(f"polytope.verify_facet n={n}", polytope.verify_facet, f, box)
            res["verify", n] = cert
            if ok(cert):
                rec.count("polytope.distinct_saturating", cert.n_saturating)
        for n, _, c1, c2, box in inp["pairs"]:
            res["max_min", n] = rec.op(f"strategies.max_min_over_one_machine n={n}",
                                       strategies.max_min_over_one_machine, c1, c2, box)
            rec.count("strategies.max_min_alice_vectors", strategies.alphabet_size(box) ** n)
        for n in (3, 4, 5):
            res["saturators", n] = rec.op(f"polytope.deterministic_saturators_mnn22 n={n}",
                                          polytope.deterministic_saturators_mnn22, n)
        return res

    def check(self, inp, res) -> list:
        failures = []
        for n, f, box in inp["facets"]:
            anti = checks.pr_anticorrelated(box.n_inputs)
            run_checks(failures, checks.require, box.anticorrelated == anti,
                       f"n={n}: box anticorrelates {sorted(box.anticorrelated)}, expected {sorted(anti)}")
            run_checks(failures, checks.check_certificate, res["verify", n], f, n, anti)
        run_checks(failures, checks.require, inp["facets"][-1][1].coefficient_vector() == checks.mnn22_table(5),
                   "make_mnn22(5) differs from the M5522 table")
        for n, g, c1, c2, box in inp["pairs"]:
            run_checks(failures, checks.check_max_min, res["max_min", n], c1, c2, n, g,
                       checks.pr_anticorrelated(box.n_inputs))
        for n in (3, 4, 5):
            run_checks(failures, checks.check_saturators, res["saturators", n], n)
        return failures

    def stages(self, rec, inp, res) -> dict:
        extra = {}
        for n, f, box in inp["facets"]:
            a = strategies.alphabet_size(box)
            extra["max", n] = rec.op(f"strategies.max_over_one_machine n={n}",
                                     strategies.max_over_one_machine, f, box, collect_cap=1)
            rec.count("strategies.alice_vectors", a ** n)
            rec.count("strategies.term_mb_computed", a ** n * n * a * 8 / 2 ** 20)
            cert = res["verify", n]
            halves = [checks.halves_of(p) for p in cert.saturating_points] if ok(cert) else cert
            extra["rank", n] = rec.op(f"polytope.affine_rank_halves n={n}", polytope.affine_rank_halves, halves)
        return extra

    def check_stages(self, inp, res, extra) -> list:
        failures = []
        for n, f, _ in inp["facets"]:
            run_checks(failures, checks.check_maximum, extra["max", n], n)
            run_checks(failures, lambda r: checks.require(r == n * (n + 2) - 1,
                                                          f"n={n}: affine_rank_halves gives {r}"), extra["rank", n])
        return failures

    def layer_metrics(self, rec, inp, res, extra, n_passes) -> dict:
        out = {}
        stream = 0.0
        for n, _, _ in inp["facets"]:
            vf = per_pass(rec, f"polytope.verify_facet n={n}", n_passes)
            mx = in_stages(rec, f"strategies.max_over_one_machine n={n}")
            rank = in_stages(rec, f"polytope.affine_rank_halves n={n}")
            out[f"polytope.verify_facet.n{n}_s"] = vf
            out[f"strategies.max_s.n{n}"] = mx
            out["polytope.rank_s"] = out.get("polytope.rank_s", 0.0) + rank
            stream += vf - mx - rank
        for n, *_ in inp["pairs"]:
            out[f"strategies.max_min_s.n{n}"] = per_pass(rec, f"strategies.max_min_over_one_machine n={n}", n_passes)
        for key in ("strategies.alice_vectors", "strategies.term_mb_computed",
                    "strategies.max_min_alice_vectors", "polytope.distinct_saturating"):
            out[key] = rec.counted(key)
        out["polytope.stream_s"] = stream
        out["polytope.distinct_per_s"] = out["polytope.distinct_saturating"] / stream if stream > 0 else 0.0
        return out


class SeesawSweep:
    """See-saw maxima and Schmidt-angle sweeps; quantum only."""

    name = "seesaw-sweep"
    # (label, functional builder, restarts), each at theta = pi/4
    SEESAWS = (("CHSH", lambda: functionals.make_chsh(2), 20), ("M3322", lambda: functionals.make_mnn22(3), 12))
    # n -> (grid, restarts) for theta_sweep(make_mnn22(n)) with threads=1.  The
    # grids are small so that a pass takes about 0.5 s and a run takes the
    # median of some 30 passes: a burst of CPU steal then touches few of them.
    # Grid 4 puts M3322 at pi/12, where every single restart finds a violation.
    SWEEPS = {3: (4, 2), 4: (3, 2), 5: (3, 2)}

    def build(self, seed: int, k: int) -> dict:
        rng = pass_rng(seed, k)
        seesaws = [(label, make(), restarts, rng.randrange(2 ** 31)) for label, make, restarts in self.SEESAWS]
        sweeps = [(n, functionals.make_mnn22(n), grid, restarts, rng.randrange(2 ** 31))
                  for n, (grid, restarts) in self.SWEEPS.items()]
        return {"seesaws": seesaws, "sweeps": sweeps, "state": quantum.TwoQubitState.schmidt(math.pi / 4)}

    def run_pass(self, rec, inp) -> dict:
        res = {}
        for label, f, restarts, seed in inp["seesaws"]:
            res["seesaw", label] = rec.op(f"quantum.seesaw_maximize {label}", quantum.seesaw_maximize,
                                          f, inp["state"], restarts=restarts, seed=seed)
            rec.count("quantum.restarts", restarts)
        for n, f, grid, restarts, seed in inp["sweeps"]:
            res["sweep", n] = rec.op(f"quantum.theta_sweep n={n}", quantum.theta_sweep,
                                     f, grid=grid, restarts=restarts, seed=seed, threads=1)
            rec.count("quantum.restarts", grid * restarts)
        return res

    def check(self, inp, res) -> list:
        failures = []
        for label, f, _, _ in inp["seesaws"]:
            run_checks(failures, checks.check_seesaw, res["seesaw", label], f, math.pi / 4, label)
        run_checks(failures, checks.check_chsh, res["seesaw", "CHSH"])
        run_checks(failures, lambda r: checks.require(r.value <= 1e-9, f"M3322 at pi/4: {r.value!r} > 1e-9"),
                   res["seesaw", "M3322"])
        for n, _, grid, _, _ in inp["sweeps"]:
            run_checks(failures, checks.check_sweep, res["sweep", n], n, grid)
        return failures

    def stages(self, rec, inp, res) -> dict:
        """Each sweep point again, as the seesaw_maximize call with the sweep's per-point seed."""
        extra = {}
        for n, f, grid, restarts, seed in inp["sweeps"]:
            for k, theta in enumerate(checks.sweep_thetas(grid)):
                extra["point", n, k] = rec.op(f"quantum.seesaw_maximize sweep n={n}", quantum.seesaw_maximize,
                                              f, quantum.TwoQubitState.schmidt(theta), restarts=restarts,
                                              seed=seed + k)
                if ok(extra["point", n, k]):
                    rec.count("quantum.iterations", extra["point", n, k].iterations)
                    rec.count("quantum.points_converged", int(extra["point", n, k].converged))
        return extra

    def check_stages(self, inp, res, extra) -> list:
        failures = []
        for n, f, grid, _, _ in inp["sweeps"]:
            sweep = res["sweep", n]
            for k, theta in enumerate(checks.sweep_thetas(grid)):
                point = extra["point", n, k]
                run_checks(failures, checks.check_seesaw, point, f, theta, f"n={n} theta={theta:.4f}")
                run_checks(failures, lambda p, s: checks.require(
                    abs(p.value - s.values[k]) <= 1e-9,
                    f"n={n} theta={theta:.4f}: seesaw_maximize {p.value!r}, sweep {s.values[k]!r}"), point, sweep)
        return failures

    def layer_metrics(self, rec, inp, res, extra, n_passes) -> dict:
        out = {"quantum.seesaw_s": sum(per_pass(rec, f"quantum.seesaw_maximize {label}", n_passes)
                                       for label, *_ in inp["seesaws"])}
        for n, *_ in inp["sweeps"]:
            out[f"quantum.sweep_point_s.n{n}"] = statistics.median(
                rec.durations(f"quantum.seesaw_maximize sweep n={n}", {None}))
        for key in ("quantum.restarts", "quantum.iterations", "quantum.points_converged"):
            out[key] = rec.counted(key)
        return out


class VertexCensus:
    """The exact n = 3 pipeline: orbits, the dense one-box table, vertices, census, lemma samples."""

    name = "vertex-census"
    LEMMA = ((3, 10_000), (4, 10_000))

    def build(self, seed: int, k: int) -> dict:
        rng = pass_rng(seed, k)
        return {"chsh3": functionals.make_chsh(3), "i3322": functionals.make_inn22(3), "box": machines.pr_machine(3),
                "lemma": [(n, samples, rng.randrange(2 ** 31)) for n, samples in self.LEMMA]}

    @staticmethod
    def _sorted_orbit(f):
        return sorted(functionals.orbit(f), key=functionals.BellFunctional.table_key)

    def run_pass(self, rec, inp) -> dict:
        res = {"chsh": rec.op("functionals.orbit CHSH3", self._sorted_orbit, inp["chsh3"]),
               "i3322": rec.op("functionals.orbit I3322", self._sorted_orbit, inp["i3322"])}
        if ok(res["chsh"], res["i3322"]):
            rec.count("functionals.orbit_members", len(res["chsh"]) + len(res["i3322"]))
        res["labeled"] = rec.op("polytope.enumerate_ns_vertices_n3",
                                lambda a, b: polytope.enumerate_ns_vertices_n3(a + b), res["chsh"], res["i3322"])
        res["census"] = rec.op("polytope.violation_census", polytope.violation_census,
                               res["labeled"], res["chsh"], res["i3322"])
        for n, samples, seed in inp["lemma"]:
            res["lemma", n] = rec.op(f"polytope.check_lemma1 n={n}", polytope.check_lemma1, n, samples, seed)
            rec.count("polytope.lemma1_samples", samples)
        return res

    def check(self, inp, res) -> list:
        failures = []
        run_checks(failures, checks.check_orbits, res["chsh"], res["i3322"])
        if ok(res["chsh"], res["i3322"]):
            run_checks(failures, checks.check_vertices, res["labeled"], res["chsh"] + res["i3322"])
        run_checks(failures, checks.check_census, res["census"], res["labeled"], res["chsh"], res["i3322"])
        for n, samples, _ in inp["lemma"]:
            run_checks(failures, checks.check_lemma, res["lemma", n], n, samples)
        return failures

    def stages(self, rec, inp, res) -> dict:
        """The steps inside enumerate_ns_vertices_n3, each through its own public function."""
        box, scenario = inp["box"], behavior.Scenario(3)
        extra = {"table": rec.op("polytope.one_machine_half_matrix", polytope.one_machine_half_matrix, 3, box)}
        if ok(extra["table"]):
            rec.count("polytope.table_rows", extra["table"].shape[0])
            rec.count("polytope.table_mb_computed", extra["table"].nbytes / 2 ** 20)
        rows = rec.op("polytope.enumerate_nonlocal_vertices",
                      lambda a, b: polytope.enumerate_nonlocal_vertices(3, box, a + b), res["chsh"], res["i3322"])
        points = rec.op("behavior.from_half_units",
                        lambda rs: [behavior.from_half_units(scenario, r) for r in rs], rows)
        extra["back"] = rec.op("behavior.to_half_units", lambda ps: [behavior.to_half_units(p) for p in ps], points)
        extra["labels"] = rec.op("polytope.classify_vertex_n3", lambda rs: [polytope.classify_vertex_n3(r) for r in rs],
                                 rows)
        if ok(points):
            rec.count("behavior.points", len(points))
        extra["rows"] = rows
        return extra

    def check_stages(self, inp, res, extra) -> list:
        failures = []
        run_checks(failures, lambda t: checks.require(t.shape[0] == 8 ** 6, f"table has {t.shape[0]} rows"),
                   extra["table"])
        run_checks(failures, lambda r, b: checks.require(list(map(tuple, b)) == list(map(tuple, r)),
                                                         "half-unit round trip changed the vertices"),
                   extra["rows"], extra["back"])
        run_checks(failures, lambda lab, got: checks.require([x for _, x in lab] == got,
                                                             "classify_vertex_n3 disagrees with the pass"),
                   res["labeled"], extra["labels"])
        return failures

    def layer_metrics(self, rec, inp, res, extra, n_passes) -> dict:
        out = {"functionals.orbit_s": per_pass(rec, "functionals.orbit CHSH3", n_passes)
               + per_pass(rec, "functionals.orbit I3322", n_passes),
               "behavior.convert_s": in_stages(rec, "behavior.from_half_units")
               + in_stages(rec, "behavior.to_half_units"),
               "polytope.table_build_s": in_stages(rec, "polytope.one_machine_half_matrix"),
               "polytope.ns_vertices_s": in_stages(rec, "polytope.enumerate_nonlocal_vertices"),
               "polytope.classify_s": in_stages(rec, "polytope.classify_vertex_n3"),
               "polytope.census_s": per_pass(rec, "polytope.violation_census", n_passes),
               "polytope.lemma1_s": sum(per_pass(rec, f"polytope.check_lemma1 n={n}", n_passes)
                                        for n, _ in self.LEMMA)}
        for key in ("functionals.orbit_members", "behavior.points", "polytope.table_rows",
                    "polytope.table_mb_computed", "polytope.lemma1_samples"):
            out[key] = rec.counted(key)
        lemma_s = out["polytope.lemma1_s"]
        out["polytope.lemma1_samples_per_s"] = out["polytope.lemma1_samples"] / lemma_s if lemma_s > 0 else 0.0
        return out


class CliCommands:
    """Fresh `python -m bellbox.cli` processes, one after another, each on valid input."""

    name = "cli-commands"
    FACET_N = 4
    GEN_N = 4
    SWEEP = ("M3322", 4, 4)  # inequality, grid, restarts
    COMMANDS = ("census", "enum-ns", "verify-facet", "gen-eval", "sweep-t1", "sweep-t2")

    def build(self, seed: int, k: int) -> dict:
        importlib.import_module("bellbox.cli")
        rng = pass_rng(seed, k)
        n = self.GEN_N
        # a seeded exact behavior: the n-input box mixed with three deterministic points
        weights = [rng.randrange(1, 10) for _ in range(4)]
        weights = [Fraction(w, sum(weights)) for w in weights]
        anti = checks.pr_anticorrelated(n)
        alice = [weights[0] / 2] * n
        bob = [weights[0] / 2] * n
        joint = [[Fraction(0) if (i, j) in anti else weights[0] / 2 for j in range(n)] for i in range(n)]
        for w in weights[1:]:
            u = [rng.randrange(2) for _ in range(n)]
            v = [rng.randrange(2) for _ in range(n)]
            for i in range(n):
                alice[i] += w * u[i]
                bob[i] += w * v[i]
                for j in range(n):
                    joint[i][j] += w * u[i] * v[j]
        doc = {"backend": "exact", "n": n, "alice": [str(x) for x in alice], "bob": [str(x) for x in bob],
               "joint": [[str(x) for x in row] for row in joint]}
        return {"behavior": doc, "sweep_seed": rng.randrange(2 ** 31)}

    def _cli(self, rec, inp, *args):
        child = spawn([inp["python"], "-m", "bellbox.cli", *args], inp["env"], inp["workdir"], CLI_TIMEOUT_S)
        rec.child_peak_kb = max(rec.child_peak_kb, child.maxrss_kb)
        rec.count("cli.stdout_bytes", len(child.stdout))
        if child.code != 0:
            raise RuntimeError(f"bellbox {' '.join(args)} exited {child.code}: {child.stderr.decode()[-300:]}")
        return child.stdout

    def _gen_eval(self, rec, inp):
        fpath = os.path.join(inp["workdir"], "functional.json")
        bpath = os.path.join(inp["workdir"], "behavior.json")
        with open(bpath, "w", encoding="utf-8") as fh:
            json.dump(inp["behavior"], fh)
        self._cli(rec, inp, "gen", "--family", "m", "--n", str(self.GEN_N), "-o", fpath)
        value = self._cli(rec, inp, "eval", "--functional", fpath, "--behavior", bpath)
        with open(fpath, encoding="utf-8") as fh:
            return json.load(fh), value.decode()

    def run_pass(self, rec, inp) -> dict:
        ineq, grid, restarts = self.SWEEP
        sweep = ["quantum", "sweep", "--ineq", ineq, "--grid", str(grid), "--restarts", str(restarts),
                 "--seed", str(inp["sweep_seed"]), "--threads"]
        return {
            "census": rec.op("cli.census", self._cli, rec, inp, "census", "--format", "json"),
            "enum-ns": rec.op("cli.enum-ns", self._cli, rec, inp, "enum-ns", "--n", "3", "--classify"),
            "verify-facet": rec.op("cli.verify-facet", self._cli, rec, inp, "verify-facet",
                                   "--ineq", f"M{self.FACET_N}{self.FACET_N}22", "--class",
                                   f"box:pr:{self.FACET_N - 1}"),
            "gen-eval": rec.op("cli.gen-eval", self._gen_eval, rec, inp),
            "sweep-t1": rec.op("cli.sweep-t1", self._cli, rec, inp, *sweep, "1"),
            "sweep-t2": rec.op("cli.sweep-t2", self._cli, rec, inp, *sweep, "2"),
        }

    def check(self, inp, res) -> list:
        failures = []
        run_checks(failures, lambda out: checks.check_cli_census(json.loads(out)), res["census"])
        run_checks(failures, lambda out: checks.check_cli_enum_ns(json.loads(out)), res["enum-ns"])
        run_checks(failures, lambda out: checks.check_cli_verify_facet(json.loads(out), self.FACET_N),
                   res["verify-facet"])
        run_checks(failures, lambda ge: checks.check_cli_gen_eval(ge[0], ge[1], inp["behavior"], self.GEN_N),
                   res["gen-eval"])
        run_checks(failures, checks.check_cli_sweeps, res["sweep-t1"], res["sweep-t2"], self.SWEEP[1])
        return failures

    def stages(self, rec, inp, res) -> dict:
        """Import time of bellbox.cli in three fresh interpreters."""
        code = "import time; t = time.perf_counter(); import bellbox.cli; print(time.perf_counter() - t)"
        extra = {}
        for k in range(3):
            child = rec.op("cli.import", spawn, [inp["python"], "-c", code], inp["env"], inp["workdir"],
                           CLI_TIMEOUT_S)
            extra["import", k] = child
        return extra

    def check_stages(self, inp, res, extra) -> list:
        failures = []
        for k in range(3):
            run_checks(failures, lambda c: checks.require(c.code == 0, f"importing bellbox.cli failed: {c.stderr!r}"),
                       extra["import", k])
        return failures

    def layer_metrics(self, rec, inp, res, extra, n_passes) -> dict:
        out = {f"cli.command_s.{c}": per_pass(rec, f"cli.{c}", n_passes) for c in self.COMMANDS}
        imports = [float(c.stdout) for c in (extra["import", k] for k in range(3)) if ok(c) and c.code == 0]
        out["cli.import_s"] = statistics.median(imports) if imports else 0.0
        out["cli.stdout_bytes"] = rec.counted("cli.stdout_bytes")
        return out


WORKLOADS = {w.name: w for w in (OneBoxFacets(), SeesawSweep(), VertexCensus(), CliCommands())}
