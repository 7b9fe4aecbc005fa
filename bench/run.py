"""Run one bellbox benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload one-box-facets --seed 1 --seconds 10 --trace 0

The benchmark imports bellbox from `src/` next to this directory, never
from an installed copy, and exits 2 without a result when that source is
missing.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it records spans and counts, writes them to
`bench/out/trace-<workload>-seed<seed>.json`, and prints the per-layer
metrics.  The last line of stdout is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def time_setups(recorder, workload: str, seed: int, env: dict, workdir: str) -> list:
    """Wall time of fresh interpreters that import bellbox and build the workload's inputs."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
            f"workloads.WORKLOADS[{workload!r}].build({seed}, 0)")
    times = []
    for _ in range(SETUP_REPEATS):
        child = recorder.spawn([sys.executable, "-c", code], env, workdir, SETUP_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"set-up exited {child.code}: {child.stderr.decode()[-500:]}")
        times.append(child.wall_s)
    return times


def run(args) -> int:
    if not (SRC / "bellbox" / "__init__.py").is_file():
        print(f"run.py: no bellbox sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bellbox
    import recorder
    import workloads

    if Path(bellbox.__file__).resolve().parent != SRC / "bellbox":
        print(f"run.py: imported bellbox from {bellbox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = [] if args.trace else time_setups(recorder, args.workload, args.seed, env, workdir)
        rec = recorder.Recorder(trace=bool(args.trace))
        passes, failures, measured = [], [], 0.0
        while measured < args.seconds:
            inp = workload.build(args.seed, len(passes))
            inp.update(python=sys.executable, env=env, workdir=workdir)
            rec.pass_index = len(passes)
            c0, t0 = recorder.cpu_seconds(), time.perf_counter()
            with rec.span("pass"):
                res = workload.run_pass(rec, inp)
            wall, cpu = time.perf_counter() - t0, recorder.cpu_seconds() - c0
            passes.append({"wall": wall, "cpu": cpu})
            measured += wall
            failures += workload.check(inp, res)
        if args.trace:
            rec.pass_index = None
            with rec.span("stages"):
                extra = workload.stages(rec, inp, res)
            failures += workload.check_stages(inp, res, extra)
            metrics = {m["name"]: 0 for m in spec["per_layer"]}
            metrics.update(workload.layer_metrics(rec, inp, res, extra, len(passes)))
            metrics["trace.pass_s"] = statistics.median(p["wall"] for p in passes)
            rec.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed, "passes": passes})
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p["wall"] for p in passes),
                # the call with the longest median time over the passes
                "max_call_s": max((statistics.median(ts) for ts in rec.op_times.values()), default=0.0),
                "cpu_s": statistics.median(p["cpu"] for p in passes),
                "peak_rss_mb": max(recorder.self_peak_kb(), rec.child_peak_kb) / 1024,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in rec.errors + failures:
        print(f"run.py: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {measured:.2f} s measured", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
