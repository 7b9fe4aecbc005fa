"""Timing, failure counting and span tracing around the benchmark's calls into bellbox.

Every operation of a pass goes through `Recorder.op`, which times it,
counts it as attempted, and counts it as failed when it raises (a CLI
command that exits non-zero raises too).  With tracing on, the same call
also records a span (name, start, end, parent) and the counts a workload
adds with `Recorder.count`; spans and counts stay in memory until
`Recorder.dump` writes them at the end of the run.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


class Failed:
    """Stands in for the result of an operation that raised or was skipped."""

    def __init__(self, name: str, error: str):
        self.name = name
        self.error = error

    def __repr__(self):
        return f"Failed({self.name!r}: {self.error})"


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.origin = time.perf_counter()
        self.spans = []
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.pass_index = 0
        self.op_times = {}
        self.child_peak_kb = 0
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "parent": parent, "pass": self.pass_index,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def op(self, name: str, fn, *args, **kwargs):
        """Run one public call as an operation; returns its result or a `Failed`."""
        self.attempted += 1
        skipped = next((a for a in args if isinstance(a, Failed)), None)
        if skipped is not None:
            return self._fail(name, f"input {skipped.name} failed")
        start = time.perf_counter()
        try:
            with self.span(name):
                result = fn(*args, **kwargs)
        except Exception as exc:  # one failed call must not end the run
            return self._fail(name, f"{type(exc).__name__}: {exc}")
        self.op_times.setdefault(name, []).append(time.perf_counter() - start)
        return result

    def _fail(self, name, error):
        self.failed += 1
        self.errors.append(f"{name}: {error}")
        return Failed(name, error)

    def count(self, key: str, value):
        """Add to a count of the current pass (or of the stages, pass None)."""
        if self.trace:
            per_pass = self.counts.setdefault(key, {})
            per_pass[self.pass_index] = per_pass.get(self.pass_index, 0) + value

    def counted(self, key: str):
        """Median over passes of a count; 0 when nothing was counted."""
        totals = list(self.counts.get(key, {}).values())
        return statistics.median(totals) if totals else 0

    def durations(self, name: str, passes=None) -> list:
        """Durations of the spans called `name`, optionally only those of some passes."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (passes is None or s["pass"] in passes)]

    def dump(self, path: str, meta: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            counts = {k: {str(p): v for p, v in c.items()} for k, c in self.counts.items()}
            json.dump({**meta, "spans": self.spans, "counts": counts,
                       "errors": self.errors}, fh, indent=1)


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def spawn(argv, env, cwd, timeout: float) -> Child:
    """Run a process to its end and read its own resource usage.

    `os.wait4` reports the child's peak RSS and CPU time including the
    processes it reaped itself (the pool behind `--threads`).  Output goes
    through files in `cwd`, so a large stdout cannot block the child.
    """
    out_path = os.path.join(cwd, f".child-{os.getpid()}.out")
    err_path = os.path.join(cwd, f".child-{os.getpid()}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return Child(proc.returncode, stdout, stderr, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def cpu_seconds() -> float:
    """User plus system time of this process and of the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
