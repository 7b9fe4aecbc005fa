"""The package namespace loads its modules on first use, and each CLI command only what it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellbox
from bellbox.behavior import to_json_dict
from bellbox.machines import machine_behavior, pr_machine

SRC = Path(bellbox.__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "BehaviorPoint", "BellFunctional", "FacetCertificate", "InvalidBehaviorError", "MachineSpec", "MeasurementSet",
    "Scenario", "SymmetryElement", "TwoQubitState", "WiringStrategy", "WiringTable", "behavior", "canonical_form",
    "check_lemma1", "convex_combine", "deterministic_saturators_mnn22", "enumerate_local", "enumerate_ns_vertices_n3",
    "enumerate_one_machine", "functionals", "machine_behavior", "machines", "make_c1", "make_c2", "make_chsh",
    "make_inn22", "make_mnn22", "make_prn_wiring", "max_min_over_one_machine", "max_over_one_machine",
    "membership_by_facets", "ns_vertex_rows", "orbit", "polytope", "pr3_formula_check", "pr_box", "pr_machine",
    "quantum", "quantum_behavior", "recipe", "reconstruct_full", "seesaw_maximize", "strategies",
    "strategy_behavior", "theta_sweep", "transform", "transform_point", "validate", "verify_facet",
    "violation_census", "wire_pr_boxes",
]

MODULES = ("behavior", "functionals", "machines", "polytope", "quantum", "strategies")


def python(code, *argv, cwd=None, environ=os.environ):
    """Run `code` in a fresh interpreter, with `environ`, that imports bellbox from this source tree."""
    env = {**environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)


def test_all_is_pinned():
    assert bellbox.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_every_name_is_its_home_object(name):
    if name in MODULES:
        assert getattr(bellbox, name) is importlib.import_module(f"bellbox.{name}")
    else:
        homes = [m for m in MODULES if name in vars(importlib.import_module(f"bellbox.{m}"))]
        assert getattr(bellbox, name) is getattr(importlib.import_module(f"bellbox.{homes[0]}"), name)
    assert name in dir(bellbox)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        bellbox.no_such_name
    assert not hasattr(bellbox, "__wrapped__")


def test_importing_the_package_loads_no_module_of_it():
    child = python(
        "import sys, bellbox; print(sorted(m for m in sys.modules if m.startswith('bellbox.')))\n"
        "from bellbox import *; print(make_mnn22(3).alice, polytope.__name__)"
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "(-2, 0, 0) bellbox.polytope"]


# runs one command in-process and reports, on its last stderr line, which of
# numpy and the bellbox modules it loaded
PROBE = """
import json, sys
from bellbox.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("bellbox."))
print(json.dumps(loaded), file=sys.stderr)
sys.exit(code)
"""


def loaded_by(tmp_path, *argv):
    child = python(PROBE, *argv, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stderr.splitlines()[-1]))


def test_gen_eval_and_machine_load_no_numpy(tmp_path):
    (tmp_path / "b.json").write_text(json.dumps(to_json_dict(machine_behavior(pr_machine(4)))))
    for argv in (
        ["gen", "--family", "m", "--n", "4", "-o", "f.json"],
        ["eval", "--functional", "f.json", "--behavior", "b.json"],
        ["machine", "wire", "--prn", "3"],
    ):
        assert "numpy" not in loaded_by(tmp_path, *argv), argv


def test_quantum_sweep_loads_no_table_module(tmp_path):
    loaded = loaded_by(tmp_path, "quantum", "sweep", "--ineq", "CHSH", "--grid", "2", "--restarts", "1")
    assert "bellbox.quantum" in loaded
    assert not loaded & {"bellbox.polytope", "bellbox.strategies", "bellbox.machines"}


def environ_without_blas_threads(**extra):
    """This process's environment with no OPENBLAS_NUM_THREADS of its own, which pytest's may carry."""
    return {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}, **extra}


# runs a numpy-loading command in-process, then prints the process's thread
# count and its OPENBLAS_NUM_THREADS
THREADS = """
import os, sys
from bellbox.cli import main
assert main(["enum-ns", "--n", "2", "--count"]) == 0 and "numpy" in sys.modules
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"], file=sys.stderr)
"""

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")


@needs_proc
def test_the_cli_loads_numpy_with_one_blas_thread(tmp_path):
    child = python(THREADS, cwd=tmp_path, environ=environ_without_blas_threads())
    assert child.returncode == 0, child.stderr
    assert child.stderr.split()[-2:] == ["1", "1"]


@needs_proc
def test_the_cli_keeps_a_blas_thread_count_the_user_set(tmp_path):
    child = python(THREADS, cwd=tmp_path, environ=environ_without_blas_threads(OPENBLAS_NUM_THREADS="2"))
    assert child.returncode == 0, child.stderr
    threads, setting = child.stderr.split()[-2:]
    assert setting == "2"
    # OpenBLAS starts no more threads than the process may run on
    assert int(threads) == min(2, len(os.sched_getaffinity(0)))


def test_importing_the_cli_leaves_the_environment_alone():
    child = python(
        "import os; before = dict(os.environ); import bellbox.cli; assert dict(os.environ) == before",
        environ=environ_without_blas_threads(),
    )
    assert child.returncode == 0, child.stderr
