import hashlib
import json
import math

import pytest

from bellbox import cli
from bellbox.behavior import to_json_dict
from bellbox.functionals import functional_to_json_dict, make_chsh, make_inn22
from bellbox.machines import machine_behavior, machine_to_json_dict, pr_box, pr_machine


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_json_roundtrip(capsys):
    code, out, _ = run(capsys, "gen", "--family", "i", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert cli.functional_from_json_dict(doc) == make_inn22(3)


def test_gen_table_layout(capsys):
    code, out, _ = run(capsys, "gen", "--family", "i", "--n", "3", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("|")[1].split() == ["-1", "0", "0"]
    assert lines[2].split("|")[0].strip() == "-2"
    assert lines[2].split("|")[1].split() == ["1", "1", "1"]
    assert lines[4].split("|")[1].split() == ["1", "-1", "0"]
    assert lines[-1] == "<= 0"


def test_eval_pipeline(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    bpath = tmp_path / "b.json"
    code, out, _ = run(capsys, "gen", "--family", "chsh", "--n", "2", "-o", str(fpath))
    assert code == 0
    bpath.write_text(json.dumps(to_json_dict(machine_behavior(pr_box()))))
    code, out, _ = run(capsys, "eval", "--functional", str(fpath), "--behavior", str(bpath))
    assert code == 0
    assert out.strip() == "1/2"


def test_machine_recipe(capsys):
    code, out, _ = run(capsys, "machine", "recipe", "--ineq", "I3322")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n_inputs": 3, "anticorrelated": [[1, 2], [2, 1]]}


def test_machine_wire_builtin(capsys):
    code, out, _ = run(capsys, "machine", "wire", "--prn", "4")
    assert code == 0
    assert json.loads(out) == machine_to_json_dict(pr_machine(4))


def test_machine_check(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(machine_to_json_dict(pr_machine(3))))
    code, out, _ = run(capsys, "machine", "check", "--machine", str(mpath))
    assert code == 0
    assert json.loads(out) == {"pr3_formula": True}


def test_enum_local_count(capsys):
    code, out, _ = run(capsys, "enum-local", "--n", "2", "--count")
    assert code == 0
    assert out.strip() == "16"


def test_enum_ns_counts(capsys):
    code, out, _ = run(capsys, "enum-ns", "--n", "2", "--count")
    assert code == 0
    assert out.strip() == "8"


def test_census_table_and_determinism(capsys):
    code, out1, _ = run(capsys, "census")
    assert code == 0
    assert "S1       192     6     18" in out1
    assert "total   1344" in out1
    code, out2, _ = run(capsys, "census")
    assert out1 == out2


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 1344
    assert doc["classes"]["S2"] == {"count": 288, "chsh": 1, "i3322": 8}


def test_verify_facet_accepts_the_machine_resistant_inequality(capsys):
    code, out, _ = run(capsys, "verify-facet", "--ineq", "M3322", "--class", "box:pr")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["max_value"] == "0"
    assert doc["affine_rank"] == 14


def test_verify_facet_rejects_with_exit_two(capsys):
    code, out, _ = run(capsys, "verify-facet", "--ineq", "I3322", "--class", "box:pr:3")
    assert code == 2
    doc = json.loads(out)
    assert doc["accepted"] is False
    assert doc["max_value"] == "1"
    assert "witness" in doc


def test_lemma1_runs_clean(capsys):
    code, out, _ = run(capsys, "lemma1", "--n", "3", "--samples", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 500
    assert doc["counterexamples"] == []


def test_quantum_seesaw(capsys):
    code, out, _ = run(
        capsys,
        "quantum", "seesaw", "--ineq", "CHSH",
        "--theta", str(math.pi / 4), "--restarts", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"] - (1 / math.sqrt(2) - 0.5)) < 1e-6
    assert doc["converged"] is True


def test_quantum_sweep_csv(capsys):
    code, out, _ = run(
        capsys,
        "quantum", "sweep", "--ineq", "CHSH",
        "--grid", "5", "--restarts", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 6


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "gen", "--family", "zzz", "--n", "3")
    assert code == 1
    code, _, err = run(capsys, "verify-facet", "--ineq", "Q9922", "--class", "local")
    assert code == 1
    assert "error" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "eval", "--functional", "/nope.json", "--behavior", "/nope.json")
    assert code == 1


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("bellbox: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target, key, bad", [
    ("functional", "alice", [-1.7, 0]),  # int() would evaluate it as -1
    ("functional", "alice", 5),
    ("behavior", "alice", [0.1, "1/2"]),  # a float in an exact behavior
])
def test_eval_rejects_bad_json_with_one_error_line(tmp_path, capsys, target, key, bad):
    docs = {
        "functional": functional_to_json_dict(make_chsh(2)),
        "behavior": to_json_dict(machine_behavior(pr_box())),
    }
    docs[target][key] = bad
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "eval",
        "--functional", str(tmp_path / "functional.json"),
        "--behavior", str(tmp_path / "behavior.json"),
    )
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["quantum", "sweep", "--ineq", "CHSH", "--grid", "2", "--threads", "0", "--restarts", "0"],
    ["verify-facet", "--ineq", "M5522", "--class", "box:pr:4", "--max-strategies", "0"],
])
def test_counts_below_one_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert out == ""


# sha256 of the full stdout of each verify-facet run, recorded before the
# strategy-table layer was unified
VERIFY_FACET_STDOUT = [
    (["--ineq", "M4422", "--class", "box:pr:3"], 0,
     "e469d90c5871ed693717f1a1d1768cf1cda83d1a8f73a79941451d095271f622"),
    (["--ineq", "M3322", "--class", "local"], 2,
     "be7036816c843af306ac527c0fbdda04e1e330d336005aee42e3adb2d914095f"),
    (["--ineq", "I3322", "--class", "box:pr:3"], 2,
     "d8cfafaed42ca7eefb0208531174cb0123354a7b80dd7a72e76e9dfdc8fd7b13"),
    (["--ineq", "M5522", "--class", "box:pr:4"], 0,
     "f2c3403a954506e0434faff4382a2b84c093b232d61f47e5c29136e84a1774ff"),
    (["--ineq", "M5522", "--class", "box:pr:4", "--max-strategies", "1000"], 2,
     "cb9177385e2bd76da791a3c6ce598d2a816acb43b56e2fab6ad85f04053cf30a"),
]


@pytest.mark.parametrize("argv, exit_code, digest", VERIFY_FACET_STDOUT)
def test_verify_facet_stdout_is_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, "verify-facet", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
