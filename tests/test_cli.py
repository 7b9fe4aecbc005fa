import hashlib
import json
import math

import numpy as np
import pytest

from bellbox import cli
from bellbox.behavior import to_json_dict
from bellbox.functionals import functional_to_json_dict, make_chsh, make_inn22, make_mnn22
from bellbox.machines import machine_behavior, machine_to_json_dict, pr_box, pr_machine
from bellbox.quantum import TwoQubitState, quantum_behavior, theta_sweep


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


def test_machine_wire_reads_prn_zero_as_a_count(capsys):
    code, out, err = run(capsys, "machine", "wire", "--prn", "0")
    assert_one_line_error(code, err)
    assert "need at least two inputs" in err
    assert out == ""


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


def test_enum_local_count_builds_no_points(capsys, monkeypatch):
    monkeypatch.setattr("bellbox.strategies.enumerate_local", None)
    code, out, _ = run(capsys, "enum-local", "--n", "7", "--cap", "7", "--count")
    assert code == 0
    assert out == "16384\n"
    code, out, err = run(capsys, "enum-local", "--n", "7", "--count")
    assert_one_line_error(code, err)
    assert "exceeds the cap" in err
    assert out == ""


def test_enum_ns_counts(capsys):
    code, out, _ = run(capsys, "enum-ns", "--n", "2", "--count")
    assert code == 0
    assert out.strip() == "8"
    code, out, _ = run(capsys, "enum-ns", "--n", "4", "--count")
    assert code == 0
    assert out == "194432\n"


@pytest.mark.parametrize("argv", [
    ["enum-ns", "--n", "4", "--classify"],
    ["enum-ns", "--n", "5", "--count"],
])
def test_enum_ns_refusals_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert out == ""


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


def test_verify_facet_prints_the_local_witness(tmp_path, capsys):
    from bellbox.strategies import strategy_behavior, strategy_from_json_dict

    shifted = {**functional_to_json_dict(make_chsh(2)), "constant": 1}
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(shifted))
    code, out, _ = run(capsys, "verify-facet", "--functional", str(fpath), "--class", "local")
    assert code == 2
    doc = json.loads(out)
    assert doc["max_value"] == "1"
    witness = strategy_from_json_dict(doc["witness"])
    assert witness.machine is None
    value = cli.functional_from_json_dict(shifted).evaluate(strategy_behavior(witness))
    assert str(value) == doc["max_value"]


def test_inconclusive_verify_facet_prints_no_witness(capsys):
    # a truncated run at maximum 0 has no violating strategy to show
    code, out, _ = run(capsys, "verify-facet", "--ineq", "M5522", "--class", "box:pr:4",
                       "--max-strategies", "100")
    assert code == 2
    doc = json.loads(out)
    assert (doc["max_value"], doc["truncated"], doc["accepted"]) == ("0", True, False)
    assert "witness" not in doc


def test_lemma1_runs_clean(capsys):
    code, out, _ = run(capsys, "lemma1", "--n", "3", "--samples", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 500
    assert doc["counterexamples"] == []


def test_lemma1_at_twelve_settings(capsys):
    code, out, err = run(capsys, "lemma1", "--n", "12", "--samples", "50")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["n"], doc["checked"], doc["counterexamples"]) == (12, 50, [])


def test_lemma1_past_sixty_four_option_bits(capsys):
    # 2n = 64 vertex bits do not fit a C long
    code, out, err = run(capsys, "lemma1", "--n", "32", "--samples", "5")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["n"], doc["checked"], doc["counterexamples"]) == (32, 5, [])


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
    # the printed vectors (nine digits, so renormalised) reproduce the printed value
    vectors = [[np.divide(v, np.linalg.norm(v)) for v in doc[k]] for k in ("alice_bloch", "bob_bloch")]
    p = quantum_behavior(TwoQubitState.schmidt(doc["theta"]), *vectors)
    assert abs(make_chsh(2).evaluate(p) - doc["value"]) < 1e-8


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


def test_quantum_sweep_honours_the_plane(capsys):
    argv = ["quantum", "sweep", "--ineq", "M3322", "--grid", "4", "--restarts", "2"]
    _, xz, _ = run(capsys, *argv, "--plane", "xz")
    _, full, _ = run(capsys, *argv, "--plane", "full")
    sweep = theta_sweep(make_mnn22(3), grid=4, restarts=2, plane="xz")
    lines = ["theta,value"] + [f"{format(t, '.9g')},{format(v, '.9g')}" for t, v in sweep.curve()]
    assert xz == "\n".join(lines) + "\n"
    assert xz != full


@pytest.mark.parametrize("count", [0, 1, 3])
def test_json_lists_are_written_one_document_at_a_time(tmp_path, capsys, count):
    docs = [{"n": k, "alice": ["1/2"] * k, "joint": [[k, "0"]] * k} for k in range(count)]
    expected = json.dumps(docs, indent=2) + "\n"
    cli._emit_list(iter(docs), None)
    assert capsys.readouterr().out == expected
    path = tmp_path / "docs.json"
    cli._emit_list(iter(docs), str(path))
    assert path.read_text() == expected


def test_json_lists_share_templates_but_not_scalars(capsys):
    # one outline repeats with other scalars; slot and format characters stay literal
    docs = [
        {"class": "S1", "alice": ["1/2", "0"], "n": 2},
        {"class": "%s\0,\"]", "alice": ["%%", "é"], "n": 3},
        {"class": None, "alice": [1.5, float("nan")], "n": True},
        {"%s": [{"k": [[], {}]}, ("a", -0.0)], "": {}},
        [], {}, "%d", 2**70,
    ]
    cli._emit_list(iter(docs), None)
    assert capsys.readouterr().out == json.dumps(docs, indent=2) + "\n"


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
    ("behavior", "alice", 5),
    ("behavior", "n", 2.5),  # int() would truncate it to 2
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


@pytest.mark.parametrize("action, flag, doc", [
    ("check", "--machine", {"n_inputs": 3, "anticorrelated": 5}),
    ("check", "--machine", [3, [[1, 2], [2, 1]]]),
    ("check", "--machine", {"n_inputs": 3.5, "anticorrelated": [[1, 2], [2, 1]]}),  # int() gives 3
    ("check", "--machine", {"n_inputs": 3, "anticorrelated": [[1.7, 1]]}),  # int() gives (1, 1)
    ("check", "--machine", {"n_inputs": 3, "anticorrelated": [[1, 2, 0]]}),
    ("wire", "--wiring", {"alice": 5, "bob": [[0], [1]]}),
    ("wire", "--wiring", {"alice": [[0.5], [1]], "bob": [[0], [1]]}),  # int() gives 0
    ("wire", "--wiring", [[[0], [1]], [[0], [1]]]),
])
def test_machine_rejects_bad_json_with_one_error_line(tmp_path, capsys, action, flag, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "machine", action, flag, str(path))
    assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize("target, missing", [("functional", "joint"), ("behavior", "joint"), ("behavior", "n")])
def test_eval_names_a_missing_field(tmp_path, capsys, target, missing):
    docs = {
        "functional": functional_to_json_dict(make_chsh(2)),
        "behavior": to_json_dict(machine_behavior(pr_box())),
    }
    del docs[target][missing]
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "eval",
        "--functional", str(tmp_path / "functional.json"),
        "--behavior", str(tmp_path / "behavior.json"),
    )
    assert_one_line_error(code, err)
    assert f'{target} document has no "{missing}" field' in err
    assert out == ""


@pytest.mark.parametrize("action, flag, doc, message", [
    ("check", "--machine", to_json_dict(machine_behavior(pr_box())), 'machine document has no "n_inputs" field'),
    ("check", "--machine", {"n_inputs": 3}, 'machine document has no "anticorrelated" field'),
    ("wire", "--wiring", {"alice": [[0], [1]]}, 'wiring document has no "bob" field'),
])
def test_machine_names_a_missing_field(tmp_path, capsys, action, flag, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "machine", action, flag, str(path))
    assert_one_line_error(code, err)
    assert message in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["quantum", "sweep", "--ineq", "CHSH", "--grid", "2", "--threads", "0", "--restarts", "0"],
    ["verify-facet", "--ineq", "M5522", "--class", "box:pr:4", "--max-strategies", "0"],
    ["lemma1", "--n", "3", "--samples", "0"],
    ["lemma1", "--n", "3", "--samples", "-5"],
])
def test_counts_below_one_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert out == ""


def test_non_finite_theta_exits_one(capsys):
    code, out, err = run(capsys, "quantum", "seesaw", "--ineq", "CHSH", "--theta", "nan")
    assert_one_line_error(code, err)
    assert out == ""
    code, out, err = run(capsys, "quantum", "seesaw", "--ineq", "CHSH", "--theta", "inf")
    assert_one_line_error(code, err)
    assert "theta must be finite" in err
    assert out == ""


@pytest.mark.parametrize("action", ["seesaw", "sweep"])
def test_a_negative_seed_exits_one_naming_the_seed(capsys, action):
    code, out, err = run(capsys, "quantum", action, "--ineq", "CHSH", "--grid", "2", "--seed", "-1")
    assert_one_line_error(code, err)
    assert "seed must be non-negative" in err
    assert out == ""


def test_a_one_input_box_exits_one(capsys):
    code, out, err = run(capsys, "verify-facet", "--ineq", "CHSH", "--class", "box:pr:1")
    assert_one_line_error(code, err)
    assert "machines need at least two inputs" in err
    assert out == ""


def test_a_search_whose_heads_cannot_fit_exits_one(capsys):
    code, out, err = run(capsys, "verify-facet", "--ineq", "CHSH99", "--class", "local")
    assert_one_line_error(code, err)
    assert "99 settings with 2 options each need 2^87" in err
    assert out == ""


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "true", '"0.5"'])
def test_eval_refuses_a_float_entry_that_is_not_a_finite_number(tmp_path, capsys, bad):
    (tmp_path / "functional.json").write_text(json.dumps(functional_to_json_dict(make_chsh(2))))
    (tmp_path / "behavior.json").write_text(
        f'{{"backend": "float", "n": 2, "alice": [{bad}, 0.5], "bob": [0.5, 0.5], "joint": [[0.5, 0.5], [0.5, 0]]}}'
    )
    code, out, err = run(
        capsys, "eval",
        "--functional", str(tmp_path / "functional.json"),
        "--behavior", str(tmp_path / "behavior.json"),
    )
    assert_one_line_error(code, err)
    assert out == ""


# sha256 of the full stdout of each verify-facet run.  M3322 local and
# I3322 were recorded before the strategy-table layer was unified; the
# M4422 and M5522 runs after the counts became exact strategy counts and the
# rank evidence the star set of the saturating strategies; M6622 while the
# star set was still walked in lexicographic order.  The capped run was
# re-recorded when the walk was reversed: it reaches rank 29, not 10
VERIFY_FACET_STDOUT = [
    (["--ineq", "M4422", "--class", "box:pr:3"], 0,
     "11d9eb75ba652b536280a75627ba60179c88bfd1fd2ef751d10694d3fb2d88b3"),
    (["--ineq", "M3322", "--class", "local"], 2,
     "be7036816c843af306ac527c0fbdda04e1e330d336005aee42e3adb2d914095f"),
    (["--ineq", "I3322", "--class", "box:pr:3"], 2,
     "d8cfafaed42ca7eefb0208531174cb0123354a7b80dd7a72e76e9dfdc8fd7b13"),
    (["--ineq", "M5522", "--class", "box:pr:4"], 0,
     "1b3f65c8285af0d016031495f4220e038c1ab265c550b77745e47b2f3c6b06e7"),
    (["--ineq", "M5522", "--class", "box:pr:4", "--max-strategies", "100"], 2,
     "c208d548ada4960ce78d621c19a39d9edd19bfdbe1aeab5808d59ffb1a9c2c41"),
    (["--ineq", "M6622", "--class", "box:pr:5"], 0,
     "bffb454f075c6aae7a9cf33a4323ae36d529809c5e0fd2c0e1dc1ca62e0a8e36"),
]


@pytest.mark.parametrize("argv, exit_code, digest", VERIFY_FACET_STDOUT)
def test_verify_facet_stdout_is_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, "verify-facet", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of each quantum sweep run, recorded with the
# 2x2-projector see-saw and a process pool behind --threads; they still hold
QUANTUM_SWEEP_STDOUT = [
    (["--ineq", "CHSH", "--grid", "5", "--restarts", "4"],
     "381a1456903188c5083663befa9a6242b307adff89c40164e854a9a101d114be"),
    (["--ineq", "M3322", "--grid", "7", "--restarts", "4", "--seed", "3"],
     "d429f4ee677aca58471e9a9c4e861cbf8bd324d0cbf7dc90348f9fd1cf61b408"),
    (["--ineq", "M3322", "--grid", "7", "--restarts", "4", "--seed", "3", "--format", "json"],
     "23aeb41867fec492f8899c651da319779dbba953cd15ef20e2e691e3550aabd0"),
    (["--ineq", "M4422", "--grid", "4", "--restarts", "3", "--threads", "2"],
     "c2f0df92b0784b40ac8e43f8ddc5d2d7ed2b8176f4b26d81b9aaaa6374d34a24"),
]


@pytest.mark.parametrize("argv, digest", QUANTUM_SWEEP_STDOUT)
def test_quantum_sweep_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "quantum", "sweep", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of each quantum seesaw run, recorded with a see-saw
# that gathered and scattered every live row on every step.  Every Bloch
# vector is printed to nine digits, so these are the strictest check that the
# see-saw's arithmetic is unchanged; CHSH3 leaves settings unused, which takes
# the (0, 0, -1) zero-gradient path
QUANTUM_SEESAW_STDOUT = [
    (["--ineq", "CHSH", "--theta", "0.7853981633974483", "--restarts", "10"],
     "fc4851108a7524d7420dbd5517963b56375f9edbac9c228a768e6a6936da6b98"),
    (["--ineq", "M3322", "--theta", "0.2263", "--restarts", "12", "--seed", "5"],
     "b1a8c4e3935163473534bd805d5df0233db4039df8121b708958d574c043a6cc"),
    (["--ineq", "M3322", "--theta", "0.2263", "--restarts", "12", "--seed", "5", "--plane", "xz"],
     "23cd514734e0c2ef1642b4fbdf2f0fc652c5ea709ae48a933315e7538e6121c6"),
    (["--ineq", "CHSH3", "--theta", "0.5", "--restarts", "3"],
     "ef5ad91453fabc73147904be5d77630f63712a142f13aa3cbd6fb0b2fd856a92"),
]


@pytest.mark.parametrize("argv, digest", QUANTUM_SEESAW_STDOUT)
def test_quantum_seesaw_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "quantum", "seesaw", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the full stdout of each run, recorded with the hand-written
# relabeling maps, np.unique(axis=0) row deduplication and the lemma sampler
# building Fraction points; the last two with local and box behaviors built
# entry by entry, before they were read off half-unit rows
EXACT_STDOUT = [
    (["census"], "2e9222e1d27637246c5b746dbe76299e8196addaff79824883b0cb6cb9d036e6"),
    (["census", "--format", "json"], "d86a85c7c2efeb6a46b9b30e6385b18946937831f524bd0629504a7ce68e3565"),
    (["enum-ns", "--n", "3", "--classify"], "127d0a83aea632ff6e9025ec0af822d10ca2f88b9e31152478d5d12bd05d2b5f"),
    (["enum-ns", "--n", "2"], "6bcd53fb832fb162115b970c239322f7033db8f15c50a87234abb04f25f19ba0"),
    (["lemma1", "--n", "4", "--samples", "2000", "--seed", "5"],
     "735d891831e1886b0485ab3aadb2cd4c6652eeb590bd4c19190c8c4cefdcd02e"),
    (["enum-local", "--n", "3"], "b2a75008fd82c31565230508d3c2197ac2201718c24c1e57b60278418cec9ba9"),
    (["machine", "wire", "--prn", "4", "--format", "table"],
     "b19487900e297fc764762127788dda4ae890865b94d1d9cba47bc7cb720e268a"),
    (["enum-ns", "--n", "3"], "60e862cdfce97346bccf4b604d63eb5cac7af7ef80a6fece1b44d054c05d1521"),
]


@pytest.mark.parametrize("argv, digest", EXACT_STDOUT)
def test_exact_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
