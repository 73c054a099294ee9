import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from homkit import algebra as algebra_mod
from homkit import cli, corpus
from homkit.algebra import (algebra_from_json, algebra_to_json, from_quiver,
                            opposite, tensor)
from homkit.invariants import TheoremViolation
from homkit.modules import Module, module_to_json
from homkit.presentation import print_spec, spec_of_fixture

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cartan_fixture(capsys):
    code, out, _ = run_cli(capsys, "cartan", "FIX-TP2")
    assert code == 0
    assert "[2, 2]" in out and "det = 0" in out


def test_cartan_from_file(tmp_path, capsys):
    f = tmp_path / "a2.qa"
    f.write_text(print_spec(spec_of_fixture("FIX-A2")))
    code, out, _ = run_cli(capsys, "cartan", str(f))
    assert code == 0 and "det = 1" in out


def test_basis(capsys):
    code, out, _ = run_cli(capsys, "basis", "FIX-TP2")
    assert code == 0
    assert "gamma*alpha" in out and "idempotent" in out and "radical" in out


def test_gldim_gorenstein_smooth(capsys):
    code, out, _ = run_cli(capsys, "gldim", "FIX-A2")
    assert code == 0 and "Finite(1)" in out
    code, out, _ = run_cli(capsys, "gorenstein", "FIX-LOC")
    assert code == 0 and "Gorenstein(0,0)" in out
    code, out, _ = run_cli(capsys, "smooth", "FIX-TP1(1)")
    assert code == 0 and "not_smooth" in out


def test_stratify(capsys):
    code, out, _ = run_cli(capsys, "stratify", "FIX-A2")
    assert code == 0
    assert "split at" in out and "leaf det product = 1" in out


def test_check_theorem1(capsys):
    code, out, _ = run_cli(capsys, "check", "theorem1", "FIX-A2", "--e", "1")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(capsys, "check", "theorem1", "FIX-TP1(1)", "--e", "1")
    assert code == 0 and "inapplicable" in out


def test_check_two_point_and_eilenberg(capsys):
    code, out, _ = run_cli(capsys, "check", "two-point", "FIX-TP1-1.qa")
    assert code == 0 and "2-derived-simple" in out
    code, out, _ = run_cli(capsys, "check", "eilenberg", "FIX-A2")
    assert code == 0 and "det 1" in out


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "cartan", "nope.qa")
    assert code == 1
    assert "no such file" in err


def test_parse_error_is_input_error(tmp_path, capsys):
    f = tmp_path / "bad.qa"
    f.write_text("field Q\nquiver vertices }")
    code, _, err = run_cli(capsys, "cartan", str(f))
    assert code == 1
    assert "line" in err


def test_bad_vertex_is_input_error(capsys):
    code, _, err = run_cli(capsys, "check", "theorem1", "FIX-A2", "--e", "9")
    assert code == 1
    assert "unknown vertex" in err


def test_tripwire_maps_to_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cartan_matrix",
                        lambda a: (_ for _ in ()).throw(TheoremViolation("synthetic")))
    code, _, err = run_cli(capsys, "cartan", "FIX-A2")
    assert code == 3
    assert "tripwire" in err.lower() or "VIOLATION" in err


def test_internal_error_maps_to_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cartan_matrix",
                        lambda a: (_ for _ in ()).throw(RuntimeError("boom")))
    code, _, err = run_cli(capsys, "cartan", "FIX-A2")
    assert code == 2
    assert "internal" in err


def test_json_surfaces_have_format_headers(capsys):
    for argv, kind in [(["gldim", "FIX-A2"], "gldim"),
                       (["gorenstein", "FIX-LOC"], "gorenstein"),
                       (["smooth", "FIX-TP1(1)"], "smooth"),
                       (["check", "two-point", "FIX-TP2"], "two-point"),
                       (["check", "eilenberg", "FIX-A2"], "eilenberg")]:
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, argv
        doc = json.loads(out)
        assert doc["format"] == "homkit-report/1"
        assert doc["kind"] == kind
    code, out, _ = run_cli(capsys, "stratify", "FIX-A2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "stratify" and doc["tree"]["det"] == "1"


def test_json_reports_are_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "cartan", "FIX-TP2", "--json")
    code2, out2, _ = run_cli(capsys, "cartan", "FIX-TP2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["format"] == "homkit-report/1"
    assert doc["matrix"] == [["2", "2"], ["2", "2"]]


def test_dump_algebra_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "dump", "FIX-TP2", "--dump-algebra")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "homkit-algebra/1"
    a = algebra_from_json(doc)
    f = tmp_path / "tp2.json"
    f.write_text(out)
    code2, out2, _ = run_cli(capsys, "dump", str(f))
    assert code2 == 0
    assert out2 == out  # byte-identical after canonicalisation
    # algebra JSON files are accepted by the other commands
    code3, out3, _ = run_cli(capsys, "cartan", str(f))
    assert code3 == 0 and "det = 0" in out3


def test_dump_module_round_trip(capsys, tmp_path, one_point, loc):
    T = tensor(opposite(one_point), loc)
    F = T.field
    action = [[{0: F.one}] if t < T.r else [{}] for t in range(T.dim)]
    m = Module(T, 1, action, [0])
    f = tmp_path / "m.mod"
    f.write_text(json.dumps(module_to_json(m)))
    code, out, _ = run_cli(capsys, "dump", str(f), "--dump-module")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "homkit-module/1"
    code2, out2, _ = run_cli(capsys, "dump", str(f), "--dump-module")
    assert out2 == out


def test_dump_module_with_path_reference(capsys, tmp_path, a2):
    from homkit.modules import projective
    from homkit.presentation import print_spec, spec_of_fixture
    (tmp_path / "A2.qa").write_text(print_spec(spec_of_fixture("FIX-A2")))
    m = projective(a2, 0)
    f = tmp_path / "p1.mod"
    f.write_text(json.dumps(module_to_json(m, algebra_ref="A2.qa")))
    code, out, _ = run_cli(capsys, "dump", str(f), "--dump-module")
    assert code == 0
    assert json.loads(out)["algebra"] == "A2.qa"
    # an unresolvable reference is a clean input error
    g = tmp_path / "bad.mod"
    g.write_text(json.dumps(module_to_json(m, algebra_ref="missing.qa")))
    code2, _, err = run_cli(capsys, "dump", str(g), "--dump-module")
    assert code2 == 1 and "resolvable" in err


def test_check_gorenstein_transfer_files(capsys, tmp_path, one_point, loc):
    b = tmp_path / "B.qa"
    b.write_text(print_spec(spec_of_fixture("FIX-LOC")))
    c = tmp_path / "C.qa"
    c.write_text("field Q\nquiver { vertices: 1  arrows: }\n")
    T = tensor(opposite(one_point), loc)
    F = T.field
    action = [[{0: F.one}] if t < T.r else [{}] for t in range(T.dim)]
    m = Module(T, 1, action, [0])
    f = tmp_path / "M.mod"
    f.write_text(json.dumps(module_to_json(m, algebra_ref="tensor(op(C),B)")))
    code, out, _ = run_cli(capsys, "check", "gorenstein-transfer",
                           str(b), str(c), str(f))
    assert code == 0
    assert "NotGorensteinCertified" in out
    assert "pd-form biconditional: pass" in out
    code2, out2, _ = run_cli(capsys, "check", "smoothness-transfer",
                             str(b), str(c), str(f), "--json")
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["kind"] == "smoothness-transfer"


def test_corpus_cli_json_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                             "--count", "5", "--seed", "9", "--jobs", "1", "--json")
    code2, out2, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                             "--count", "5", "--seed", "9", "--jobs", "1", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["aggregate"]["pass"] == 5
    assert doc["plus_one_tally"] == 5
    assert "timing_seconds" not in doc


def test_corpus_cli_parallel_matches_serial(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "--shape", "TriangularPair",
                             "--count", "4", "--seed", "3", "--jobs", "1", "--json")
    code2, out2, _ = run_cli(capsys, "corpus", "--shape", "TriangularPair",
                             "--count", "4", "--seed", "3", "--jobs", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_corpus_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOMKIT_JOBS", "1")
    code, out, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "2", "--seed", "1", "--jobs", "4", "--json")
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "2.5", ""])
def test_corpus_env_override_rejects_non_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("HOMKIT_JOBS", value)
    code, _, err = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "1", "--seed", "1", "--jobs", "1")
    assert code == 1
    assert "HOMKIT_JOBS" in err


def test_corpus_field_flag(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "2", "--seed", "6", "--jobs", "1",
                           "--field", "Q", "--json")
    assert code == 0
    assert json.loads(out)["field"] == "Q"
    code2, _, err = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                            "--count", "1", "--field", "F6", "--jobs", "1")
    assert code2 == 1 and "prime" in err


def test_corpus_count_zero(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "0", "--jobs", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == []


def test_corpus_out_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "corpus", "--shape", "NilpotentCyclic",
                         "--count", "2", "--seed", "4", "--jobs", "1",
                         "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "corpus" and doc["shape"] == "NilpotentCyclic"


def test_corpus_text_names_the_time_only_with_timing(capsys):
    argv = ("corpus", "--shape", "TriangularPair", "--count", "3", "--seed", "5",
            "--jobs", "1", "--suite", "smoothness-transfer")
    runs = [run_cli(capsys, *argv) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert re.fullmatch(r"TriangularPair x 3 \(seed 5\): \{[^}]*\}\n", runs[0][1])
    code, out, _ = run_cli(capsys, *argv, "--with-timing")
    assert code == 0 and re.fullmatch(r"TriangularPair x 3 \(seed 5\): \{[^}]*\} "
                                      r"in \d+\.\ds\n", out), out


def test_corpus_with_timing_flag(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "1", "--seed", "2", "--jobs", "1",
                           "--json", "--with-timing")
    assert code == 0
    assert "timing_seconds" in json.loads(out)


@pytest.mark.parametrize("argv, named", [
    (["gldim"], "required: file"),
    (["gldim", "FIX-A2", "--cutoff", "abc"], "--cutoff"),
    (["frobnicate", "FIX-A2"], "invalid choice"),
    ([], "required: command"),
    (["check", "nonsense", "FIX-A2"], "invalid choice"),
    (["gldim", "FIX-A2", "--cutoff", "0"], "--cutoff"),
    (["gldim", "FIX-A2", "--cutoff", "-1"], "--cutoff"),
    (["stratify", "FIX-A2", "--cutoff", "0"], "--cutoff"),
    (["stratify", "FIX-A2", "--cutoff", "-1"], "--cutoff"),
    (["smooth", "FIX-A2", "--cutoff", "0"], "--cutoff"),
    (["smooth", "FIX-A2", "--cutoff", "-1"], "--cutoff"),
    (["check", "eilenberg", "FIX-A2", "--cutoff", "0"], "--cutoff"),
    (["check", "eilenberg", "FIX-A2", "--cutoff", "-1"], "--cutoff"),
    (["check", "theorem1", "FIX-A2", "--e", "1", "--cutoff", "0"], "--cutoff"),
    (["check", "theorem1", "FIX-A2", "--e", "1", "--cutoff", "-1"], "--cutoff"),
    (["corpus", "--shape", "AcyclicQuiver", "--count", "1", "--jobs", "1",
      "--cutoff", "0"], "--cutoff"),
    (["corpus", "--shape", "AcyclicQuiver", "--count", "1", "--jobs", "1",
      "--cutoff", "-1"], "--cutoff"),
    (["check", "theorem1", "FIX-A2", "--e", "1,2"], "--e"),
    (["corpus", "--shape", "AcyclicQuiver", "--count", "-1", "--jobs", "1"], "--count"),
    (["corpus", "--shape", "AcyclicQuiver", "--dim-bound", "0", "--jobs", "1"],
     "--dim-bound"),
])
def test_bad_arguments_are_input_errors(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    runs = [["cartan", "FIX-TP2"], ["cartan", "FIX-TP2", "--json"],
            ["gldim", "FIX-A2", "--cutoff", "3"], ["gldim", "FIX-A2", "--cutoff", "0"],
            ["stratify", "FIX-A2", "--json"], ["check", "eilenberg", "FIX-A2"],
            ["gldim", "FIX-A2"]]
    cli.build_parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in runs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 0, 0]
    # the command function is looked up when it runs, not when the parser is built
    monkeypatch.setattr(cli, "cmd_cartan", lambda args: print("patched") or 0)
    assert run_cli(capsys, "cartan", "FIX-TP2") == (0, "patched\n", "")


def _entry_is_a_number(doc):
    next(iter(doc["action"].values()))[0][0] = 1


def _action_is_not_a_list(doc):
    doc["action"][next(iter(doc["action"]))] = 5


def _coefficient_is_a_number(doc):
    doc["mult"][0][3] = 1


def _index_out_of_range(doc):
    doc["mult"][0][2] = 99


def _no_basis(doc):
    del doc["basis"]


@pytest.mark.parametrize("kind, edit, named", [
    ("module", _entry_is_a_number, "row 0, column 0: scalar 1 is not a string"),
    ("module", _action_is_not_a_list, "has wrong shape"),
    ("algebra", _coefficient_is_a_number, "mult entry 0: scalar 1 is not a string"),
    ("algebra", _index_out_of_range, "mult entry 0 is not [x, y, z, coefficient]"),
    ("algebra", _no_basis, "no 'basis' entry"),
], ids=["module-entry-number", "module-action-not-list", "algebra-coefficient-number",
        "algebra-index-out-of-range", "algebra-no-basis"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, kind, edit, named):
    """A malformed algebra exits 1 from load_algebra and as a module's inline
    algebra; a malformed module from the transfer checks and from dump."""
    b, c = spec_of_fixture("FIX-LOC"), spec_of_fixture("FIX-A2")
    (tmp_path / "B.qa").write_text(print_spec(b))
    (tmp_path / "C.qa").write_text(print_spec(c))
    T = tensor(opposite(from_quiver(c)), from_quiver(b))
    m = Module(T, 1, [[{0: T.field.one}] if t == 0 else [{}] for t in range(T.dim)], [0])
    mod = module_to_json(m)
    runs = []
    if kind == "algebra":
        alg = algebra_to_json(from_quiver(c))
        edit(alg)
        (tmp_path / "bad.json").write_text(json.dumps(alg))
        runs.append((tmp_path / "bad.json", ["cartan"]))
        edit(mod["algebra"])
    else:
        edit(mod)
        ref = {**mod, "algebra": "tensor(op(C),B)"}
        (tmp_path / "ref.mod").write_text(json.dumps(ref))
        runs.append((tmp_path / "ref.mod", ["check", "gorenstein-transfer",
                                            str(tmp_path / "B.qa"), str(tmp_path / "C.qa")]))
    (tmp_path / "inline.mod").write_text(json.dumps(mod))
    runs.append((tmp_path / "inline.mod", ["dump", "--dump-module"]))
    for f, argv in runs:
        code, out, err = run_cli(capsys, *argv, str(f))
        assert (code, out) == (1, ""), (argv, err)
        assert err.startswith(f"error: {f}: ") and named in err, err


@pytest.mark.parametrize("shape, minimum", [("AcyclicQuiver", 3), ("NilpotentCyclic", 2),
                                            ("TriangularPair", 5)])
def test_corpus_dim_bound_below_the_shape_minimum(capsys, shape, minimum):
    code, out, err = run_cli(capsys, "corpus", "--shape", shape, "--count", "3",
                             "--dim-bound", str(minimum - 1), "--jobs", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --dim-bound: ") and f"{minimum}..60" in err
    code, out, _ = run_cli(capsys, "corpus", "--shape", shape, "--count", "3",
                           "--dim-bound", str(minimum), "--jobs", "1", "--json")
    assert code == 0 and json.loads(out)["aggregate"]["pass"] == 3


@pytest.mark.parametrize("kind", ["gorenstein-transfer", "smoothness-transfer"])
def test_transfer_request_builds_the_tensor_once(capsys, tmp_path, monkeypatch, kind):
    # the bimodule's algebra tensor(op(C), B) serves loading, the triangular
    # extension and both restrictions
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 3)
    files = [tmp_path / n for n in ("b.json", "c.json", "m.json")]
    files[0].write_text(json.dumps(algebra_to_json(inst.b)))
    files[1].write_text(json.dumps(algebra_to_json(inst.c)))
    files[2].write_text(json.dumps(module_to_json(inst.m, algebra_ref="tensor(op(C),B)")))
    built, ordered = [], []
    real = algebra_mod._tensor
    real_order = algebra_mod._tensor_pair_order

    def counting(a, b, name):
        built.append(name)
        return real(a, b, name)

    def counting_order(a, b):
        ordered.append((a.name, b.name))
        return real_order(a, b)

    monkeypatch.setattr(algebra_mod, "_tensor", counting)
    monkeypatch.setattr(algebra_mod, "_tensor_pair_order", counting_order)
    code, out, _ = run_cli(capsys, "check", kind, *map(str, files), "--json")
    assert code == 0 and json.loads(out)["kind"] == kind
    assert built == [f"op({inst.c.name})⊗{inst.b.name}"]
    # its pair index is kept on the tensor, not rebuilt by its readers
    assert ordered == [(f"op({inst.c.name})", inst.b.name)]


def test_closed_stdout_is_a_normal_end():
    # the report is far larger than a pipe buffer, so the reader closes the
    # pipe while homkit is still writing
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "homkit.cli", "corpus", "--shape",
                             "AcyclicQuiver", "--count", "1000", "--seed", "1", "--jobs", "1",
                             "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""
