import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from _module_v1 import module_to_json_v1
from homkit import algebra as algebra_mod
from homkit import cli, corpus
from homkit.algebra import (_tensor_basis, algebra_from_json, algebra_to_json, from_quiver,
                            opposite, tensor)
from homkit.invariants import TheoremViolation
from homkit.linalg import _matmul
from homkit.modules import (Module, bimodule_from_json, bimodule_restrictions,
                            module_from_json, module_to_json)
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


def test_free_algebra_file_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "free2.qa"
    f.write_text("field Q\nquiver { vertices: 1  arrows: x: 1 -> 1, y: 1 -> 1 }\n")
    code, _, err = run_cli(capsys, "basis", str(f))
    assert code == 1
    assert "path enumeration exceeded 20000 words" in err


def test_gldim_gorenstein_smooth(capsys):
    code, out, _ = run_cli(capsys, "gldim", "FIX-A2")
    assert code == 0 and "Finite(1)" in out
    code, out, _ = run_cli(capsys, "gorenstein", "FIX-LOC")
    assert code == 0 and "Gorenstein(0,0)" in out
    code, out, _ = run_cli(capsys, "smooth", "FIX-TP1(1)")
    assert code == 0 and "not_smooth" in out


def test_smooth_cross_check_reports_a_skip_above_dim_8(capsys):
    # FIX-TP1(3) has dim 12: the cross-check is asked for but not run
    code, out, _ = run_cli(capsys, "smooth", "FIX-TP1(3)", "--cross-check")
    assert code == 0
    assert out.splitlines()[1] == "  enveloping-algebra cross-check: skipped (dim 12 > 8)"
    code, out, _ = run_cli(capsys, "smooth", "FIX-TP1(3)", "--cross-check", "--json")
    assert code == 0 and json.loads(out)["bimodule_pd"] == "skipped (dim 12 > 8)"
    # without the flag the report names no cross-check
    code, out, _ = run_cli(capsys, "smooth", "FIX-TP1(3)")
    assert code == 0 and "cross-check" not in out
    code, out, _ = run_cli(capsys, "smooth", "FIX-TP1(3)", "--json")
    assert code == 0 and "bimodule_pd" not in json.loads(out)


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


@pytest.mark.parametrize("argv, unused", [
    (["check", "two-point", "FIX-A2", "FIX-LOC"], "FIX-LOC"),
    (["check", "theorem1", "FIX-A2", "FIX-LOC", "--e", "1"], "FIX-LOC"),
    (["check", "eilenberg", "FIX-A2", "--e", "1", "--diagnostic"], "--e 1 --diagnostic"),
    (["check", "two-point", "FIX-A2", "--cutoff", "3"], "--cutoff 3"),
], ids=["two-point-file", "theorem1-file", "eilenberg-flags", "two-point-cutoff"])
def test_argument_a_check_does_not_read_is_an_input_error(capsys, argv, unused):
    # each kind declares only what it reads, so the parser names the rest
    # and nothing is computed
    assert run_cli(capsys, *argv) == (1, "", f"error: homkit: unrecognized arguments: {unused}\n")


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


@pytest.mark.parametrize("argv", [["gldim", "{d}"], ["cartan", "{d}.json"],
                                  ["corpus", "--shape", "AcyclicQuiver", "--count", "2",
                                   "--jobs", "1", "--out", "{d}"]])
def test_unreadable_path_is_input_error(capsys, tmp_path, argv):
    d = tmp_path / "dir"
    d.mkdir()
    (tmp_path / "dir.json").mkdir()
    argv = [arg.format(d=d) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: {argv[-1]}: ") and "internal error" not in err


@pytest.mark.parametrize("relations", ["(a*b)^\u00b2", "\u00b2*a*b"])
def test_non_ascii_digit_has_location(capsys, tmp_path, relations):
    f = tmp_path / "sup.qa"
    f.write_text("field Q\nquiver { vertices: 1, 2 arrows: a: 1 -> 2, b: 2 -> 1 }\n"
                 f"relations {{ {relations} }}\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "cartan", str(f))
    assert code == 1
    assert "line 3, col" in err


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
    action = [{0: {0: F.one}} if t < T.r else {} for t in range(T.dim)]
    m = Module(T, 1, action, [0])
    f = tmp_path / "m.mod"
    f.write_text(json.dumps(module_to_json_v1(m)))
    code, out, _ = run_cli(capsys, "dump", str(f), "--dump-module")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "homkit-module/2"
    code2, out2, _ = run_cli(capsys, "dump", str(f), "--dump-module")
    assert out2 == out


def test_dump_module_converts_a_dense_file_to_sparse(capsys, tmp_path):
    # a /1 file dumps to the /2 document module_to_json writes, which reads
    # back to an equal module and dumps to the same bytes
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 7)
    dense = module_to_json_v1(inst.m)
    f, g = tmp_path / "m1.mod", tmp_path / "m2.mod"
    f.write_text(json.dumps(dense))
    code, out, _ = run_cli(capsys, "dump", str(f), "--dump-module")
    assert code == 0
    doc = json.loads(out)
    assert doc == module_to_json(inst.m)
    assert module_from_json(doc) == module_from_json(dense) == inst.m
    assert inst.m.dim == 12
    assert len(json.dumps(doc["action"])) * 5 < len(json.dumps(dense["action"]))
    g.write_text(out)
    assert run_cli(capsys, "dump", str(g), "--dump-module") == (0, out, "")


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


def test_dump_module_checks_that_the_action_is_multiplicative(capsys, tmp_path):
    # one entry of c0 (x) a0 scaled by 2 keeps the rows, the weights and the
    # idempotents, so only the check on generators sees it
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 7)
    doc = module_to_json(inst.m)
    f = tmp_path / "m.mod"
    f.write_text(json.dumps(doc))
    assert run_cli(capsys, "dump", str(f), "--dump-module")[0] == 0
    assert doc["action"]["c0⊗a0"][0] == [6, 10, "1"]
    doc["action"]["c0⊗a0"][0][2] = "2"
    f.write_text(json.dumps(doc))
    assert run_cli(capsys, "dump", str(f), "--dump-module") == (
        1, "", f"error: {f}: 'e1⊗a0' then 'c0⊗e3' in op(C-42-7)⊗B-42-7 does not act as "
               "their product\n")


@pytest.mark.parametrize("reader", ["module_from_json", "bimodule_from_json"])
def test_key_error_in_a_reader_is_an_internal_error(capsys, tmp_path, monkeypatch, reader):
    # no document reaches a reader's KeyError, so one is a fault of the library
    inst, files = _transfer_files(tmp_path)
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(module_to_json(inst.m)))

    def broken(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(cli, reader, broken)
    argv = (["dump", str(inline), "--dump-module"] if reader == "module_from_json" else
            ["check", "gorenstein-transfer", *map(str, files)])
    assert run_cli(capsys, *argv) == (2, "", "internal error: KeyError: 'x'\n")


def test_check_gorenstein_transfer_files(capsys, tmp_path, one_point, loc):
    b = tmp_path / "B.qa"
    b.write_text(print_spec(spec_of_fixture("FIX-LOC")))
    c = tmp_path / "C.qa"
    c.write_text("field Q\nquiver { vertices: 1  arrows: }\n")
    T = tensor(opposite(one_point), loc)
    F = T.field
    action = [{0: {0: F.one}} if t < T.r else {} for t in range(T.dim)]
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


def test_corpus_starts_at_most_one_worker_per_instance(capsys, monkeypatch):
    # the pool is replaced by a recorder that runs the instances in this
    # process, so no worker process starts
    import concurrent.futures

    workers = []

    class Recorder:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    code, out, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "3", "--seed", "1", "--jobs", "1000000", "--json")
    assert code == 0
    assert workers == [3]
    code, serial, _ = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                              "--count", "3", "--seed", "1", "--jobs", "1", "--json")
    assert code == 0 and serial == out
    assert workers == [3]


@pytest.mark.parametrize("value", ["0", "-2", "abc", "2.5", ""])
def test_corpus_jobs_must_be_positive(capsys, value):
    code, _, err = run_cli(capsys, "corpus", "--shape", "AcyclicQuiver",
                           "--count", "1", "--seed", "1", "--jobs", value)
    assert code == 1
    assert "--jobs" in err


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
    # a non-ASCII digit is not a number
    (["check", "theorem1", "FIX-A2", "--e", "\u00b2"], "unknown vertex"),
    (["cartan", "FIX-TP1(\u00b2)"], "FIX-TP1"),
    (["corpus", "--shape", "AcyclicQuiver", "--count", "1", "--jobs", "1",
      "--field", "F\u00b2"], "unknown field"),
    # a transfer check needs C and M, and theorem1 needs --e
    (["check", "gorenstein-transfer", "FIX-A2"], "required: cfile, module"),
    (["check", "theorem1", "FIX-A2"], "required: --e"),
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


def _sparse_entry_is_a_number(doc):
    next(iter(doc["action"].values()))[0][2] = 1


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
    ("module/2", _sparse_entry_is_a_number, "row 0, column 0: scalar 1 is not a string"),
    ("module/2", _action_is_not_a_list, "is not a list of entries"),
    ("algebra", _coefficient_is_a_number, "mult entry 0: scalar 1 is not a string"),
    ("algebra", _index_out_of_range, "mult entry 0 is not [x, y, z, coefficient]"),
    ("algebra", _no_basis, "no 'basis' entry"),
], ids=["module-entry-number", "module-action-not-list", "module2-entry-number",
        "module2-action-not-list", "algebra-coefficient-number",
        "algebra-index-out-of-range", "algebra-no-basis"])
def test_malformed_json_is_an_input_error(capsys, tmp_path, kind, edit, named):
    """A malformed algebra exits 1 from load_algebra and as a module's inline
    algebra; a malformed module from the transfer checks and from dump."""
    b, c = spec_of_fixture("FIX-LOC"), spec_of_fixture("FIX-A2")
    (tmp_path / "B.qa").write_text(print_spec(b))
    (tmp_path / "C.qa").write_text(print_spec(c))
    T = tensor(opposite(from_quiver(c)), from_quiver(b))
    m = Module(T, 1, [{0: {0: T.field.one}} if t == 0 else {} for t in range(T.dim)], [0])
    mod = (module_to_json if kind == "module/2" else module_to_json_v1)(m)
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


def _tp11_dump(tmp_path, name, extra):
    """FIX-TP1(1) as homkit-algebra/1 JSON with these mult entries appended."""
    doc = algebra_to_json(from_quiver(spec_of_fixture("FIX-TP1(1)")))
    doc["mult"] += extra
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_zero_structure_constant_is_dropped(capsys, tmp_path):
    # a coefficient that parses to zero is no product, so it is dropped and
    # the reports are those of the clean file
    clean = _tp11_dump(tmp_path, "clean.json", [])
    zero = _tp11_dump(tmp_path, "zero.json", [[0, 2, 3, "0"]])
    for cmd in ("gorenstein", "stratify"):
        code, out, err = run_cli(capsys, cmd, zero)
        assert (code, err) == (0, ""), cmd
        assert out == run_cli(capsys, cmd, clean)[1], cmd


@pytest.mark.parametrize("coefficient", ["0", "5"])
def test_repeated_structure_constant_is_an_input_error(capsys, tmp_path, coefficient):
    # FIX-TP1(1)'s last product is (3, 0) at 3; a second entry for it would
    # overwrite the first, so it is rejected whatever its coefficient
    path = _tp11_dump(tmp_path, "dup.json", [[3, 0, 3, coefficient]])
    for cmd in ("gorenstein", "stratify"):
        code, out, err = run_cli(capsys, cmd, path)
        assert (code, out) == (1, ""), cmd
        assert err == f"error: {path}: mult entry 6 repeats the product (3, 0) at 3\n", cmd


def test_structure_constant_breaking_the_tags_is_an_input_error(capsys, tmp_path):
    # e_0 * e_0 at e_1 has a left tag other than e_0's, and the library
    # reads every product by its tags, so the loader rejects the entry
    path = _tp11_dump(tmp_path, "tags.json", [[0, 0, 1, "1"]])
    for cmd in ("gorenstein", "stratify"):
        code, out, err = run_cli(capsys, cmd, path)
        assert (code, out) == (1, ""), cmd
        assert err == (f"error: {path}: mult entry 6: the product (0, 0) at 1 "
                       "does not respect the vertex tags\n"), cmd


@pytest.mark.parametrize("extra, named", [
    ([2, 1, 2, "2"], "the product (2, 1) with an idempotent must be 2 with coefficient 1"),
    ([1, 3, 3, "3"], "the product (1, 3) with an idempotent must be 3 with coefficient 1"),
    ([2, 3, 0, "1"], "the radical product (2, 3) has an idempotent component at 0"),
], ids=["scaled-right-unit", "scaled-left-unit", "radical-to-idempotent"])
def test_structure_constant_breaking_the_unit_is_an_input_error(capsys, tmp_path, extra, named):
    # each entry respects the tags, but x * e_y = x, e_x * y = y and a radical
    # product lies in the radical; a scaled unit replaces FIX-TP1(1)'s own
    # entry for its product, the radical one is appended
    path = tmp_path / "unit.json"
    doc = algebra_to_json(from_quiver(spec_of_fixture("FIX-TP1(1)")))
    doc["mult"] = [e for e in doc["mult"] if e[:3] != extra[:3]] + [extra]
    path.write_text(json.dumps(doc))
    n = len(doc["mult"]) - 1
    for cmd in ("gorenstein", "stratify"):
        code, out, err = run_cli(capsys, cmd, str(path))
        assert (code, out) == (1, ""), cmd
        assert err == f"error: {path}: mult entry {n}: {named}\n", cmd


def test_idempotent_component_of_a_unit_product_is_an_input_error(capsys, tmp_path):
    # the loop 4 of nilcyc-42-17 times its idempotent e_1 gains an e_1
    # component; the tags allow it, and read unchecked it made stratify fire
    # a false det multiplicativity tripwire (exit 3)
    doc = algebra_to_json(corpus.generate(
        corpus.CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), 17))
    doc["mult"].append([4, 1, 1, "1"])
    path = tmp_path / "nilcyc-42-17.json"
    path.write_text(json.dumps(doc))
    for cmd in ("stratify", "gldim", "gorenstein"):
        code, out, err = run_cli(capsys, cmd, str(path))
        assert (code, out) == (1, ""), cmd
        assert err == (f"error: {path}: mult entry 9: the product (4, 1) with an "
                       "idempotent must be 4 with coefficient 1\n"), cmd


@pytest.mark.parametrize("edit", ["scale", "delete"])
def test_non_associative_structure_constant_is_an_input_error(edit, capsys, tmp_path):
    # in tri-42-10, (20 * 8) * 4 = 20 * (8 * 4) != 0; scaling 8 * 4 by 2, or
    # deleting the product 20 * 8 (which then reads as zero), keeps the tags
    # and the unit products but breaks that equation; read unchecked, gldim,
    # gorenstein, stratify and cartan all exited 0 with verdicts on a table
    # that is no algebra
    doc = algebra_to_json(corpus.generate(
        corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 10).a)
    assert [8, 4, 9, "1"] in doc["mult"] and [20, 8, 13, "1"] in doc["mult"]
    if edit == "scale":
        doc["mult"] = [[8, 4, 9, "2"] if e == [8, 4, 9, "1"] else e for e in doc["mult"]]
    else:
        doc["mult"] = [e for e in doc["mult"] if e[:2] != [20, 8]]
    path = tmp_path / "tri-42-10.json"
    path.write_text(json.dumps(doc))
    for cmd in ("gldim", "gorenstein", "stratify", "cartan"):
        code, out, err = run_cli(capsys, cmd, str(path))
        assert (code, out) == (1, ""), cmd
        # the product rule on A_A names y = 8 and the generator g = 4
        assert err == (f"error: {path}: 'M:0' then 'B:a0' in tri-42-10 does not act as "
                       "their product\n"), cmd


def test_missing_unit_product_is_an_input_error(capsys, tmp_path):
    # without alpha * e_2 = alpha, alpha would act as zero on the right
    path = tmp_path / "no-unit.json"
    doc = algebra_to_json(from_quiver(spec_of_fixture("FIX-TP1(1)")))
    doc["mult"].remove([2, 1, 2, "1"])
    path.write_text(json.dumps(doc))
    for cmd in ("gorenstein", "stratify"):
        code, out, err = run_cli(capsys, cmd, str(path))
        assert (code, out) == (1, ""), cmd
        assert err == f"error: {path}: basis element 2 has no unit product (2, 1)\n", cmd


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


def _transfer_files(tmp_path, index=3, edit=None, writer=module_to_json):
    """B, C and M of the TriangularPair instance tri-42-<index>, written as
    files, M by ``writer``; ``edit`` changes M's document before it is
    written."""
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), index)
    files = [tmp_path / n for n in ("b.json", "c.json", "m.json")]
    files[0].write_text(json.dumps(algebra_to_json(inst.b)))
    files[1].write_text(json.dumps(algebra_to_json(inst.c)))
    doc = writer(inst.m, algebra_ref="tensor(op(C),B)")
    if edit is not None:
        edit(inst, doc)
    files[2].write_text(json.dumps(doc))
    return inst, files


def _drop(mats, label):
    del mats[label]


def _drop_row(mats, label):
    mats[label] = mats[label][:-1]


def _number_entry(mats, label):
    mats[label][0][0] = 1


def _flip_entry(mats, label):
    mats[label][0][0] = "1" if mats[label][0][0] == "0" else "0"


def _break_radical_matrices(capsys, tmp_path, writer, edit, named):
    # the matrices of x (x) y with x in rad C^op and y in rad B are not side
    # actions, yet each is read and checked; every one of them is broken
    # here, the last first and in a file that lists them in reverse, and the
    # error names the first in T's basis order
    seen = []

    def edit_all(inst, doc):
        c, b = inst.c, inst.b
        labels = [label for (x, y), label in zip(*_tensor_basis(opposite(c), b))
                  if x >= c.r and y >= b.r]
        for label in reversed(labels):
            edit(doc["action"], label)
        doc["action"] = dict(reversed(doc["action"].items()))
        seen.append(labels[0])

    _, files = _transfer_files(tmp_path, 7, edit_all, writer)
    code, out, err = run_cli(capsys, "check", "gorenstein-transfer", *map(str, files))
    assert (code, out) == (1, "")
    assert err == f"error: {files[2]}: {named.format(seen[0])}\n"


@pytest.mark.parametrize("edit, named", [
    (_drop, "missing action matrix for basis element {!r}"),
    (_drop_row, "action matrix for {!r} has wrong shape (expected 12 rows of 12 entries)"),
    (_number_entry, "action matrix for {!r}, row 0, column 0: scalar 1 is not a string"),
    (_flip_entry, "action matrix for {!r} is not the product of its side actions"),
], ids=["missing", "wrong-shape", "number", "not-the-product"])
def test_bad_matrix_beside_the_side_actions_is_an_input_error(capsys, tmp_path, edit, named):
    _break_radical_matrices(capsys, tmp_path, module_to_json_v1, edit, named)


def _prepend(*entries):
    def edit(mats, label):
        mats[label] = [*entries, *mats[label]]
    return edit


def _toggle_entry(mats, label):
    entries = mats[label]
    if entries and entries[0][:2] == [0, 0]:
        del entries[0]
    else:
        entries.insert(0, [0, 0, "1"])


@pytest.mark.parametrize("edit, named", [
    (_prepend("x"), "action matrix for {!r}, entry 0 is not [s, t, value] with s, t in "
                    "0..11: 'x'"),
    (_prepend([12, 0, "1"]), "action matrix for {!r}, entry 0 is not [s, t, value] with "
                             "s, t in 0..11: [12, 0, '1']"),
    (_prepend([0, 0, "1"], [0, 0, "1"]), "action matrix for {!r}, entry 1 repeats or "
                                         "precedes the (s, t) before it: [0, 0, '1']"),
    (_prepend([0, 0, 1]), "action matrix for {!r}, row 0, column 0: scalar 1 is not a "
                          "string"),
    (_drop, "missing action matrix for basis element {!r}"),
    (_toggle_entry, "action matrix for {!r} is not the product of its side actions"),
], ids=["not-a-list", "out-of-range", "repeated", "number", "missing", "not-the-product"])
def test_bad_sparse_matrix_beside_the_side_actions_is_an_input_error(capsys, tmp_path, edit,
                                                                     named):
    _break_radical_matrices(capsys, tmp_path, module_to_json, edit, named)


def _move_entry(F, mats, source, target):
    """Move the first entry of the /2 matrix ``source`` to the same place in
    ``target``, so that the sum of the two matrices stays the same."""
    s, t, text = mats[source].pop(0)
    entries = {(u, w): F.parse(x) for u, w, x in mats[target]}
    entries[s, t] = F.add(entries.get((s, t), F.zero), F.parse(text))
    mats[target] = [[u, w, F.format(x)] for (u, w), x in sorted(entries.items()) if x != 0]


def _side_moves(inst, mats, sides=("B", "C^op")):
    """The (source, target) labels of the moves within a side: on B, from a
    non-zero e_i (x) y to e_i' (x) y for y in rad B, matrices that M_B sums;
    on C^op, from x (x) e_j to x (x) e_j' for x in rad C^op, which _CM sums."""
    c, b = inst.c, inst.b
    pairs, labels = _tensor_basis(opposite(c), b)
    label_of = dict(zip(pairs, labels))
    moves = []
    for (x, y), label in zip(pairs, labels):
        if not mats[label]:
            continue
        if "B" in sides and x < c.r and y >= b.r:
            moves += [(label, label_of[i, y]) for i in range(c.r) if i != x]
        if "C^op" in sides and y < b.r and x >= c.r:
            moves += [(label, label_of[x, j]) for j in range(b.r) if j != y]
    return moves


@pytest.mark.parametrize("side", ["B", "C^op"])
def test_entry_moved_within_a_side_is_an_input_error(capsys, tmp_path, side):
    # the move keeps M_B and _CM, the sums of the matrices it moves between,
    # but the file's module over the tensor is no longer a module: each
    # matrix that goes into a side sum must be the product of its sides too
    moved = []

    def edit(inst, doc):
        move = _side_moves(inst, doc["action"], (side,))[0]
        labels = _tensor_basis(opposite(inst.c), inst.b)[1]
        moved.extend(sorted(move, key=labels.index))
        _move_entry(inst.m.field, doc["action"], *move)

    _, files = _transfer_files(tmp_path, 22, edit)
    code, out, err = run_cli(capsys, "check", "gorenstein-transfer", *map(str, files))
    assert (code, out, err) == (
        1, "", f"error: {files[2]}: action matrix for {moved[0]!r} is not the product of its "
               "side actions\n")


def test_every_seeded_move_within_a_side_is_rejected():
    # one seeded move in each of the seed-42 bimodule files; none loads.  In
    # tri-42-3 and tri-42-6 every radical element acts as zero on both
    # sides, so there is nothing to move
    spec = corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair")
    unmoved = []
    for index in range(30):
        inst = corpus.generate(spec, index)
        doc = json.loads(json.dumps(module_to_json(inst.m, algebra_ref="tensor(op(C),B)")))
        assert bimodule_from_json(doc, inst.b, inst.c) == bimodule_restrictions(inst.b, inst.c,
                                                                                inst.m)
        moves = _side_moves(inst, doc["action"])
        if not moves:
            unmoved.append(index)
            continue
        _move_entry(inst.m.field, doc["action"], *random.Random(index).choice(moves))
        with pytest.raises(ValueError, match="is not the product of its side actions"):
            bimodule_from_json(doc, inst.b, inst.c)
    assert unmoved == [3, 6]


def _side_action_files(tmp_path, index, tamper=None):
    """B, C and M of tri-42-<index>, M written from its side actions
    (M_B, _CM) after ``tamper(F, right, left, weights)`` changed them, with
    the matrix of every pair x (x) y the product left[x] right[y], so that
    only the checks on the side actions themselves can fail."""
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), index)
    mb, mc = bimodule_restrictions(inst.b, inst.c, inst.m)
    right, left = list(mb.action), list(mc.action)
    F = inst.m.field
    if tamper is not None:
        tamper(F, right, left, inst.m.weights)
    pairs = _tensor_basis(opposite(inst.c), inst.b)[0]
    m = Module(inst.m.algebra, inst.m.dim, [_matmul(F, left[x], right[y]) for x, y in pairs],
               inst.m.weights)
    files = [tmp_path / n for n in ("b.json", "c.json", "m.json")]
    files[0].write_text(json.dumps(algebra_to_json(inst.b)))
    files[1].write_text(json.dumps(algebra_to_json(inst.c)))
    files[2].write_text(json.dumps(module_to_json(m, algebra_ref="tensor(op(C),B)")))
    return files


def _scale(side, x):
    def tamper(F, right, left, weights):
        acts = right if side == "B" else left
        acts[x] = {s: {t: F.mul(F.of_int(2), v) for t, v in row.items()}
                   for s, row in acts[x].items()}
    return tamper


def _entry_off_the_tags(F, right, left, weights):
    # basis element 1 of B ('c0') gets an entry between vectors of two
    # weights of C, so it moves the weight of the other side; this one
    # entry still commutes with the radical of C^op
    s, t = 0, 9
    assert weights[s] != weights[t]
    right[1] = {**right[1], s: {**right[1].get(s, {}), t: F.one}}


def _conjugate_left(F, right, left, weights):
    # _CM becomes Q (_CM) Q^-1 for Q = 1 + E_st, s != t of one weight of
    # T: still a module over C^op with the same weights, but its action no
    # longer commutes with that of B
    s, t = 1, 3
    assert weights[s] == weights[t]
    fill = {k: {k: F.one} for k in range(len(weights)) if k != s}
    q, q_inv = {**fill, s: {s: F.one, t: F.one}}, {**fill, s: {s: F.one, t: F.neg(F.one)}}
    for x in range(len(left)):
        left[x] = dict(sorted(_matmul(F, _matmul(F, q, left[x]), q_inv).items()))


@pytest.mark.parametrize("tamper, named", [
    (_entry_off_the_tags, "'c0' in B does not respect the vertex tags"),
    (_scale("B", 1), "'c0' then 'c0' in B does not act as their product"),
    (_scale("C", 3), "'c0' then 'c1' in C^op does not act as their product"),
    (_conjugate_left, "'c0' in C^op and 'c0' in B do not commute"),
], ids=["tags", "b-not-multiplicative", "cop-not-multiplicative", "do-not-commute"])
def test_bad_side_action_is_an_input_error(capsys, tmp_path, tamper, named):
    # every x (x) y is the product of its side actions, so the file passes
    # the product check; the side actions do not make M a bimodule
    files = _side_action_files(tmp_path, 21, tamper)
    code, out, err = run_cli(capsys, "check", "gorenstein-transfer", *map(str, files))
    assert (code, out, err) == (1, "", f"error: {files[2]}: {named}\n")


def test_idempotent_that_is_no_projector_is_an_input_error(capsys, tmp_path):
    # e_1 (x) e_1 scaled by 2 on one vector: the projector images still fill
    # the space, so the basis is changed, but e_1 (x) e_1 is not idempotent
    def edit(inst, doc):
        assert doc["action"]["e1⊗e1"][0] == [0, 0, "1"]
        doc["action"]["e1⊗e1"][0][2] = "2"

    _, files = _transfer_files(tmp_path, 21, edit)
    code, out, err = run_cli(capsys, "check", "gorenstein-transfer", *map(str, files))
    assert (code, out, err) == (
        1, "", f"error: {files[2]}: 'e1⊗e1' does not act as one of orthogonal idempotents\n")


def test_side_action_files_read_as_the_corpus_files(capsys, tmp_path):
    # untampered, the files of the test above give the reports of the
    # corpus' own files
    (tmp_path / "rebuilt").mkdir()
    rebuilt = _side_action_files(tmp_path / "rebuilt", 21)
    _, files = _transfer_files(tmp_path, 21)
    for kind in ("gorenstein-transfer", "smoothness-transfer"):
        want = run_cli(capsys, "check", kind, *map(str, files), "--json")
        assert want[0] == 0
        assert run_cli(capsys, "check", kind, *map(str, rebuilt), "--json") == want


def test_transfer_factors_over_different_fields_are_an_input_error(capsys, tmp_path):
    # no tensor of the two exists, so the bimodule file cannot be read
    b = tmp_path / "B.qa"
    b.write_text(print_spec(spec_of_fixture("FIX-LOC")))
    c = tmp_path / "C.qa"
    c.write_text("field F101\nquiver { vertices: 1  arrows: }\n")
    f = tmp_path / "M.mod"
    f.write_text(json.dumps({"format": "homkit-module/1", "algebra": "tensor(op(C),B)",
                             "dim": 0, "action": {}}))
    code, out, err = run_cli(capsys, "check", "gorenstein-transfer", str(b), str(c), str(f))
    assert (code, out, err) == (1, "", f"error: {f}: B and C are over different fields\n")


def test_single_byte_edits_of_input_files_never_exit_2(capsys, tmp_path):
    # 300 seeded single-byte edits (insert, delete or replace, by any byte)
    # of tri-42-7's transfer files, written as the benchmark writes them, and
    # of three fixture .qa texts, each run through two commands: every run
    # computes (exit 0) or names its bad input (exit 1), a module file that
    # is not UTF-8 included, which must not reach main as an internal error
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 7)
    texts = {"b7.json": algebra_to_json(inst.b), "c7.json": algebra_to_json(inst.c),
             "m7.json": module_to_json(inst.m, algebra_ref="tensor(op(C),B)")}
    texts = {name: json.dumps(doc, sort_keys=True).encode() for name, doc in texts.items()}
    for name in ("FIX-TP1(1)", "FIX-LOC", "FIX-A2"):
        texts[f"{name}.qa"] = print_spec(spec_of_fixture(name)).encode()
    paths = {name: str(tmp_path / name) for name in texts}
    rng = random.Random(1)
    bad, undecodable_modules = [], 0
    for _ in range(300):
        name = rng.choice(sorted(texts))
        data = bytearray(texts[name])
        pos, edit, byte = rng.randrange(len(data)), rng.choice("idr"), rng.randrange(256)
        if edit == "i":
            data.insert(pos, byte)
        elif edit == "d":
            del data[pos]
        else:
            data[pos] = byte
        for other, text in texts.items():
            Path(paths[other]).write_bytes(bytes(data) if other == name else text)
        if name.endswith(".qa"):
            runs = [["gldim", paths[name]], ["stratify", paths[name]]]
        else:
            runs = [["check", kind, paths["b7.json"], paths["c7.json"], paths["m7.json"]]
                    for kind in ("gorenstein-transfer", "smoothness-transfer")]
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                undecodable_modules += name == "m7.json"
        for argv in runs:
            code, _, err = run_cli(capsys, *argv)
            if code not in (0, 1):
                bad.append((name, pos, edit, byte, argv[:2], code, err))
    assert bad == []
    assert undecodable_modules > 0


@pytest.mark.parametrize("kind", ["gorenstein-transfer", "smoothness-transfer"])
def test_transfer_request_builds_a_tensor_only_for_an_inline_algebra(capsys, tmp_path,
                                                                       monkeypatch, kind):
    # a module file that references tensor(op(C), B) is read by its side
    # actions, so the tensor is never built; an inline algebra is compared
    # with the tensor, which is then built once
    inst, files = _transfer_files(tmp_path)
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(module_to_json(inst.m)))
    built = []
    real = algebra_mod._tensor

    def counting(a, b, name):
        built.append(name)
        return real(a, b, name)

    monkeypatch.setattr(algebra_mod, "_tensor", counting)
    code, out, _ = run_cli(capsys, "check", kind, *map(str, files), "--json")
    assert code == 0 and json.loads(out)["kind"] == kind
    assert built == []
    assert run_cli(capsys, "check", kind, *map(str, files[:2]), str(inline), "--json") == \
        (0, out, "")
    assert built == [f"op({inst.c.name})⊗{inst.b.name}"]


_TRI_42_7_REPORTS = {
    ("gorenstein-transfer", False): (
        "A = triangular(B-42-7, C-42-7, M):\n"
        "  A Gorenstein; B Gorenstein; C Gorenstein\n"
        "  pd_B M = Finite(2); pd_Cop M = Finite(0)\n"
        "  pd-form biconditional: pass\n"
        "  factors-form biconditional: pass\n"
        "  overall: pass\n"),
    ("gorenstein-transfer", True): """{
  "A": "Gorenstein",
  "B": "Gorenstein",
  "C": "Gorenstein",
  "algebra": "tri(B-42-7,C-42-7)",
  "factors_form": "pass",
  "format": "homkit-report/1",
  "kind": "gorenstein-transfer",
  "overall": "pass",
  "pd_M_over_B": "Finite(2)",
  "pd_M_over_Cop": "Finite(0)",
  "pd_form": "pass"
}
""",
    ("smoothness-transfer", False): (
        "A = triangular(B-42-7, C-42-7, M):\n"
        "  gldim A InfiniteCertified(simple 3: InfiniteCertified(repeat at 5, period 1)); "
        "B Finite(2); C InfiniteCertified(simple 0: InfiniteCertified(repeat at 1, period 1))\n"
        "  downward: inapplicable (A not smooth); upward: inapplicable (B or C not smooth); "
        "overall: vacuous\n"),
    ("smoothness-transfer", True): """{
  "A": "InfiniteCertified(simple 3: InfiniteCertified(repeat at 5, period 1))",
  "B": "Finite(2)",
  "C": "InfiniteCertified(simple 0: InfiniteCertified(repeat at 1, period 1))",
  "algebra": "tri(B-42-7,C-42-7)",
  "downward": "inapplicable (A not smooth)",
  "format": "homkit-report/1",
  "kind": "smoothness-transfer",
  "overall": "vacuous",
  "pd_M_over_B": "Finite(2)",
  "pd_M_over_Cop": "Finite(0)",
  "upward": "inapplicable (B or C not smooth)"
}
""",
}


@pytest.mark.parametrize("kind, as_json", list(_TRI_42_7_REPORTS),
                         ids=["gorenstein-text", "gorenstein-json", "smoothness-text",
                              "smoothness-json"])
def test_transfer_report_bytes_of_tri_42_7(capsys, tmp_path, kind, as_json):
    # the text and JSON reports of both transfer checks, byte for byte, on
    # the triple that the benchmark writes as tri-42-7
    _, files = _transfer_files(tmp_path, 7)
    argv = ["check", kind, *map(str, files)] + (["--json"] if as_json else [])
    assert run_cli(capsys, *argv) == (0, _TRI_42_7_REPORTS[kind, as_json], "")


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
