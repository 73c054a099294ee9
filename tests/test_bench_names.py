"""The benchmark reads per-layer metrics off spans named after homkit's
public functions; a name that is no longer wrapped reads null there.  This
guards those names from the test suite, without changing the benchmark."""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

from homkit import cli, corpus
from homkit.algebra import algebra_to_json
from homkit.modules import module_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAME_LISTS = ("TIMED", "SELF_ONLY", "SYZYGY_STEP")


def _benchmark_names():
    """The span names that perfbench/run.py lists, read without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in NAME_LISTS:
                names[target.id] = ast.literal_eval(node.value)
    assert sorted(names) == sorted(NAME_LISTS)
    return [n for key in NAME_LISTS for n in names[key]]


def _spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans


def test_every_benchmark_name_is_a_span():
    spans = _spans()
    targets = {span for span, *_ in spans.Tracer()._targets()}
    wanted = _benchmark_names() + ["recollement.stratify_search"]
    assert len(wanted) > 20
    assert [n for n in wanted if n not in targets] == []


def test_traced_request_fills_the_work_counters():
    tracer = _spans().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["stratify", "FIX-TRI0", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    # the counter reads pd's results only; Tor reuses the syzygies pd built
    assert tracer.counters["modules.syzygies_built"] == 5
    assert tracer.counters["modules.pd.finite"] == 4
    assert "recollement.stratify_search" in tracer.wrapped()


def test_traced_transfer_requests_keep_their_work_counts(tmp_path):
    # one benchmark request of each transfer kind on tri-42-7; the counts
    # are syzygies built, summed cover source dimension and RowSpace.add
    # calls.  The last counts the rows that radicals and Hom systems read
    # off the generators of rad A, and the summand tests pd makes.  Here
    # B has finite global dimension, so gorenstein reads B's verdict off
    # its simples and resolves none of B's injectives.  An algebra and its
    # opposite share one list of generators, computed once
    inst = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 7)
    files = []
    for name, doc in (("b.json", algebra_to_json(inst.b)), ("c.json", algebra_to_json(inst.c)),
                      ("m.json", module_to_json(inst.m, algebra_ref="tensor(op(C),B)"))):
        (tmp_path / name).write_text(json.dumps(doc))
        files.append(str(tmp_path / name))
    spans = _spans()
    for kind, counts in (("gorenstein-transfer", (44, 521, 473)),
                         ("smoothness-transfer", (22, 152, 179))):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["check", kind, *files, "--json", "--cutoff", "12"])
        finally:
            tracer.uninstall()
        assert code == 0, kind
        calls = tracer.summary()[0]
        assert (tracer.counters["modules.syzygies_built"],
                tracer.counters["modules.cover_source_dim_sum"],
                calls["linalg.RowSpace.add"]) == counts, kind


def test_traced_stratify_request_keeps_its_work_counts(tmp_path):
    # one benchmark request on nilcyc-42-1, whose stratifying checks compute
    # Tor seven times.  Tor reads the resolution steps kept on its module
    # and never calls modules.min_resolution, so the syzygies it builds past
    # pd's stop are not counted; the covers it builds are.  The RowSpace.add
    # calls pin Tor's path, where a syzygy's radical is built only if a
    # cover or top reads it
    a = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), 1)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algebra_to_json(a)))
    tracer = _spans().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["stratify", str(path), "--json", "--cutoff", "12"])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = tracer.summary()[0]
    assert calls["modules.tor_dims"] == 7
    assert "modules.min_resolution" not in calls
    assert (tracer.counters["modules.syzygies_built"],
            tracer.counters["modules.syzygy_dim_sum"],
            tracer.counters["modules.cover_source_dim_sum"],
            calls["linalg.RowSpace.add"]) == (22, 16, 158, 220)
