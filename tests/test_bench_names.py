"""The benchmark reads per-layer metrics off spans named after homkit's
public functions; a name that is no longer wrapped reads null there.  This
guards those names from the test suite, without changing the benchmark."""

import ast
import contextlib
import io
import sys
from pathlib import Path

from homkit import cli

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
    assert tracer.counters["modules.syzygies_built"] == 6
    assert tracer.counters["modules.pd.finite"] == 4
    assert "recollement.stratify_search" in tracer.wrapped()
