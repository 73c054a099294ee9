"""Golden report snapshot: the exit code and standard output of a fixed set
of CLI runs, compared byte for byte with ``tests/golden/cli_reports.json``.

A change that should keep every report's bytes (a refactor, a speed-up)
must leave this file passing unchanged.  A change that alters a report on
purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

and says which reports changed and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_reports.json"

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from conftest import FIXTURE_NAMES  # noqa: E402
from homkit import cli  # noqa: E402

COMMANDS = [["basis"], ["cartan"], ["gldim"], ["gorenstein"], ["smooth"], ["stratify"],
            ["check", "eilenberg"], ["check", "two-point"], ["dump"]]
SUITES = [("AcyclicQuiver", "default"), ("NilpotentCyclic", "default"),
          ("TriangularPair", "default"), ("TriangularPair", "gorenstein-transfer"),
          ("TriangularPair", "smoothness-transfer")]

# corpus seed 42 is the benchmark's reference pool, 7 its held-out pool
CORPUS_SEEDS = ["42", "7"]
# the fixtures with at least two vertices, so that --e 1 leaves one out
SPLIT_FIXTURES = ["FIX-A2", "FIX-TP1(1)", "FIX-TP1(2)", "FIX-TP2", "FIX-TRI0"]
# FIX-TP2's cross-check takes over a second, so it is left out
CROSS_CHECKED = ["FIX-A2", "FIX-TP1(1)"]

RUNS = ([cmd + [name] + fmt for cmd in COMMANDS for name in FIXTURE_NAMES
         for fmt in ([], ["--json"])]
        + [["corpus", "--shape", shape, "--suite", suite, "--seed", seed, "--count", "30",
            "--jobs", "1", "--json"] for seed in CORPUS_SEEDS for shape, suite in SUITES]
        + [["check", "theorem1", name, "--e", "1"] + fmt for name in SPLIT_FIXTURES
           for fmt in ([], ["--json"])]
        + [["check", "theorem1", "FIX-TP1(1)", "--e", "1", "--diagnostic"]]
        + [["smooth", name, "--cross-check"] for name in CROSS_CHECKED])


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_exactly_the_runs(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in RUNS)


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_report_bytes_match_the_golden_file(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {" ".join(argv): run(argv) for argv in RUNS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(doc)} runs to {GOLDEN}")
