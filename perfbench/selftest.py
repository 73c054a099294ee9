"""Self-tests of the benchmark's own checks.

    python3 perfbench/selftest.py

1. A tampered reference entry is flagged; Unknown -> decided, decided ->
   Unknown and a split found earlier in the search are not.  The held-out
   corpus seed matches its reference too.
2. The work counters and call counts of the traced run repeat exactly
   between two runs of the same requests, and on every request the self
   times sum to the request's traced time.
3. A per-layer metric whose function is gone is reported as missing.
4. Scaling by the yardstick leaves a time at the reference speed unchanged
   and halves one taken while the yardstick ran twice as slow.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402
import yardstick  # noqa: E402
from spans import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def send(cli, argv: list[str]) -> dict:
    code, out = run.send(cli, argv)
    if code != 0:
        raise SystemExit(f"{argv}: exit {code}")
    return json.loads(out)


def pool(workload: str, tmp: str, seed: int = inputs.REFERENCE_SEED):
    """The workload's requests, their reference entries and the input directory."""
    in_dir = os.path.join(tmp, f"{workload}-{seed}")
    requests, _ = inputs.generate(inputs.WORKLOADS[workload], seed, in_dir)
    with open(os.path.join(HERE, "reference", f"{workload}.json"), encoding="utf-8") as fh:
        ref = json.load(fh)["seeds"][str(seed)]
    return requests, ref, in_dir


def test_reference(cli, tmp: str) -> None:
    requests, ref, in_dir = pool("tri-transfer", tmp)
    req = requests[0]
    report = send(cli, inputs.resolve_argv(req["argv"], in_dir))
    entry = ref[req["id"]]
    expect(verdicts.compare(req["kind"], entry, report) == [],
           "untampered transfer reference matches")
    decided = next(k for k, v in entry["fields"].items() if v is not verdicts.UNKNOWN)
    tampered = copy.deepcopy(entry)
    tampered["fields"][decided] = "Finite(99)"
    expect(verdicts.compare(req["kind"], tampered, report) != [],
           f"tampered transfer reference ({decided}) is flagged")
    unknown = copy.deepcopy(entry)
    unknown["fields"][decided] = verdicts.UNKNOWN
    expect(verdicts.compare(req["kind"], unknown, report) == [],
           "Unknown in the reference, decided now: not a failure")
    expect(verdicts.compare(req["kind"], entry, {**report, decided: "Unknown"}) == [],
           "decided in the reference, Unknown now: not a failure")

    requests, ref, in_dir = pool("tri-transfer", tmp, inputs.HELD_OUT_SEED)
    req = requests[0]
    report = send(cli, inputs.resolve_argv(req["argv"], in_dir))
    expect(verdicts.compare(req["kind"], ref[req["id"]], report) == [],
           "held-out corpus seed: answer matches its reference")

    requests, ref, in_dir = pool("nilcyc-stratify", tmp)
    splits = [r for r in requests if "split_vertices" in ref[r["id"]]["tree"]]
    req = min(splits, key=lambda r: len(json.dumps(ref[r["id"]])))  # the cheapest
    report = send(cli, inputs.resolve_argv(req["argv"], in_dir))
    entry = ref[req["id"]]
    expect(verdicts.compare("stratify", entry, report) == [],
           "untampered stratify reference matches")
    tampered = copy.deepcopy(entry)
    tampered["tree"]["det"] = str(int(entry["tree"]["det"]) + 1)
    expect(verdicts.compare("stratify", tampered, report) != [],
           "tampered stratify reference (root det) is flagged")
    leaf = {k: v for k, v in entry["tree"].items() if k in ("algebra", "det", "dim", "r")}
    expect(verdicts.compare("stratify", {"tree": leaf}, report) == [],
           "leaf in the reference, split now: not a failure")
    expect(verdicts.compare("stratify", {"tree": report["tree"]}, {"tree": leaf}) != [],
           "split in the reference, leaf now: flagged")

    def split_at(vertices: list[int]) -> dict:
        tree = copy.deepcopy(report["tree"])
        tree["split_vertices"] = vertices
        return {"tree": tree}

    expect(verdicts.compare("stratify", split_at([1]), split_at([0])) == [],
           "split earlier in search order than the reference's: not a failure")
    expect(verdicts.compare("stratify", split_at([0]), split_at([1])) != [],
           "split later in search order than the reference's: flagged")


def test_counters(cli, tmp: str) -> None:
    requests, _, in_dir = pool("tri-transfer", tmp)
    picked = requests[:6]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for i, req in enumerate(picked):
                tracer.request = i
                send(cli, inputs.resolve_argv(req["argv"], in_dir))
        finally:
            tracer.uninstall()
        calls, _, _, per_request = tracer.summary()
        runs.append((dict(calls), dict(tracer.counters)))
        expect(all(math.isclose(root, own, rel_tol=1e-9, abs_tol=1e-9)
                   for _, root, own in per_request),
               "self times sum to each request's traced time")
    expect(runs[0] == runs[1] and runs[0][1]["modules.syzygies_built"] > 0,
           "call counts and work counters repeat exactly between two runs")
    expect(cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__"),
           "uninstall restores the original functions")


def test_missing() -> None:
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.name_id.pop("linalg.det_int")
    metrics, missing = run.layer_metrics(tracer, Counter(), Counter(), Counter())
    expect(metrics["linalg.det_int.calls"]["value"] is None and "linalg.det_int" in missing,
           "a per-layer metric whose function is gone is reported as missing")


def test_scale() -> None:
    ref = yardstick.REFERENCE_S
    expect(run.scale([0.01, 0.02], [(ref, ref), (ref, ref)]) == [0.01, 0.02],
           "a time at the reference speed is not scaled")
    expect(run.scale([0.02, 0.02, 0.02], [(2 * ref, 2 * ref)] * 3) == [0.01] * 3,
           "a time at half the reference speed is halved")
    expect(yardstick.measure() > 0, "the yardstick computes its expected result")


def main() -> int:
    inputs.import_homkit()
    from homkit import cli
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        test_reference(cli, tmp)
        test_counters(cli, tmp)
    test_missing()
    test_scale()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
