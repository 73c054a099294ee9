"""Record the reference verdicts that run.py checks answers against.

    python3 perfbench/record.py [--workload NAME ...]

For each workload and each recorded corpus seed (the reference seed and the
held-out seed), every request of the pool is sent once and the verdict
fields of its report are written to ``reference/<workload>.json``.  The
committed files were recorded at the commit that introduced the benchmark;
re-recording them would let a changed verdict pass unseen, so do it only
to add a workload or a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402

SEEDS = (inputs.REFERENCE_SEED, inputs.HELD_OUT_SEED)


def record_seed(cli, workload: inputs.Workload, corpus_seed: int) -> dict:
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        requests, _ = inputs.generate(workload, corpus_seed, tmp)
        entries = {}
        for req in requests:
            code, out = run.send(cli, inputs.resolve_argv(req["argv"], tmp))
            if code != 0:
                raise SystemExit(f"{req['id']}: exit {code}; nothing recorded")
            entries[req["id"]] = verdicts.record(req["kind"], json.loads(out))
    return entries


def write_reference(path: str, doc: dict) -> None:
    """JSON with one request per line, so a diff shows which verdicts moved."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"workload": {json.dumps(doc["workload"])}, "cutoff": {doc["cutoff"]}, '
                 '"seeds": {\n')
        for k, (seed, entries) in enumerate(doc["seeds"].items()):
            fh.write(f'{json.dumps(seed)}: {{\n')
            fh.write(",\n".join(f"{json.dumps(rid)}: {json.dumps(e, sort_keys=True)}"
                                for rid, e in entries.items()))
            fh.write("\n}" + (",\n" if k + 1 < len(doc["seeds"]) else "\n"))
        fh.write("}}\n")


def main() -> int:
    p = argparse.ArgumentParser(description="record reference verdicts")
    p.add_argument("--workload", action="append", choices=sorted(inputs.WORKLOADS))
    args = p.parse_args()
    inputs.import_homkit()
    from homkit import cli
    for name in args.workload or sorted(inputs.WORKLOADS):
        wl = inputs.WORKLOADS[name]
        doc = {"workload": name, "cutoff": inputs.CUTOFF,
               "seeds": {str(s): record_seed(cli, wl, s) for s in SEEDS}}
        path = os.path.join(HERE, "reference", f"{name}.json")
        write_reference(path, doc)
        und = {s: sum(e["undetermined"] for e in doc["seeds"][s].values())
               for s in doc["seeds"]}
        print(f"{name}: {path} (undetermined per corpus seed: {und})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
