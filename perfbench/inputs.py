"""Workload definitions and input generation for the homkit benchmark.

Run as a script, this is the benchmark's set-up step: it imports homkit
from ``src/`` of the checkout, generates one workload's instance pool with
``homkit.corpus`` and dumps it as ``homkit-algebra/1`` / ``homkit-module/1``
JSON, so that the program under test only ever receives files:

    python3 perfbench/inputs.py --workload nilcyc-stratify --corpus-seed 42 --out DIR

It prints one JSON line: the set-up time (import + generate + dump), the
median yardstick time right after it (see ``yardstick.py``) and a digest of
everything it wrote.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before homkit is imported

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

REFERENCE_SEED = 42   # corpus seed of the gated runs; references recorded on it
HELD_OUT_SEED = 7     # second recorded corpus seed, for checking a claim off-tune
CUTOFF = 12           # the CLI default
YARDSTICK_REPEATS = 15  # host-speed samples taken after each set-up


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str         # corpus shape
    count: int         # corpus instances in the pool
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("nilcyc-stratify", "NilpotentCyclic", 30,
             "recollement layer: stratify search whose gldim and syzygy chains "
             "set a heavy tail"),
    Workload("tri-transfer", "TriangularPair", 30,
             "modules layer on the largest algebras: D(A) and simple resolutions, "
             "covers, hom spaces and iso search"),
)}


def import_homkit():
    """Import homkit from src/ of this checkout and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import homkit
    if not os.path.abspath(homkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"homkit imported from {homkit.__file__}, not from {SRC}")
    return homkit


def _dump(path: str, doc: dict, digest) -> None:
    text = json.dumps(doc, sort_keys=True)
    digest.update(os.path.basename(path).encode() + b"\0" + text.encode())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def generate(workload: Workload, corpus_seed: int, out_dir: str):
    """Write the workload's inputs into ``out_dir``.

    Returns the request list and a hex digest of the files written.  A
    request is ``{"id", "kind", "argv"}``; argv names files relative to
    ``out_dir`` with the prefix ``@``.
    """
    from homkit import corpus
    from homkit.algebra import algebra_to_json
    from homkit.modules import module_to_json

    os.makedirs(out_dir, exist_ok=True)
    digest = hashlib.sha256()
    requests = []
    spec = corpus.CorpusSpec(seed=corpus_seed, count=workload.count, shape=workload.shape)
    for i in range(workload.count):
        inst = corpus.generate(spec, i)
        if workload.shape == "TriangularPair":
            b, c, m = f"b{i}.json", f"c{i}.json", f"m{i}.json"
            _dump(os.path.join(out_dir, b), algebra_to_json(inst.b), digest)
            _dump(os.path.join(out_dir, c), algebra_to_json(inst.c), digest)
            _dump(os.path.join(out_dir, m),
                  module_to_json(inst.m, algebra_ref="tensor(op(C),B)"), digest)
            for kind in ("gorenstein-transfer", "smoothness-transfer"):
                requests.append({"id": f"{kind} {inst.a.name}", "kind": kind,
                                 "argv": ["check", kind, "@" + b, "@" + c, "@" + m,
                                          "--json"]})
            continue
        name = f"a{i}.json"
        _dump(os.path.join(out_dir, name), algebra_to_json(inst), digest)
        requests.append({"id": f"stratify {inst.name}", "kind": "stratify",
                         "argv": ["stratify", "@" + name, "--json"]})
    return requests, digest.hexdigest()


def resolve_argv(argv: list[str], in_dir: str) -> list[str]:
    out = [os.path.join(in_dir, a[1:]) if a.startswith("@") else a for a in argv]
    out.extend(["--cutoff", str(CUTOFF)])
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--corpus-seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    import_homkit()
    requests, digest = generate(WORKLOADS[args.workload], args.corpus_seed, args.out)
    with open(os.path.join(args.out, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(requests, fh)
    elapsed = time.perf_counter() - _T0
    import statistics  # imported after the clock stopped, so set-up time excludes them
    import yardstick
    stick = statistics.median(yardstick.measure() for _ in range(YARDSTICK_REPEATS))
    print(json.dumps({"setup_s": elapsed, "yardstick_s": stick, "digest": digest,
                      "requests": len(requests)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
