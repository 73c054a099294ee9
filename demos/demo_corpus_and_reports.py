"""Seeded corpora and the versioned report formats.

Generates a few instances of each corpus shape, runs the per-shape suite
through the library API, and shows the JSON serialisation round trips:
algebras (homkit-algebra/1), modules (homkit-module/2, which lists the
non-zero entries of each action matrix; the dense homkit-module/1 is still
read), and the corpus run report (homkit-report/1), which is
byte-deterministic for a fixed seed.
"""

import json

from homkit import algebra_from_json, algebra_to_json, cartan_matrix
from homkit.cli import run_corpus
from homkit.corpus import CorpusSpec, generate
from homkit.modules import bimodule_from_json, bimodule_restrictions, module_to_json


def shape_summary(shape, count=5, seed=42):
    spec = CorpusSpec(seed=seed, count=count, shape=shape)
    print(f"\n=== {shape}, seed {seed} ===")
    for i in range(count):
        inst = generate(spec, i)
        a = inst if shape != "TriangularPair" else inst.a
        rep = cartan_matrix(a)
        print(f"  #{i}: dim {a.dim}, r {a.r}, det C = {rep.det}")


def report_determinism():
    spec = CorpusSpec(seed=42, count=5, shape="AcyclicQuiver")
    r1 = json.dumps(run_corpus(spec, cutoff=12), sort_keys=True)
    r2 = json.dumps(run_corpus(spec, cutoff=12), sort_keys=True)
    print(f"\ncorpus report bytes identical across runs: {r1 == r2}")
    doc = json.loads(r1)
    print(f"aggregate: {doc['aggregate']}, det=+1 tally {doc['plus_one_tally']}/5")


def algebra_round_trip():
    spec = CorpusSpec(seed=7, count=1, shape="NilpotentCyclic")
    a = generate(spec, 0)
    doc = algebra_to_json(a)
    b = algebra_from_json(json.loads(json.dumps(doc)))
    print(f"\nalgebra JSON round trip exact: {b == a} "
          f"(format {doc['format']}, dim {a.dim})")


def module_round_trip():
    # the bimodule M of a TriangularPair instance, written as homkit-module/2
    # and as the dense homkit-module/1 of earlier versions; both read back,
    # by M's two side actions, to the same restrictions (M_B, _CM)
    inst = generate(CorpusSpec(seed=42, count=8, shape="TriangularPair"), 7)
    m = inst.m
    sparse = module_to_json(m, algebra_ref="tensor(op(C),B)")
    F = m.field
    dense = {**sparse, "format": "homkit-module/1",
             "action": {m.algebra.labels[x]: [[F.format(mat.get(s, {}).get(t, F.zero))
                                               for t in range(m.dim)] for s in range(m.dim)]
                        for x, mat in enumerate(m.action)}}
    sides = bimodule_restrictions(inst.b, inst.c, m)
    print(f"\nbimodule of dim {m.dim} over {m.algebra.dim} tensor basis elements: "
          f"{len(json.dumps(sparse))} bytes as {sparse['format']}, "
          f"{len(json.dumps(dense))} bytes as {dense['format']}")
    for doc in (sparse, dense):
        got = bimodule_from_json(json.loads(json.dumps(doc)), inst.b, inst.c)
        print(f"  {doc['format']} reads back to M_B and _CM: {got == sides}")


if __name__ == "__main__":
    for shape in ("AcyclicQuiver", "NilpotentCyclic", "TriangularPair"):
        shape_summary(shape)
    report_determinism()
    algebra_round_trip()
    module_round_trip()
