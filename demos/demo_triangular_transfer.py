"""Gorenstein and smoothness transfer across a triangular extension.

A = [[B, 0], [M, C]] carries a two-recollement relative to B and C, so the
determinant identity holds outright, and the Gorenstein status of A is
governed by the projective dimensions of M on its two sides. The script
builds one well-behaved instance (M = B as a bimodule over itself) and one
obstructed instance (M the trivial simple over a self-injective B, which
has infinite projective dimension), then lets the seeded corpus repeat the
experiment in bulk.
"""

from homkit import (cartan_matrix, from_quiver, gorenstein_transfer_check,
                    smoothness_transfer_check, spec_of_fixture, tensor,
                    triangular, opposite)
from homkit.corpus import CorpusSpec, gen_triangular_pair
from homkit.invariants import _regular_bimodule
from homkit.modules import Module


def trivial_simple_bimodule(b, c):
    T = tensor(opposite(c), b)
    F = T.field
    action = [{0: {0: F.one}} if t == 0 else {} for t in range(T.dim)]
    return Module(T, 1, action, [0])


def report(label, b, c, m):
    a = triangular(b, c, m)
    print(f"\n=== {label}: A = [[B,0],[M,C]], dim {a.dim} ===")
    print(f"  det C(A) = {cartan_matrix(a).det} = "
          f"{cartan_matrix(b).det} * {cartan_matrix(c).det}")
    g = gorenstein_transfer_check(b, c, m, cutoff=12)
    g_a, g_b, g_c = g.parts  # the Gorenstein reports of A, B and C
    print(f"  Gorenstein: A {g_a.verdict}, B {g_b.verdict}, C {g_c.verdict}")
    print(f"  pd_B M = {g.pd_mb.describe()}, pd over C^op = {g.pd_mc.describe()}")
    print(f"  biconditionals: pd-form {g.outcomes['pd_form']}, "
          f"factors-form {g.outcomes['factors_form']}")
    s = smoothness_transfer_check(b, c, m, cutoff=12)
    print(f"  smoothness: downward {s.outcomes['downward']}, upward {s.outcomes['upward']}")


def corpus_sweep(count=10):
    spec = CorpusSpec(seed=7, count=count, shape="TriangularPair")
    passes = undetermined = 0
    for i in range(count):
        inst = gen_triangular_pair(spec, i)
        rep = gorenstein_transfer_check(inst.b, inst.c, inst.m, cutoff=12)
        if rep.overall == "undetermined":
            undetermined += 1
        else:
            passes += 1
    print(f"\ncorpus sweep: {passes} confirmed, {undetermined} undetermined, "
          f"0 certified failures (a failure would raise)")


if __name__ == "__main__":
    from homkit.presentation import parse_spec
    loc = from_quiver(spec_of_fixture("FIX-LOC"))
    point = from_quiver(parse_spec("field Q quiver { vertices: 1 arrows: }", name="k"))
    report("self-injective B with projective M", loc, loc, _regular_bimodule(loc))
    report("M of infinite projective dimension", loc, point,
           trivial_simple_bimodule(loc, point))
    corpus_sweep()
