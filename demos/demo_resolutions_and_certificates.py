"""Minimal resolutions, syzygies, and certified projective dimensions.

Three behaviours on display:
  * a terminating resolution (finite pd, certified by a zero syzygy),
  * a periodic one (infinite pd, certified by an explicit isomorphism
    between two syzygies, which we re-verify by hand), and
  * honest ignorance: syzygies of the four-arrow two-point algebra grow
    linearly, so no repeat exists and the verdict stays Unknown.
"""

from functools import reduce

from homkit import from_quiver, min_resolution, pd, simple, spec_of_fixture


def dense(rows, n):
    """A module action matrix, like an iso witness, stores its non-zero rows
    only, as {row: {column: scalar}}; write it out."""
    return [[rows.get(s, {}).get(c, 0) for c in range(n)] for s in range(n)]


def matmul(F, A, B):
    """Dense product in the field's own arithmetic."""
    return [[reduce(F.add, (F.mul(a, b) for a, b in zip(row, col)), F.zero)
             for col in zip(*B)] for row in A]


def resolve_and_report(name, vertex, cutoff=12):
    a = from_quiver(spec_of_fixture(name))
    s = simple(a, vertex)
    res = min_resolution(s, cutoff)
    mults = res.multiplicity_vectors()
    print(f"\n{name}, simple at vertex {a.vertex_labels[vertex]}:")
    print(f"  cover multiplicities per degree: {mults}")
    print(f"  terminated: {res.terminated}")
    result = pd(s, cutoff)
    print(f"  pd = {result.describe()}  (syzygy dims {result.syzygy_dims})")
    if result.is_infinite:
        w = result.witness
        m, n = result.witness_modules
        F = m.field
        iso = dense(w.matrix, m.dim)
        ident = matmul(F, iso, dense(w.inverse, m.dim))
        ok = all(ident[i][j] == (F.one if i == j else F.zero)
                 for i in range(m.dim) for j in range(m.dim))
        inter = all(matmul(F, dense(m.action[x], m.dim), iso) ==
                    matmul(F, iso, dense(n.action[x], n.dim))
                    for x in range(m.algebra.dim))
        print(f"  witness re-verified: invertible={ok}, intertwines={inter}")


if __name__ == "__main__":
    resolve_and_report("FIX-A2", 0)      # finite: P_1 <- P_2
    resolve_and_report("FIX-TP1(1)", 0)  # periodic: S_1, S_2 alternate
    resolve_and_report("FIX-TP2", 0)     # growing syzygies: Unknown
