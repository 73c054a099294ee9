"""Minimal resolutions, syzygies, and certified projective dimensions.

Three behaviours on display:
  * a terminating resolution (finite pd, certified by a zero syzygy),
  * a periodic one (infinite pd, certified by an earlier syzygy that is a
    direct summand of a later one: an inclusion with its retraction, here
    an isomorphism with its inverse, which we re-verify by hand), and
  * honest ignorance: syzygies of the four-arrow two-point algebra grow
    linearly, so no repeat exists and the verdict stays Unknown.
"""

from functools import reduce

from homkit import from_quiver, min_resolution, pd, simple, spec_of_fixture


def dense(rows, n, m=None):
    """A module action matrix, like a witness map, stores its non-zero rows
    only, as {row: {column: scalar}}; write it out with n rows and m
    columns (n when m is not given)."""
    return [[rows.get(s, {}).get(c, 0) for c in range(n if m is None else m)]
            for s in range(n)]


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
        x, y = result.witness_modules
        F = x.field
        inc = dense(w.inclusion, x.dim, y.dim)
        ret = dense(w.retraction, y.dim, x.dim)
        ident = matmul(F, inc, ret)
        ok = all(ident[i][j] == (F.one if i == j else F.zero)
                 for i in range(x.dim) for j in range(x.dim))
        inter = all(matmul(F, dense(x.action[k], x.dim), inc) ==
                    matmul(F, inc, dense(y.action[k], y.dim)) and
                    matmul(F, dense(y.action[k], y.dim), ret) ==
                    matmul(F, ret, dense(x.action[k], x.dim))
                    for k in range(x.algebra.dim))
        print(f"  witness re-verified: inclusion*retraction = I: {ok}, "
              f"both maps intertwine: {inter}")


if __name__ == "__main__":
    resolve_and_report("FIX-A2", 0)      # finite: P_1 <- P_2
    resolve_and_report("FIX-TP1(1)", 0)  # periodic: S_1, S_2 alternate
    resolve_and_report("FIX-TP2", 0)     # growing syzygies: Unknown
