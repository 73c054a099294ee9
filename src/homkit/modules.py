"""Right modules over a split basic Algebra.

One row format serves the whole module: a *sparse row* is a
``{column: scalar}`` dict that stores no zero.  A :class:`Module` stores
one sparse action matrix per algebra basis element (the right action on
row vectors: row s of ``action[x]`` is ``b_s * x``, so
``action(x*y) = action(x) @ action(y)``) as a ``{s: row}`` dict that holds
only the non-zero rows, in increasing s; in a weight-adapted basis row s of
x can be non-zero only when s has the left tag of x as its weight, so most
rows are zero.  Hom-space basis elements and witness maps are matrices in
that same ``{s: row}`` format.  Each basis vector carries a
weight: basis vector v has weight i when ``v * e_i == v``.  The vectors
that ``submodule``, ``spanned_submodule`` and ``quotient_module`` take and
return are sparse rows, and cover matrices, inclusions and resolution
differentials are lists of sparse rows, one per row index.  The JSON
written is sparse too: homkit-module/2 lists the non-zero entries
``[s, t, value]`` of each matrix, and the dense homkit-module/1 is still
read.  Every constructor here produces
weight-adapted bases, which keeps Hom systems block diagonal and makes
semisimple data (tops, simple multiplicities) readable off the weights.

A Module carries two caches, each filled at most once: ``_radical``, the
row space of rad M that covers and tops read, and ``_resolution``, the
steps of its minimal resolution built so far, which pd, Ext, Tor and
``min_resolution`` read and extend only as far as they need.

Left modules are represented as right modules over the opposite algebra,
and injective dimension is projective dimension of the dual on the other
side.  Projective-dimension results carry certificates: a literal zero
syzygy, or one (inclusion, retraction) pair that splits an earlier syzygy
off a later one, an isomorphism between equal dimensions (see PdResult).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field as dc_field
from itertools import compress, product as iter_product
from operator import ne

from .algebra import (Algebra, _check_products, _tensor_basis, algebra_from_json,
                      algebra_to_json, opposite, tensor)
from .linalg import Field, RowSpace, _matmul, _transpose, _vecmat, axpy, inverse

_ISO_SEARCH_SEED = 0x5EED
_EXHAUSTIVE_LIMIT = 4096
# Random draws per iso or summand search.  A random map over F2 is injective,
# or invertible, far less often than over a larger field: with 8 draws a few
# F2 syzygy chains that F3, F101 and Q certify infinite stay Unknown, and 64
# draws decide them all in the seeded monomial surveys.  Read at call time.
_ISO_RETRIES = 8
_ISO_RETRIES_F2 = 64

# Resolutions abort (soundly, to Unknown / aborted) when a cover source
# would exceed this dimension, and a proper summand test is skipped when its
# Hom system has more unknowns; both numbers are fixed by the module, not by
# its basis.  Syzygies of wild input can grow exponentially.  Read at call time.
DIM_GUARD = 1024


def _retries(F: Field) -> int:
    return _ISO_RETRIES_F2 if F.p == 2 else _ISO_RETRIES


class Module:
    """A right module with one sparse action matrix per basis element.

    ``action[x]`` is ``{s: row}`` over the non-zero rows only, in
    increasing s, so equal modules have equal ``action`` and read their
    rows in the same order.  ``_radical`` caches the row space of rad M
    (see ``_radical_rowspace``); it is built at most once per module, and a
    syzygy arrives with it already filled in.  ``_resolution`` holds the
    steps of the minimal resolution built so far (see
    ``_resolution_steps``), each built at most once per module.  The
    constructor trusts its rows, which the library builds in this format;
    ``adapt_weights`` checks the rows that come from outside.
    """

    __slots__ = ("algebra", "dim", "action", "weights", "_radical", "_resolution")

    def __init__(self, algebra: Algebra, dim: int, action: list[dict[int, dict]],
                 weights: list[int]):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.weights = list(weights)
        self._radical: RowSpace | None = None
        self._resolution: list[tuple[Module, Cover, list[dict]]] = []
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        if len(weights) != dim:
            raise ValueError("need one weight per module basis vector")

    @property
    def field(self) -> Field:
        return self.algebra.field

    def is_zero(self) -> bool:
        return self.dim == 0

    def weight_counts(self) -> list[int]:
        counts = [0] * self.algebra.r
        for w in self.weights:
            counts[w] += 1
        return counts

    def _times(self, s: int, coords: dict) -> dict:
        """Basis vector s times the algebra element with these coordinates."""
        return _vecmat(self.field, coords, {z: self.action[z].get(s) for z in coords})

    def validate(self) -> list[str]:
        """Exhaustive action checks; returns a list of failure messages."""
        F = self.field
        a = self.algebra
        fails = []
        unit = a.unit_coords()
        if any(self._times(s, unit) != {s: F.one} for s in range(self.dim)):
            fails.append("action of 1 is not the identity")
        for i in range(a.r):
            if self.action[i] != {s: {s: F.one} for s, w in enumerate(self.weights) if w == i}:
                fails.append(f"action of e_{i} not the weight projector")
        for x in range(a.dim):
            Ax = self.action[x]
            for y in range(a.dim):
                Ay = self.action[y]
                lhs = _matmul(F, Ax, Ay)
                xy = a.mult[x].get(y, {})
                rhs = {s: v for s in range(self.dim) if (v := self._times(s, xy))}
                if lhs != rhs:
                    fails.append(f"action not multiplicative at basis pair ({x},{y})")
                    return fails
        return fails

    def __eq__(self, other):
        return (isinstance(other, Module) and self.algebra == other.algebra
                and self.dim == other.dim and self.action == other.action
                and self.weights == other.weights)

    def __repr__(self):
        return f"Module(dim {self.dim} over {self.algebra!r})"


def zero_module(a: Algebra) -> Module:
    return Module(a, 0, [{} for _ in range(a.dim)], [])


def projective(a: Algebra, i: int) -> Module:
    """P_i = e_i A: basis elements with left tag i, right multiplication."""
    if not 0 <= i < a.r:
        raise ValueError(f"vertex {i} out of range")
    idx = a.paths[i]
    pos = {k: s for s, k in enumerate(idx)}
    action: list[dict[int, dict]] = [{} for _ in range(a.dim)]
    for s, k in enumerate(idx):
        for x, zs in a.mult[k].items():
            action[x][s] = {pos[z]: c for z, c in zs.items()}
    return Module(a, len(idx), action, [a.right[k] for k in idx])


def simple(a: Algebra, i: int) -> Module:
    """S_i: one-dimensional, e_i acts as 1, everything else as 0."""
    if not 0 <= i < a.r:
        raise ValueError(f"vertex {i} out of range")
    action = [{0: {0: a.field.one}} if x == i else {} for x in range(a.dim)]
    return Module(a, 1, action, [i])


def regular(a: Algebra) -> Module:
    """The right regular module A_A (which is the direct sum of the P_i).
    Row s of the action of x is b_s * x, so the action matrices are those
    of ``opposite(a).mult``, shared with it: both are immutable."""
    return Module(a, a.dim, opposite(a).mult, a.right)


def dual(m: Module) -> Module:
    """D(M) = Hom_k(M, k) as a right module over the opposite algebra."""
    action = [dict(sorted(_transpose(mat.items()).items())) for mat in m.action]
    return Module(opposite(m.algebra), m.dim, action, list(m.weights))


def injective(a: Algebra, i: int) -> Module:
    """I_i = D(e_i A^op), the injective envelope of S_i, as a module over a.

    Built in one pass off the products of opposite(a): this is the
    transpose of ``projective(opposite(a), i)``, with its rows sorted by
    index as ``dual`` gives them, and neither that projective nor its
    action is built.
    """
    op = opposite(a)
    idx = op.paths[i]
    pos = {k: s for s, k in enumerate(idx)}
    action: list[dict[int, dict]] = [{} for _ in range(a.dim)]
    for s, k in enumerate(idx):
        for x, zs in op.mult[k].items():
            mat = action[x]
            for z, c in zs.items():
                row = mat.get(pos[z])
                if row is None:
                    mat[pos[z]] = {s: c}
                else:
                    row[s] = c
    action = [dict(sorted(mat.items())) if mat else mat for mat in action]
    return Module(a, len(idx), action, [op.right[k] for k in idx])


def direct_sum(a: Algebra, parts: list[Module]) -> Module:
    weights: list[int] = []
    for p in parts:
        weights.extend(p.weights)
    action = []
    for x in range(a.dim):
        mat = {}
        off = 0
        for p in parts:
            for s, row in p.action[x].items():
                mat[off + s] = {off + t: v for t, v in row.items()}
            off += p.dim
        action.append(mat)
    return Module(a, len(weights), action, weights)


# --------------------------------------------------------------------------
# subspaces, submodules, quotients
# --------------------------------------------------------------------------


def submodule(parent: Module, vectors: list[dict]) -> tuple[Module, list[dict]]:
    """The submodule spanned by the given (weight-homogeneous) vectors.

    Returns the submodule together with its inclusion (the sub basis, in
    RREF, written as rows in parent coordinates).  The input vectors must
    already span a submodule; closure under the action is the caller's
    responsibility.
    """
    F = parent.field
    basis = RowSpace(F)
    for v in vectors:
        basis.add(v)
    weights = []
    for row, piv in zip(basis.rows, basis.pivot_cols):
        w = parent.weights[piv]
        if any(parent.weights[c] != w for c in row):
            raise ValueError("submodule basis vector mixes weights")
        weights.append(w)
    # an image lies in the span, and the rows are in full RREF with unit
    # pivots, so its coordinates are its entries at the pivot columns
    coord = {c: s for s, c in enumerate(basis.pivot_cols)}
    action = [{s: img for s, row in enumerate(basis.rows)
               if (img := {coord[c]: v for c, v in _vecmat(F, row, act).items() if c in coord})}
              for act in parent.action]
    return Module(parent.algebra, basis.rank, action, weights), basis.rows


def spanned_submodule(parent: Module, generators: list[dict]) -> tuple[Module, list[dict]]:
    """Close the generators under the algebra action, then take the span."""
    F = parent.field
    rs = RowSpace(F)
    queue = []
    for g in generators:
        if rs.add(g):
            queue.append(g)
    while queue:
        v = queue.pop()
        for x in range(parent.algebra.dim):
            w = _vecmat(F, v, parent.action[x])
            if rs.add(w):
                queue.append(w)
    return submodule(parent, rs.rows)


def quotient_module(parent: Module, vectors: list[dict]) -> Module:
    """Quotient of the parent by the submodule spanned by the vectors.

    The vectors must span a submodule; the quotient basis is the set of
    non-pivot parent coordinates.
    """
    rs = RowSpace(parent.field)
    for v in vectors:
        rs.add(v)
    free = [i for i in range(parent.dim) if i not in rs.pivot_of_col]
    pos = {i: s for s, i in enumerate(free)}
    # a residue modulo the full-RREF rows has non-pivot columns only
    action = [{pos[i]: {pos[c]: v for c, v in res.items()}
               for i, row in act.items() if i in pos and (res := rs.reduce(row))}
              for act in parent.action]
    return Module(parent.algebra, len(free), action, [parent.weights[i] for i in free])


# --------------------------------------------------------------------------
# radical, top, covers, syzygies
# --------------------------------------------------------------------------


def _radical_rowspace(m: Module) -> RowSpace:
    """The row space of rad M = M * rad A, built once and kept on the module
    from the products by the generators of rad A (see
    ``Algebra.generators``), whose sum is rad M.

    Covers, tops and top multiplicities all read this one copy, so callers
    must not modify it.
    """
    rs = m._radical
    if rs is None:
        rs = RowSpace(m.field)
        for x in m.algebra.generators:
            for row in m.action[x].values():
                rs.add(row)
        m._radical = rs
    return rs


def radical_submodule(m: Module) -> Module:
    """rad M = M * rad A."""
    return submodule(m, _radical_rowspace(m).rows)[0]


def top(m: Module) -> Module:
    """top M = M / rad M, semisimple; its weights list the simple factors."""
    return quotient_module(m, _radical_rowspace(m).rows)


def top_multiplicities(m: Module) -> list[int]:
    """Multiplicity of each simple S_i in top(M)."""
    rs = _radical_rowspace(m)
    counts = m.weight_counts()
    for piv in rs.pivot_of_col:
        counts[m.weights[piv]] -= 1
    return counts


class Cover:
    """A minimal projective cover presented by structure constants.

    ``summands`` lists one vertex i per projective copy (in vertex order).
    The copy of P_i = e_i A has as basis the paths ``algebra.paths[i]``
    (the basis elements with left tag i, in basis order), so basis element
    x acts on a source coordinate standing for path k through
    ``algebra.mult[k].get(x)``, an absent key being a zero product.
    ``matrix`` has one sparse row per source coordinate: the image of its
    path in M, read at a lift chosen off M's cached radical row space.
    Its rows are M's own action rows, and a zero image is one shared empty
    row, so they are all read-only.
    """

    def __init__(self, algebra: Algebra, summands: list[int],
                 multiplicities: list[int], matrix: list[dict]):
        self.algebra = algebra
        self.summands = summands
        self.multiplicities = multiplicities
        self.matrix = matrix
        self.source_dim = len(matrix)


_EMPTY_ROW: dict = {}  # the zero row of every cover matrix; never written


def projective_cover(m: Module) -> Cover:
    """Minimal projective cover of a nonzero module.

    The lifts are non-pivot standard coordinates modulo rad M, so the cover
    matrix rows are plain action-matrix rows.
    """
    if m.is_zero():
        raise ValueError("projective cover of the zero module")
    a = m.algebra
    pivots = _radical_rowspace(m).pivot_of_col
    lifts: list[list[int]] = [[] for _ in range(a.r)]
    for t, w in enumerate(m.weights):
        if t not in pivots:
            lifts[w].append(t)
    summands: list[int] = []
    rows: list[dict] = []
    action = m.action
    for i, ts in enumerate(lifts):
        paths = a.paths[i]
        for t in ts:
            summands.append(i)
            rows += [action[k].get(t, _EMPTY_ROW) for k in paths]
    return Cover(a, summands, [len(ts) for ts in lifts], rows)


def syzygy(m: Module) -> Module:
    """Kernel of the projective cover (zero for the zero module)."""
    if m.is_zero():
        return zero_module(m.algebra)
    return _syzygy_with_inclusion(m)[0]


def _syzygy_with_inclusion(m: Module, cov: Cover | None = None) -> tuple[Module, Cover, list[dict]]:
    """Syzygy as a Module, the cover, and the inclusion into the source.

    Only non-zero entries are touched.  The cover-matrix equations are
    solved in one sparse RREF, added shortest first (a single-unknown
    equation then needs no back-substitution, and the full RREF does not
    depend on the order), and the kernel basis it gives is the syzygy
    basis as it stands: each kernel vector has 1 at its own free column and
    0 at every other free column, so the syzygy coordinates of a kernel
    element are its entries at the free columns.  A kernel vector of weight
    i is fixed by e_i and killed by every other idempotent, so each
    idempotent's action is the identity on the rows of its weight.  A
    radical basis element x acts through the structure constants: ``v * x``
    sums ``v[c] * mult[k][x]`` over the non-zero coordinates c of v with x
    a key of ``mult[k]`` (an absent key is a zero product), where k is the
    path that source column c stands for (see :class:`Cover`).  Only free
    columns are accumulated, so the source Module is never built, and an
    image row is filtered again only where a cancellation left a zero.
    The products by the generators of rad A, added in x-then-row order,
    seed the syzygy's cached radical row space (see ``_radical_rowspace``),
    which its own cover and top multiplicities then read without another
    pass over the action.

    The cover is onto (its lifts span top M, so they generate M by
    Nakayama), so the kernel has ``source_dim - dim M`` vectors, and equal
    dimensions give the zero syzygy without building the equations.
    """
    if cov is None:
        cov = projective_cover(m)
    a = m.algebra
    if cov.source_dim == m.dim:
        return zero_module(a), cov, []
    F = m.field
    eqs = RowSpace(F)
    for eq in sorted(_transpose(enumerate(cov.matrix)).values(), key=len):
        eqs.add(eq)
    kernel = eqs.kernel_basis(cov.source_dim)
    if not kernel:
        return zero_module(a), cov, []
    free = [next(iter(v)) for v in kernel]  # see RowSpace.kernel_basis
    # per source column: its path, and a map (shared by its summand) from
    # the summand's paths to syzygy coordinates, free columns only
    path_of: list[int] = []
    coord_of: list[dict[int, int]] = []
    for i in cov.summands:
        path_of += a.paths[i]
        coord_of += [{}] * len(a.paths[i])
    for t, c in enumerate(free):
        coord_of[c][path_of[c]] = t
    # a module map keeps weights, so each kernel vector has one weight
    weights = [a.right[path_of[c]] for c in free]
    one = F.one
    r = a.r
    action: list[dict[int, dict]] = [{} for _ in range(a.dim)]
    for s, w in enumerate(weights):
        action[w][s] = {s: one}
    p = F.p
    mult = a.mult
    for s, row in enumerate(kernel):
        # out[x]: row s times the radical basis element x, in syzygy coordinates
        out: dict[int, dict] = {}
        for c, v in row.items():
            zmap = coord_of[c]
            for x, zs in mult[path_of[c]].items():
                if x < r:
                    continue
                img = out.get(x)
                if img is None:
                    img = out[x] = {}
                # inline rather than linalg.axpy, which would need zs remapped
                # through zmap for every source column; F.p is read once a step
                if p is None:
                    for z, cz in zs.items():
                        t = zmap.get(z)
                        if t is not None:
                            img[t] = img.get(t, 0) + v * cz
                else:
                    for z, cz in zs.items():
                        t = zmap.get(z)
                        if t is not None:
                            img[t] = (img.get(t, 0) + v * cz) % p
        for x, img in out.items():
            if 0 in img.values():
                img = {t: val for t, val in img.items() if val != 0}
            if img:
                action[x][s] = img
    radical = RowSpace(F)
    for x in a.generators:
        for row in action[x].values():
            radical.add(row)
    sub = Module(a, len(kernel), action, weights)
    sub._radical = radical
    return sub, cov, kernel


def _resolution_steps(m: Module, steps: int):
    """The minimal resolution of a non-zero m, one syzygy at a time.

    Yields ``(syzygy, cover, inclusion)`` for at most ``steps`` syzygies
    and ends after the first zero one.  The steps are kept on
    ``m._resolution`` and a step is built only when a caller first reads
    it, so pd, Ext, Tor and ``min_resolution`` on one module object share
    one resolution.  When a cover source would exceed ``DIM_GUARD`` it
    yields None and ends; that stop is not kept, so the guard is read at
    every call.
    """
    done = m._resolution
    for j in range(steps):
        if j == len(done):
            cur = done[-1][0] if done else m
            cov = projective_cover(cur)
            if cov.source_dim > DIM_GUARD:
                yield None
                return
            done.append(_syzygy_with_inclusion(cur, cov))
        step = done[j]
        yield step
        if step[0].is_zero():
            return


@dataclass
class ResolutionStep:
    """One term P = (+) e_i A of a minimal resolution, with
    ``multiplicities[i]`` copies of e_i A in vertex order, each on the basis
    elements with left tag i (see :class:`Cover`)."""

    multiplicities: list[int]
    differential: list[dict]  # matrix into the previous term (or onto the base)


@dataclass
class Resolution:
    base: Module
    steps: list[ResolutionStep]
    syzygies: list[Module]
    terminated: bool
    aborted: bool = False  # a cover source exceeded the dimension guard

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def multiplicity_vectors(self) -> list[list[int]]:
        return [s.multiplicities for s in self.steps]


def min_resolution(m: Module, cutoff: int) -> Resolution:
    """Minimal projective resolution out to at most ``cutoff`` terms.

    ``terminated`` is True iff some syzygy vanished within the cutoff; in
    that case the last stored step covers the final nonzero syzygy.  When a
    cover source would exceed ``DIM_GUARD`` the resolution stops early with
    ``aborted`` set.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    steps: list[ResolutionStep] = []
    syzygies: list[Module] = []
    if m.is_zero():
        return Resolution(m, steps, syzygies, True)
    incl_prev: dict[int, dict] | None = None  # the last inclusion, by row index
    for step in _resolution_steps(m, cutoff + 1):
        if step is None:
            return Resolution(m, steps, syzygies, False, aborted=True)
        sub, cov, incl = step
        if incl_prev is None:
            differential = cov.matrix
        else:
            differential = [_vecmat(m.field, row, incl_prev) for row in cov.matrix]
        steps.append(ResolutionStep(cov.multiplicities, differential))
        syzygies.append(sub)
        if sub.is_zero():
            return Resolution(m, steps, syzygies, True)
        incl_prev = dict(enumerate(incl))
    return Resolution(m, steps, syzygies, False)


# --------------------------------------------------------------------------
# Hom, iso testing, pd certificates
# --------------------------------------------------------------------------


def _hom_system(m: Module, n: Module) -> tuple[RowSpace, int, list[list[int]], list[list[int]]]:
    """The linear system of Hom_A(M, N): ``(rows, unknowns, mb, nb)``.

    A hom is a matrix F with v |-> v @ F, and the rows are the equations
    ``action_M(x) @ F == F @ action_N(x)`` for every generator x of rad A
    (see ``Algebra.generators``).  The idempotent constraints are imposed
    structurally: F is block diagonal over the common weights, which is
    exactly what the e_i equations say.  A map that commutes with the
    idempotents and the generators commutes with all of A, so the equations
    span the same row space, in the same full RREF, as those of every
    basis element.  ``mb[i]`` and ``nb[i]`` list the basis vectors of
    weight i in M and N; the unknowns are the entries of the blocks, block
    i after block i - 1, each block row by row.
    """
    if m.algebra != n.algebra:
        raise ValueError("modules must be over the same algebra")
    a = m.algebra
    F = m.field
    r = a.r
    mb = [[s for s in range(m.dim) if m.weights[s] == i] for i in range(r)]
    nb = [[t for t in range(n.dim) if n.weights[t] == i] for i in range(r)]
    off = [0] * r
    total = 0
    for i in range(r):
        off[i] = total
        total += len(mb[i]) * len(nb[i])

    def unknown(i: int, si: int, ti: int) -> int:
        return off[i] + si * len(nb[i]) + ti

    mpos = {s: si for block in mb for si, s in enumerate(block)}
    minus_one = F.neg(F.one)
    rows = RowSpace(F)
    for x in a.generators:
        i, j = a.left[x], a.right[x]
        if not mb[i] or not nb[j]:
            continue
        # column t of action_N(x) on the basis vectors of weight i
        cols: dict[int, list[tuple[int, object]]] = {}
        An = n.action[x]
        for di, d in enumerate(nb[i]):
            row = An.get(d)
            if row:
                for t, v in row.items():
                    cols.setdefault(t, []).append((di, v))
        Am = m.action[x]
        for si, s in enumerate(mb[i]):
            # sum_c Am[s][c] F_j[c][t]  (c of weight j in M)
            row = Am.get(s)
            terms = [(mpos[c], v) for c, v in row.items() if m.weights[c] == j] if row else []
            for tj, t in enumerate(nb[j]):
                vec = {unknown(j, cj, tj): v for cj, v in terms}
                # - sum_d F_i[s][d] An[d][t]  (d of weight i in N)
                axpy(F, vec, minus_one, {unknown(i, si, di): v for di, v in cols.get(t, ())})
                if vec:
                    rows.add(vec)
    return rows, total, mb, nb


def _hom_matrix(kv: dict, mb: list[list[int]], nb: list[list[int]]) -> dict[int, dict]:
    """The hom whose unknowns of :func:`_hom_system` take the values in the
    sparse vector kv, as ``{s: row}`` over its non-zero rows in increasing
    s (the format of ``Module.action``)."""
    mat = {}
    k = 0
    for ms, ns in zip(mb, nb):
        for s in ms:
            row = {t: x for ti, t in enumerate(ns) if (x := kv.get(k + ti))}
            if row:
                mat[s] = row
            k += len(ns)
    return dict(sorted(mat.items()))


def hom_space(m: Module, n: Module) -> list[dict[int, dict]]:
    """Basis of Hom_A(M, N) as matrices F with v |-> v @ F, in the format
    of ``Module.action``, read off the kernel of :func:`_hom_system`."""
    rows, total, mb, nb = _hom_system(m, n)
    return [_hom_matrix(kv, mb, nb) for kv in rows.kernel_basis(total)]


def _draw(F: Field, rng: random.Random):
    """A random scalar: uniform over F_p, and an integer in [-9, 9] over Q."""
    return F.of_int(rng.randint(-9, 9)) if F.p is None else rng.randrange(F.p)


def _solve_hom(system: tuple, values) -> dict[int, dict]:
    """The element of the Hom space with this :func:`_hom_system` whose free
    unknowns take these values, in increasing order: each pivot unknown is
    solved from its row of the full RREF (every other entry of a row sits
    in a free column), so no kernel basis is built."""
    rows, total, mb, nb = system
    F = rows.field
    free = (c for c in range(total) if c not in rows.pivot_of_col)
    kv = {c: v for c, v in zip(free, values) if v != 0}
    for pc, row in zip(rows.pivot_cols, rows.rows):
        acc = F.zero
        for c, x in row.items():
            v = kv.get(c)  # None at the row's own pivot, not yet solved
            if v is not None:
                acc = F.add(acc, F.mul(x, v))
        if acc != 0:
            kv[pc] = F.neg(acc)
    return _hom_matrix(kv, mb, nb)


def _random_hom(system: tuple, rng: random.Random) -> dict[int, dict]:
    """A random element of the Hom space with this :func:`_hom_system`."""
    rows, total, _, _ = system
    return _solve_hom(system, [_draw(rows.field, rng) for _ in range(total - rows.rank)])


def hom_dim(m: Module, n: Module) -> int:
    """dim Hom_A(M, N): the unknowns of :func:`_hom_system` less its rank,
    with no kernel basis built."""
    rows, total, _, _ = _hom_system(m, n)
    return total - rows.rank


@dataclass
class SplitWitness:
    """X as a direct summand of Y: an inclusion X -> Y and a retraction
    Y -> X, as ``{s: row}`` matrices, with inclusion @ retraction = I.
    When dim X = dim Y the inclusion is an isomorphism and the retraction
    its inverse."""

    inclusion: dict[int, dict]
    retraction: dict[int, dict]


def _iso_witness(F: Field, f: dict[int, dict], dim: int) -> SplitWitness | None:
    """f and f^-1 as a witness, or None when the square hom f is singular."""
    inv = inverse(F, [f.get(s, {}) for s in range(dim)], dim)
    return None if inv is None else SplitWitness(f, dict(enumerate(inv)))


@dataclass
class IsoResult:
    kind: str  # "iso" | "not_iso" | "undetermined"
    witness: SplitWitness | None = None
    reason: str = ""

    def __bool__(self):
        return self.kind == "iso"


def is_iso(m: Module, n: Module) -> IsoResult:
    """Decide isomorphism with one-sided error.

    NotIso verdicts are certified (dimension/weight/top mismatch, zero Hom
    space, or exhausted search over a small prime-field Hom space); a failed
    randomized search never downgrades to NotIso, only to Undetermined.
    Each try picks the free unknowns of the Hom system (``_solve_hom``).
    """
    if m.algebra != n.algebra:
        raise ValueError("is_iso needs modules over the same algebra")
    F = m.field
    if m.dim != n.dim:
        return IsoResult("not_iso", reason="dimension mismatch")
    if m.weight_counts() != n.weight_counts():
        return IsoResult("not_iso", reason="e_i-eigenspace dimensions differ")
    if m.dim == 0:
        return IsoResult("iso", SplitWitness({}, {}))
    if top_multiplicities(m) != top_multiplicities(n):
        return IsoResult("not_iso", reason="top multiplicities differ")
    system = _hom_system(m, n)
    h = system[1] - system[0].rank
    if h == 0:
        return IsoResult("not_iso", reason="Hom space is zero")
    p = F.p
    exhaustive = p is not None and p ** h <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        tries = (_solve_hom(system, values)
                 for values in iter_product(range(p), repeat=h) if any(values))
    else:
        rng = random.Random(_ISO_SEARCH_SEED + 31 * m.dim + h)
        tries = (_random_hom(system, rng) for _ in range(_retries(F)))
    for f in tries:
        if (witness := _iso_witness(F, f, m.dim)) is not None:
            return IsoResult("iso", witness)
    if exhaustive:
        return IsoResult("not_iso", reason="no invertible element of Hom (exhaustive search)")
    return IsoResult("undetermined", reason="randomized search found no invertible hom")


def _split(x: Module, y: Module) -> SplitWitness | None:
    """x as a direct summand of y, or None when a random search finds no
    split.  Each try draws f: x -> y (``_random_hom``), with the seed
    constant and the retries of ``is_iso``.  When dim x = dim y, an
    invertible f is kept with f^-1 as its retraction.  Otherwise f must be
    injective, and then g: y -> x is drawn (Hom(y, x) is set up only once
    some f is); when f @ g is invertible, f splits with g @ (f @ g)^-1."""
    into = _hom_system(x, y)
    if into[0].rank == into[1]:
        return None  # Hom(x, y) = 0
    back = None
    F = x.field
    rng = random.Random(_ISO_SEARCH_SEED + 31 * x.dim + y.dim)
    for _ in range(_retries(F)):
        f = _random_hom(into, rng)
        if x.dim == y.dim:
            if (witness := _iso_witness(F, f, x.dim)) is not None:
                return witness
            continue
        image = RowSpace(F)
        if len(f) < x.dim or sum(image.add(row) for row in f.values()) < x.dim:
            continue
        if back is None:
            back = _hom_system(y, x)
            if back[0].rank == back[1]:
                return None
        g = _random_hom(back, rng)
        inv = inverse(F, [_vecmat(F, f[s], g) for s in range(x.dim)], x.dim)
        if inv is not None:
            inv = dict(enumerate(inv))
            retraction = {t: row for t, gt in g.items() if (row := _vecmat(F, gt, inv))}
            return SplitWitness(f, retraction)
    return None


@dataclass
class PdResult:
    """Projective dimension with a certificate.

    Finite(d): the (d+1)-st syzygy is literally zero and the d-th is not.
    InfiniteCertified(first_repeat, period): ``witness`` splits the earlier
    nonzero syzygy X = number ``first_repeat - period`` off Y = number
    ``first_repeat`` (``witness_modules`` is (X, Y)) by an inclusion and a
    retraction: a ``repeat`` when dim X = dim Y (an isomorphism and its
    inverse), a ``summand repeat`` otherwise.  X is then a summand of its
    own k-th syzygy, k = ``period`` >= 1; if pd X = d were finite, that
    syzygy would be zero or of pd d - k < d, neither of which can hold a
    summand X != 0, so pd X is infinite, and with it pd of the module.
    Unknown: ``reason`` says what stopped the search, ``cutoff`` when
    ``step`` = cutoff syzygies were built, ``dim_guard`` when the cover of
    syzygy number ``step`` exceeded the dimension guard.  ``summand`` names
    the summand of a larger module that a result was certified on (see
    ``invariants.gorenstein``).
    """

    kind: str  # "finite" | "infinite" | "unknown"
    d: int | None = None
    first_repeat: int | None = None
    period: int | None = None
    cutoff: int | None = None
    syzygy_dims: list[int] = dc_field(default_factory=list)
    witness: SplitWitness | None = None
    witness_modules: tuple[Module, Module] | None = None
    summand: str | None = None
    reason: str | None = None  # Unknown only: "cutoff" | "dim_guard"
    step: int | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def describe(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.d})"
        if self.kind == "infinite":
            where = f"{self.summand}: " if self.summand else ""
            x, y = self.witness_modules
            repeat = "summand repeat" if x.dim < y.dim else "repeat"
            return (f"InfiniteCertified({where}{repeat} at {self.first_repeat}, "
                    f"period {self.period})")
        if self.reason == "dim_guard":
            return f"Unknown(dim guard at step {self.step})"
        return f"Unknown(cutoff {self.cutoff})"


def conjoin(kinds) -> str:
    """The kind of a conjunction of certified parts: ``infinite`` if any
    part is, else ``unknown`` if any part is, else ``finite`` (also for no
    parts).  A sum of modules has finite pd iff every summand has, and a
    verdict built from such parts is read off their kinds this way."""
    kinds = tuple(kinds)
    return "infinite" if "infinite" in kinds else "unknown" if "unknown" in kinds else "finite"


def _signature(m: Module) -> tuple:
    return (m.dim, tuple(m.weight_counts()), tuple(top_multiplicities(m)) if m.dim else ())


def _fits(small: tuple, big: tuple) -> bool:
    """Can a module X of signature ``small`` be a direct summand of a module
    Y of signature ``big``?  Always when they are equal (X may be Y).  A
    proper summand, Y = X (+) Z with Z != 0, needs X smaller, no larger at
    any weight or in any top multiplicity, and a top smaller in total,
    since top Z != 0; it is tested only when the Hom system of X and Y has
    at most ``DIM_GUARD`` unknowns."""
    return small == big or (
        small[0] < big[0] and sum(small[2]) < sum(big[2])
        and all(u <= v for u, v in zip(small[1], big[1]))
        and all(u <= v for u, v in zip(small[2], big[2]))
        and sum(u * v for u, v in zip(small[1], big[1])) <= DIM_GUARD)


def pd(m: Module, cutoff: int) -> PdResult:
    """Projective dimension of m, certified as documented on PdResult.

    At each step j every earlier syzygy that ``_fits`` into the new one,
    the most recent first, is tested as a direct summand of it
    (``_split``).  A cover source exceeding ``DIM_GUARD`` aborts the
    resolution and yields Unknown (never a wrong certificate).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if m.is_zero():
        return PdResult("finite", d=0, syzygy_dims=[0])
    chain = [m]
    sigs = [_signature(m)]
    dims = [m.dim]
    for j, step in enumerate(_resolution_steps(m, cutoff), 1):
        if step is None:
            return PdResult("unknown", cutoff=cutoff, syzygy_dims=dims,
                            reason="dim_guard", step=j - 1)
        nxt = step[0]
        dims.append(nxt.dim)
        if nxt.is_zero():
            return PdResult("finite", d=j - 1, syzygy_dims=dims)
        sig = _signature(nxt)
        for i in range(j - 1, -1, -1):
            if _fits(sigs[i], sig) and (witness := _split(chain[i], nxt)) is not None:
                return PdResult("infinite", first_repeat=j, period=j - i, syzygy_dims=dims,
                                witness=witness, witness_modules=(chain[i], nxt))
        chain.append(nxt)
        sigs.append(sig)
    return PdResult("unknown", cutoff=cutoff, syzygy_dims=dims, reason="cutoff", step=cutoff)


def injective_dimension(m: Module, cutoff: int) -> PdResult:
    """id(M) := pd of D(M) over the opposite algebra."""
    return pd(dual(m), cutoff)


# --------------------------------------------------------------------------
# Ext and Tor
# --------------------------------------------------------------------------


def _derived_dims(m: Module, n: Module, cutoff: int, tor: bool) -> list[int]:
    """Homology dimensions in degrees 0..cutoff of Hom_A(P, N) (Ext) or of
    P (x)_A N (Tor, with N a right module over opposite(A)) for P the
    minimal resolution of m, read off m's resolution steps.

    Both functors turn a copy of e_i A into the weight-i block of N, since
    Hom_A(e_i A, N) = N e_i and e_i A (x)_A N = e_i N, so degree l has one
    block per copy in term l.  The differential sends the generator of a
    copy of e_j A in term l+1 to the copy's first row (``paths[j][0]`` is
    e_j): its cover row, composed with the inclusion of the syzygy into
    term l, whose part in a copy of e_i A in term l is an element a of
    e_i A e_j.  Only those generator rows are composed.  Between the two
    blocks the induced map sends basis vector t to ``t * a``: out of the
    e_i A block for Ext (phi |-> phi o d), and out of the e_j A block for
    Tor (d (x) 1, where N's action is A's left action).  Homology is
    dim C_l minus the ranks of the maps in and out.  When the dimension
    guard stops the resolution, Ext raises and Tor keeps the degrees that
    are still certain.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if m.is_zero() or n.is_zero():
        return [0] * (cutoff + 1)
    if n.algebra != (opposite(m.algebra) if tor else m.algebra):
        raise ValueError("second module is over the wrong algebra")
    steps = []
    limit = cutoff
    for step in _resolution_steps(m, cutoff + 2):
        if step is None:
            if not tor:
                raise ValueError(f"the dimension guard stopped the resolution at step {len(steps)}"
                                 "; Ext cannot be certified (raise modules.DIM_GUARD)")
            limit = min(cutoff, len(steps) - 2)
            break
        steps.append(step)
    F = m.field
    a = m.algebra
    paths = a.paths
    blocks: list[list[int]] = [[] for _ in range(a.r)]
    npos = []  # the place of each basis vector of N in its weight block
    for t, w in enumerate(n.weights):
        npos.append(len(blocks[w]))
        blocks[w].append(t)
    # per term: its copies as (vertex, first row in the term, first place in
    # the degree's blocks), and the degree's dimension
    terms = []
    for _, cov, _ in steps[:limit + 2]:
        copies, row, place = [], 0, 0
        for i, mult in enumerate(cov.multiplicities):
            for _ in range(mult):
                copies.append((i, row, place))
                row += len(paths[i])
                place += len(blocks[i])
        terms.append((copies, place))
    ranks = []  # rank of the map between degrees l and l + 1
    for l in range(limit + 1):
        if l + 1 >= len(terms):
            ranks.append(0)
            continue
        lower = terms[l][0]
        owner = [(c, k) for c, (i, _, _) in enumerate(lower) for k in paths[i]]
        incl = dict(enumerate(steps[l][2]))
        cover_rows = steps[l + 1][1].matrix
        rows: dict[int, dict] = {}
        for j, first, place_j in terms[l + 1][0]:
            parts: dict[int, dict] = {}
            for col, v in _vecmat(F, cover_rows[first], incl).items():
                c, k = owner[col]
                parts.setdefault(c, {})[k] = v
            for c, elt in parts.items():
                i, _, place_i = lower[c]
                src, dst, w = (place_j, place_i, j) if tor else (place_i, place_j, i)
                # each pair of copies meets once, so no entry is written twice
                for t in blocks[w]:
                    img = n._times(t, elt)
                    if img:
                        rows.setdefault(src + npos[t], {}).update(
                            (dst + npos[u], x) for u, x in img.items())
        rs = RowSpace(F)
        for row in rows.values():
            rs.add(row)
        ranks.append(rs.rank)
    dims = [total for _, total in terms] + [0] * (limit + 1 - len(terms))
    return [dims[l] - ranks[l] - (ranks[l - 1] if l else 0) for l in range(limit + 1)]


def ext_dims(m: Module, n: Module, cutoff: int) -> list[int]:
    """dim Ext^l(M, N) for 0 <= l <= cutoff, from a minimal resolution of M;
    raises ValueError when the resolution hits the dimension guard."""
    return _derived_dims(m, n, cutoff, tor=False)


def tor_dims(m: Module, n: Module, cutoff: int) -> list[int]:
    """dim Tor_l^R(M, N) for 0 <= l <= cutoff via a minimal resolution of M.

    N is a right module over opposite(R).  When the resolution hits the
    dimension guard the list is truncated to the degrees that are still
    certain (possibly fewer than cutoff + 1).
    """
    return _derived_dims(m, n, cutoff, tor=True)


# --------------------------------------------------------------------------
# weight adaptation
# --------------------------------------------------------------------------


def _weight_basis(F: Field, dim: int, projectors: list[dict[int, dict]], labels: list[str]):
    """A basis adapted to these idempotent projectors, the actions of the
    basis elements with these labels, as ``(weights, change)``: the weight
    of each adapted basis vector, and a function that writes an action
    matrix in that basis, or None when the given basis is adapted already.
    Projectors that are not orthogonal idempotents summing to the identity
    raise ValueError."""
    # projectors that sum to the identity hold at least dim non-zero entries;
    # counted first, so that a large dim allocates nothing
    if sum(len(row) for proj in projectors for row in proj.values()) < dim:
        raise ValueError("idempotent projector images do not fill the space")
    # fast path: every projector row is zero or a unit vector at its own index
    weights: list[int | None] = [None] * dim
    diagonal = True
    for i, proj in enumerate(projectors):
        for s, row in proj.items():
            if row != {s: F.one} or weights[s] is not None:
                diagonal = False
                break
            weights[s] = i
        if not diagonal:
            break
    if diagonal and None not in weights:
        return weights, None
    # general path: rows of each projector image give the adapted basis T,
    # and x acts by T A_x T^-1
    rows: list[dict] = []
    weights2: list[int] = []
    for i, proj in enumerate(projectors):
        rs = RowSpace(F)
        for row in proj.values():
            rs.add(row)
        rows.extend(rs.rows)
        weights2.extend([i] * rs.rank)
    if len(rows) != dim:
        raise ValueError("idempotent projector images do not fill the space")
    inv = inverse(F, rows, dim)
    if inv is None:
        raise ValueError("adapted basis is not a basis")
    inv = dict(enumerate(inv))

    def change(act: dict[int, dict]) -> dict[int, dict]:
        return {s: v for s, row in enumerate(rows)
                if (v := _vecmat(F, _vecmat(F, row, act), inv))}

    # in the adapted basis each projector must be the identity on its block,
    # which holds exactly when they are orthogonal idempotents
    for i, proj in enumerate(projectors):
        if change(proj) != {s: {s: F.one} for s, w in enumerate(weights2) if w == i}:
            raise ValueError(f"{labels[i]!r} does not act as one of orthogonal idempotents")
    return weights2, change


def adapt_weights(algebra: Algebra, dim: int, action: list[dict[int, dict]]) -> Module:
    """Build a Module from raw sparse action matrices (``{s: row}`` over the
    non-zero rows, as ``Module.action``) by choosing a basis
    adapted to the idempotent projectors (see ``_weight_basis``).  The rows
    come from outside the library, so each is checked first, as ``Module`` does not,
    and the module is checked on generators (``_check_module``, with one
    block for the other side): a non-multiplicative action raises ValueError."""
    for mat in action:
        prev = -1
        for s, row in mat.items():
            if not prev < s < dim:
                raise ValueError("action rows must be stored by increasing "
                                 "index in range(dim)")
            prev = s
            if not row or min(row) < 0 or max(row) >= dim or 0 in row.values():
                raise ValueError("action rows must be sparse: non-empty, "
                                 "columns in range(dim), no stored zero")
    weights, change = _weight_basis(algebra.field, dim, action[:algebra.r], algebra.labels)
    if change is not None:
        action = [change(act) for act in action]
    m = Module(algebra, dim, action, weights)
    _check_module(m, [0] * dim, algebra.name)
    return m


# --------------------------------------------------------------------------
# bimodule helpers and serialisation (homkit-module/2, and /1 read)
# --------------------------------------------------------------------------


def _side_actions(b: Algebra, c: Algebra, pairs, action) -> tuple[list, list]:
    """The side actions ``(right, left)`` of a C-B-bimodule M, summed from
    its action matrices ``action[k]``, one per basis pair k of
    T = tensor(opposite(c), b) (``pairs``), in T's basis order.

    ``right[y]`` is the action of y in B, the sum of e_i^op (x) y over the
    vertices i of C, and ``left[x]`` that of x in C (a basis element of
    C^op), the sum of x (x) e_j over the vertices j of B; each is
    ``{s: row}`` over its non-zero rows in increasing s, as
    ``Module.action``.  The first row that reaches a side row is copied,
    and the later ones are added into the copy."""
    F = b.field
    rb, rc = b.r, c.r
    right: list[dict[int, dict]] = [{} for _ in range(b.dim)]
    left: list[dict[int, dict]] = [{} for _ in range(c.dim)]
    for (x, y), mat in zip(pairs, action):
        for acc in ([right[y]] if x < rc else []) + ([left[x]] if y < rb else []):
            for s, row in mat.items():
                if s in acc:
                    axpy(F, acc[s], F.one, row)
                else:
                    acc[s] = dict(row)
    return ([{s: acc[s] for s in sorted(acc) if acc[s]} for acc in right],
            [{s: acc[s] for s in sorted(acc) if acc[s]} for acc in left])


def bimodule_restrictions(b: Algebra, c: Algebra, m: Module) -> tuple[Module, Module]:
    """M_B and _CM of a C-B-bimodule M (a module over tensor(opposite(c), b)).

    _CM is returned as a right module over opposite(C).  These are the
    restrictions along the two algebra maps B -> T and C^op -> T that send
    y to the sum of e_i^op (x) y and x to the sum of x (x) e_j; the maps
    hold by construction, so the side actions are summed directly (see
    ``_side_actions``) and no map is checked.
    """
    if m.algebra != tensor(opposite(c), b):
        raise ValueError("bimodule is not a module over tensor(opposite(c), b)")
    return _unchecked_restrictions(b, c, m)


def _unchecked_restrictions(b: Algebra, c: Algebra, m: Module) -> tuple[Module, Module]:
    """``bimodule_restrictions`` of an m built over tensor(opposite(c), b)."""
    right, left = _side_actions(b, c, _tensor_basis(opposite(c), b)[0], m.action)
    return _restrictions(b, c, m.weights, right, left)


def _restrictions(b: Algebra, c: Algebra, weights: list[int], right, left) -> tuple[Module, Module]:
    """M_B and _CM from M's side actions (see ``_side_actions``) in a basis
    adapted to T's vertices, ``weights[s]`` = i * b.r + j, so adapted to
    B's vertex j and to C's vertex i."""
    rb = b.r
    return (Module(b, len(weights), right, [w % rb for w in weights]),
            Module(opposite(c), len(weights), left, [w // rb for w in weights]))


def _check_module(m: Module, other: list[int], side: str) -> None:
    """Raise ValueError, naming the basis elements at fault, unless m, read
    off a file in a basis adapted to its weights, is a module.  The
    idempotents act as the weight projectors, as ``_weight_basis`` makes
    them.  Every radical basis element y maps weight left[y] to weight
    right[y] and keeps the weight ``other[s]`` of each basis vector s (the
    other side's weight of a bimodule, or one block for a module on its
    own); then the product rule ``algebra._check_products`` is checked on
    generators.  ``side`` names m's algebra in the message."""
    a, own, act = m.algebra, m.weights, m.action
    # the basis vectors by their weights on this side and on the other
    block: dict[tuple[int, int], set[int]] = {}
    for s, key in enumerate(zip(own, other)):
        block.setdefault(key, set()).add(s)
    empty: frozenset = frozenset()
    for y in range(a.r, a.dim):
        ly, ry = a.left[y], a.right[y]
        for s, row in act[y].items():
            if own[s] != ly or not row.keys() <= block.get((ry, other[s]), empty):
                raise ValueError(f"{a.labels[y]!r} in {side} does not respect the "
                                 "vertex tags")
    _check_products(a, act, side)


def module_to_json(m: Module, algebra_ref: str | None = None) -> dict:
    """homkit-module/2 document: each basis label maps to the non-zero
    entries ``[s, t, value]`` of its action matrix, sorted by (s, t); the
    algebra is inline unless a reference string (file path) is supplied."""
    F = m.field
    return {
        "format": "homkit-module/2",
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(m.algebra),
        "dim": m.dim,
        "action": {m.algebra.labels[x]: [[s, t, F.format(row[t])]
                                          for s, row in m.action[x].items() for t in sorted(row)]
                   for x in range(m.algebra.dim)},
    }


def _module_header(doc: dict) -> None:
    """Raise ValueError unless doc is a homkit-module/1 or /2 document with
    a dimension and an action."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in ("homkit-module/1", "homkit-module/2"):
        raise ValueError(f"unsupported module format {fmt!r}")
    for key in ("dim", "action"):
        if key not in doc:
            raise ValueError(f"module document has no {key!r} entry")


def _dense_entries(label: str, mat, dim: int, zero_mat: list | None) -> list:
    """The entries ``[s, t, value]`` of a homkit-module/1 dense matrix that
    differ from the zero literal, by increasing (s, t).  A matrix equal to
    ``zero_mat``, dim rows of the zero literal, and a row that holds nothing
    else are skipped after one list comparison; ``zero_mat`` is built once
    a matrix of dim rows is read, so it is None only for a wrong shape."""
    if type(mat) is list and len(mat) == dim:
        if mat == zero_mat:
            return []
        zero_row = zero_mat[0]
        entries = []
        for s, row in enumerate(mat):
            if row != zero_row:
                if type(row) is not list or len(row) != dim:
                    break
                entries += ([s, t, row[t]] for t in compress(range(dim), map(ne, row, zero_row)))
        else:
            return entries
    raise ValueError(f"action matrix for {label!r} has wrong shape "
                     f"(expected {dim} rows of {dim} entries)")


def _read_action(doc: dict, F: Field, labels: list[str]) -> tuple[int, list[dict[int, dict]]]:
    """The dimension of a homkit-module/1 or /2 document and its action
    matrices, one per label in ``labels``, each ``{s: row}`` over its
    non-zero rows in increasing s, as ``Module.action``.  A /1 dense matrix
    is first turned into the /2 entries ``[s, t, value]``
    (``_dense_entries``), so both formats are checked by one code path:
    every label is present, each entry has s and t in range(dim), the
    entries of a matrix come by strictly increasing (s, t), and each value
    goes through ``Field.parse``, a zero being dropped as
    ``algebra_from_json`` drops one.  The first malformed entry in label
    order raises ValueError naming it."""
    dim = doc["dim"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"'dim' {dim!r} is not a non-negative integer")
    act = doc["action"]
    if not isinstance(act, dict):
        raise ValueError("'action' is not an object")
    dense = doc["format"] == "homkit-module/1"
    zero_mat = None
    action: list[dict[int, dict]] = []
    for label in labels:
        if label not in act:
            raise ValueError(f"missing action matrix for basis element {label!r}")
        raw = act[label]
        if dense:
            if zero_mat is None and type(raw) is list and len(raw) == dim:
                # a /1 matrix of zero literals only, as most of them are; the
                # literal is interned, as the JSON decoder's one-character
                # strings are, so that the list comparisons meet the same
                # object and compare by identity.  Built only once a matrix
                # has dim rows, so that a large 'dim' allocates nothing.
                zero_mat = [[sys.intern(F.format(F.zero))] * dim] * dim
            raw = _dense_entries(label, raw, dim, zero_mat)
        elif not isinstance(raw, list):
            raise ValueError(f"action matrix for {label!r} is not a list of entries")
        mat: dict[int, dict] = {}
        last = -1
        for n, entry in enumerate(raw):
            s, t, text = entry if type(entry) is list and len(entry) == 3 else (None,) * 3
            if not (type(s) is type(t) is int and 0 <= s < dim and 0 <= t < dim):
                raise ValueError(f"action matrix for {label!r}, entry {n} is not "
                                 f"[s, t, value] with s, t in 0..{dim - 1}: {entry!r}")
            if s * dim + t <= last:
                raise ValueError(f"action matrix for {label!r}, entry {n} repeats or "
                                 f"precedes the (s, t) before it: {entry!r}")
            last = s * dim + t
            try:
                v = F.parse(text)
            except ValueError as e:
                raise ValueError(f"action matrix for {label!r}, row {s}, "
                                 f"column {t}: {e}") from None
            if v != 0:
                mat.setdefault(s, {})[t] = v
        action.append(mat)
    return dim, action


def module_from_json(doc: dict, algebra: Algebra | None = None) -> Module:
    """Read a homkit-module/1 or /2 document (see ``_read_action``) and
    check it as ``adapt_weights`` does; a malformed one raises ValueError
    naming the entry at fault."""
    _module_header(doc)
    if algebra is None:
        ref = doc.get("algebra")
        if not isinstance(ref, dict):
            raise ValueError("module document references an external algebra "
                             "or none; pass it explicitly")
        algebra = algebra_from_json(ref)
    return adapt_weights(algebra, *_read_action(doc, algebra.field, algebra.labels))


def bimodule_from_json(doc: dict, b: Algebra, c: Algebra) -> tuple[Module, Module]:
    """Read a homkit-module/1 or /2 document of a C-B-bimodule M, a module
    over T = tensor(opposite(c), b), into its restrictions (M_B, _CM), the
    value ``bimodule_restrictions`` gives for the M in the file, without
    building T.

    The matrices are read as ``module_from_json`` reads them, in T's basis
    order (``_read_action``).  The projectors of the idempotent pairs
    e_i^op (x) e_j must be orthogonal idempotents; they give the weights
    and, when the file's basis is not adapted to them, the change of basis
    (``_weight_basis``, as ``adapt_weights``).  The side actions L_x of x in
    C^op and R_y of y in B are the sums of x (x) e_j and of e_i^op (x) y
    (``_side_actions``), and every other pair's matrix must be L_x R_y,
    since x (x) y = (x (x) 1)(1 (x) y); so must the matrices that go into
    the sums, which pins how the file splits each side action over them.
    For generators x and y also R_y L_x must be that product; with that
    each side must be a module (``_check_module``, once per side, the other
    side's weights as ``other``).  A failure raises ValueError naming the
    matrix or basis elements at fault.  A document's ``algebra`` entry is
    not read.
    """
    if b.field != c.field:
        raise ValueError("B and C are over different fields")
    _module_header(doc)
    F = b.field
    rb, rc = b.r, c.r
    pairs, labels = _tensor_basis(opposite(c), b)
    dim, action = _read_action(doc, F, labels)
    # T's basis order puts the idempotent pairs first
    weights, change = _weight_basis(F, dim, action[:rc * rb], labels)
    right, left = _side_actions(b, c, pairs, action)
    gens_c, gens_b = set(c.generators), set(b.generators)
    for k, (x, y) in enumerate(pairs):
        if x < rc and y < rb:
            continue
        product = _matmul(F, left[x], right[y])
        if action[k] != product:
            raise ValueError(f"action matrix for {labels[k]!r} is not the product "
                             "of its side actions")
        if x in gens_c and y in gens_b and product != _matmul(F, right[y], left[x]):
            raise ValueError(f"{c.labels[x]!r} in C^op and {b.labels[y]!r} in B do not "
                             "commute")
    if change is not None:
        right = [change(act) for act in right]
        left = [change(act) for act in left]
    mb, mc = _restrictions(b, c, weights, right, left)
    _check_module(mb, mc.weights, "B")
    _check_module(mc, mb.weights, "C^op")
    return mb, mc
