"""Right modules over a split basic Algebra.

One row format serves the whole module: a *sparse row* is a
``{column: scalar}`` dict that stores no zero, and a matrix is a list of
sparse rows.  A :class:`Module` stores one such matrix per algebra basis
element (the right action on row vectors: row s of ``action[x]`` is
``b_s * x``, so ``action(x*y) = action(x) @ action(y)``) together with a
weight per basis vector: basis vector v has weight i when ``v * e_i == v``.
The vectors that ``submodule``, ``spanned_submodule`` and
``quotient_module`` take and return, cover matrices, inclusions and
resolution differentials are sparse rows too.  Only Hom-space bases and
isomorphism witnesses, which go through dense RREF, and the
homkit-module/1 JSON are dense.  Every constructor here produces
weight-adapted bases, which keeps Hom systems block diagonal and makes
semisimple data (tops, simple multiplicities) readable off the weights.

Left modules are represented as right modules over the opposite algebra,
and injective dimension is projective dimension of the dual on the other
side.  Projective-dimension results carry certificates: Finite means a
literal zero syzygy, InfiniteCertified means an explicitly verified
isomorphism between two syzygies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import product as iter_product

from .algebra import Algebra, algebra_from_json, algebra_to_json, opposite
from .linalg import Field, Matrix, RowSpace

_ISO_SEARCH_SEED = 0x5EED
_ISO_RETRIES = 8
_EXHAUSTIVE_LIMIT = 4096

# Resolutions abort (soundly, to Unknown / aborted) when a cover source
# would exceed this dimension; syzygies of wild input can grow
# exponentially and the guard keeps worst cases at desk scale.
DIM_GUARD = 512


def _vecmat(F: Field, v: dict, A) -> dict:
    """The sparse row ``v @ A``; ``A[c]`` is the sparse row for column c of v."""
    out: dict = {}
    for i, a in v.items():
        for j, b in A[i].items():
            out[j] = F.add(out.get(j, F.zero), F.mul(a, b))
    return {j: x for j, x in out.items() if x != 0}


def _matmul(F: Field, A: list[dict], B) -> list[dict]:
    return [_vecmat(F, row, B) for row in A]


def _transpose(rows: list[dict], ncols: int) -> list[dict]:
    out: list[dict] = [{} for _ in range(ncols)]
    for s, row in enumerate(rows):
        for t, x in row.items():
            out[t][s] = x
    return out


class Module:
    """A right module with one sparse action matrix per basis element.

    ``_radical`` caches the row space of rad M (see ``_radical_rowspace``);
    it is built at most once per module, and a syzygy arrives with it
    already filled in.
    """

    __slots__ = ("algebra", "dim", "action", "weights", "_radical")

    def __init__(self, algebra: Algebra, dim: int, action: list[list[dict]],
                 weights: list[int]):
        self.algebra = algebra
        self.dim = dim
        self.action = action
        self.weights = list(weights)
        self._radical: RowSpace | None = None
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        if len(weights) != dim:
            raise ValueError("need one weight per module basis vector")
        for mat in action:
            if len(mat) != dim:
                raise ValueError("need one action row per module basis vector")
            for row in mat:
                if row and (min(row) < 0 or max(row) >= dim or 0 in row.values()):
                    raise ValueError("action rows must be sparse: columns in "
                                     "range(dim), no stored zero")

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
        return _vecmat(self.field, coords, {z: self.action[z][s] for z in coords})

    def validate(self) -> list[str]:
        """Exhaustive action checks; returns a list of failure messages."""
        F = self.field
        a = self.algebra
        fails = []
        unit = a.unit_coords()
        if any(self._times(s, unit) != {s: F.one} for s in range(self.dim)):
            fails.append("action of 1 is not the identity")
        for i in range(a.r):
            if any(row != ({s: F.one} if self.weights[s] == i else {})
                   for s, row in enumerate(self.action[i])):
                fails.append(f"action of e_{i} not the weight projector")
        for x in range(a.dim):
            Ax = self.action[x]
            for y in range(a.dim):
                lhs = _matmul(F, Ax, self.action[y])
                rhs = [self._times(s, a.mult[x][y]) for s in range(self.dim)]
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
    return Module(a, 0, [[] for _ in range(a.dim)], [])


def projective(a: Algebra, i: int) -> Module:
    """P_i = e_i A: basis elements with left tag i, right multiplication."""
    if not 0 <= i < a.r:
        raise ValueError(f"vertex {i} out of range")
    idx = [k for k in range(a.dim) if a.left[k] == i]
    pos = {k: s for s, k in enumerate(idx)}
    action = [[{pos[z]: c for z, c in a.mult[k][x].items()} for k in idx]
              for x in range(a.dim)]
    return Module(a, len(idx), action, [a.right[k] for k in idx])


def simple(a: Algebra, i: int) -> Module:
    """S_i: one-dimensional, e_i acts as 1, everything else as 0."""
    if not 0 <= i < a.r:
        raise ValueError(f"vertex {i} out of range")
    action = [[{0: a.field.one}] if x == i else [{}] for x in range(a.dim)]
    return Module(a, 1, action, [i])


def regular(a: Algebra) -> Module:
    """The right regular module A_A (which is the direct sum of the P_i)."""
    action = [[dict(a.mult[s][x]) for s in range(a.dim)] for x in range(a.dim)]
    return Module(a, a.dim, action, list(a.right))


def dual(m: Module) -> Module:
    """D(M) = Hom_k(M, k) as a right module over the opposite algebra."""
    action = [_transpose(mat, m.dim) for mat in m.action]
    return Module(opposite(m.algebra), m.dim, action, list(m.weights))


def injective(a: Algebra, i: int) -> Module:
    """I_i = D(e_i A^op), the injective envelope of S_i, as a module over a."""
    return dual(projective(opposite(a), i))


def direct_sum(a: Algebra, parts: list[Module]) -> Module:
    weights: list[int] = []
    for p in parts:
        weights.extend(p.weights)
    action = []
    for x in range(a.dim):
        mat = []
        off = 0
        for p in parts:
            mat.extend({off + t: v for t, v in row.items()} for row in p.action[x])
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
    action = []
    for x in range(parent.algebra.dim):
        act = parent.action[x]
        action.append([{coord[c]: v for c, v in _vecmat(F, row, act).items() if c in coord}
                       for row in basis.rows])
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
    action = [[{pos[c]: v for c, v in rs.reduce(parent.action[x][i]).items()} for i in free]
              for x in range(parent.algebra.dim)]
    return Module(parent.algebra, len(free), action, [parent.weights[i] for i in free])


# --------------------------------------------------------------------------
# radical, top, covers, syzygies
# --------------------------------------------------------------------------


def _radical_rowspace(m: Module) -> RowSpace:
    """The row space of rad M = M * rad A, built once and kept on the module.

    Covers, tops and top multiplicities all read this one copy, so callers
    must not modify it.
    """
    rs = m._radical
    if rs is None:
        rs = RowSpace(m.field)
        a = m.algebra
        for x in range(a.r, a.dim):
            for row in m.action[x]:
                if row:
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
    The copy of P_i = e_i A has as basis the paths ``paths[i]`` (the basis
    elements with left tag i, in basis order), so basis element x acts on a
    source coordinate standing for path k through ``algebra.mult[k][x]``.
    ``matrix`` has one sparse row per source coordinate: the image of its
    path in M, read at a lift chosen off M's cached radical row space.  The
    block-diagonal source Module is only built on demand.
    """

    def __init__(self, algebra: Algebra, summands: list[int],
                 multiplicities: list[int], matrix: list[dict],
                 paths: dict[int, list[int]]):
        self.algebra = algebra
        self.summands = summands
        self.multiplicities = multiplicities
        self.matrix = matrix
        self.paths = paths
        self.source_dim = sum(len(paths[i]) for i in summands)
        self._source: Module | None = None

    @property
    def source(self) -> Module:
        if self._source is None:
            parts = {i: projective(self.algebra, i) for i in self.paths}
            self._source = direct_sum(self.algebra, [parts[i] for i in self.summands])
        return self._source


def projective_cover(m: Module) -> Cover:
    """Minimal projective cover of a nonzero module.

    The lifts are non-pivot standard coordinates modulo rad M, so the cover
    matrix rows are plain action-matrix rows.
    """
    if m.is_zero():
        raise ValueError("projective cover of the zero module")
    a = m.algebra
    rs = _radical_rowspace(m)
    pivots = set(rs.pivot_of_col)
    lifts_by_vertex: dict[int, list[int]] = {}
    for t in range(m.dim):
        if t not in pivots:
            lifts_by_vertex.setdefault(m.weights[t], []).append(t)
    mults = [len(lifts_by_vertex.get(i, ())) for i in range(a.r)]
    summands: list[int] = []
    rows: list[dict] = []
    paths: dict[int, list[int]] = {}
    for i in range(a.r):
        if mults[i] == 0:
            continue
        pidx = paths[i] = [k for k in range(a.dim) if a.left[k] == i]
        for t in lifts_by_vertex[i]:
            summands.append(i)
            for k in pidx:
                rows.append(m.action[k][t])
    return Cover(a, summands, mults, rows, paths)


def syzygy(m: Module) -> Module:
    """Kernel of the projective cover (zero for the zero module)."""
    if m.is_zero():
        return zero_module(m.algebra)
    return _syzygy_with_inclusion(m)[0]


def _syzygy_with_inclusion(m: Module, cov: Cover | None = None) -> tuple[Module, Cover, list[dict]]:
    """Syzygy as a Module, the cover, and the inclusion into the source.

    Only non-zero entries are touched.  The cover-matrix equations are
    solved in one sparse RREF, and the kernel basis it gives is the syzygy
    basis as it stands: each kernel vector has 1 at its own free column and
    0 at every other free column, so the syzygy coordinates of a kernel
    element are its entries at the free columns.  A kernel row v acts
    through the structure constants: ``v * x`` sums ``v[c] * mult[k][x]``
    over the non-zero coordinates c of v, where k is the path that source
    column c stands for (see :class:`Cover`).  Only free columns are
    accumulated, so the source Module is never built.  The products by the
    radical basis elements, added in x-then-row order, seed the syzygy's
    cached radical row space (see ``_radical_rowspace``), which its own
    cover and top multiplicities then read without another pass over the
    action.

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
    for eq in _transpose(cov.matrix, m.dim):
        if eq:
            eqs.add(eq)
    kernel = eqs.kernel_basis(cov.source_dim)
    if not kernel:
        return zero_module(a), cov, []
    d = len(kernel)
    # kernel_basis lists its vectors in free-column order
    coord = {c: s for s, c in enumerate(c for c in range(cov.source_dim)
                                          if c not in eqs.pivot_of_col)}
    # per source column: its path, and a map from the paths of its summand
    # to syzygy coordinates (free columns only)
    path_of: list[int] = []
    coord_of: list[dict[int, int]] = []
    off = 0
    for i in cov.summands:
        pidx = cov.paths[i]
        zmap = {k: coord[off + s] for s, k in enumerate(pidx) if off + s in coord}
        path_of.extend(pidx)
        coord_of.extend([zmap] * len(pidx))
        off += len(pidx)
    weights = [0] * d
    for fc, s in coord.items():
        w = weights[s] = a.right[path_of[fc]]
        if any(a.right[path_of[c]] != w for c in kernel[s]):
            raise AssertionError("kernel basis vector mixes weights")
    zero = F.zero
    products: dict[int, list[tuple[int, dict]]] = {}  # path k -> non-zero k * x
    # images[x][s]: the syzygy coordinates of row s times x, filled in
    # row order and only where the product is non-zero
    images: list[dict[int, dict[int, object]]] = [{} for _ in range(a.dim)]
    for s, row in enumerate(kernel):
        for c, v in row.items():
            k = path_of[c]
            prods = products.get(k)
            if prods is None:
                prods = products[k] = [(x, zs) for x, zs in enumerate(a.mult[k]) if zs]
            zmap = coord_of[c]
            for x, zs in prods:
                img = images[x].get(s)
                if img is None:
                    img = images[x][s] = {}
                for z, cz in zs.items():
                    t = zmap.get(z)
                    if t is not None:
                        img[t] = F.add(img.get(t, zero), F.mul(v, cz))
    action = [[{t: val for t, val in by_row[s].items() if val != 0} if s in by_row else {}
               for s in range(d)] for by_row in images]
    radical = RowSpace(F)
    for x in range(a.r, a.dim):
        for row in action[x]:
            if row:
                radical.add(row)
    sub = Module(a, d, action, weights)
    sub._radical = radical
    return sub, cov, kernel


@dataclass
class ResolutionStep:
    multiplicities: list[int]
    module: Module
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


def min_resolution(m: Module, cutoff: int,
                   dim_guard: int | None = DIM_GUARD) -> Resolution:
    """Minimal projective resolution out to at most ``cutoff`` terms.

    ``terminated`` is True iff some syzygy vanished within the cutoff; in
    that case the last stored step covers the final nonzero syzygy.  When a
    cover source would exceed ``dim_guard`` the resolution stops early with
    ``aborted`` set (pass None to lift the guard).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    steps: list[ResolutionStep] = []
    syzygies: list[Module] = []
    if m.is_zero():
        return Resolution(m, steps, syzygies, True)
    cur = m
    incl_prev: list[dict] | None = None
    for k in range(cutoff + 1):
        cov = projective_cover(cur)
        if dim_guard is not None and cov.source_dim > dim_guard:
            return Resolution(m, steps, syzygies, False, aborted=True)
        sub, cov, incl = _syzygy_with_inclusion(cur, cov)
        if k == 0:
            differential = cov.matrix
        else:
            differential = _matmul(m.field, cov.matrix, incl_prev)
        steps.append(ResolutionStep(cov.multiplicities, cov.source, differential))
        syzygies.append(sub)
        if sub.is_zero():
            return Resolution(m, steps, syzygies, True)
        cur = sub
        incl_prev = incl
    return Resolution(m, steps, syzygies, False)


# --------------------------------------------------------------------------
# Hom, iso testing, pd certificates
# --------------------------------------------------------------------------


def hom_space(m: Module, n: Module) -> list[list[list]]:
    """Basis of Hom_A(M, N) as matrices F with v |-> v @ F.

    Solves ``action_M(x) @ F == F @ action_N(x)`` for every algebra basis
    element x.  The idempotent constraints are imposed structurally: F is
    block diagonal over the common weights, which is exactly what the e_i
    equations say.
    """
    if m.algebra != n.algebra:
        raise ValueError("hom_space needs modules over the same algebra")
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
    rows = RowSpace(F)
    for x in range(r, a.dim):
        i, j = a.left[x], a.right[x]
        if not mb[i] or not nb[j]:
            continue
        # column t of action_N(x) on the basis vectors of weight i
        cols: dict[int, list[tuple[int, object]]] = {}
        for di, d in enumerate(nb[i]):
            for t, v in n.action[x][d].items():
                cols.setdefault(t, []).append((di, v))
        Am = m.action[x]
        for si, s in enumerate(mb[i]):
            # sum_c Am[s][c] F_j[c][t]  (c of weight j in M)
            terms = [(mpos[c], v) for c, v in Am[s].items() if m.weights[c] == j]
            for tj, t in enumerate(nb[j]):
                vec = {unknown(j, cj, tj): v for cj, v in terms}
                # - sum_d F_i[s][d] An[d][t]  (d of weight i in N)
                for di, v in cols.get(t, ()):
                    k = unknown(i, si, di)
                    nv = F.sub(vec.get(k, F.zero), v)
                    if nv == 0:
                        vec.pop(k, None)
                    else:
                        vec[k] = nv
                if vec:
                    rows.add(vec)
    kern = rows.kernel_basis(total)
    out = []
    for kv in kern:
        mat = [[F.zero] * n.dim for _ in range(m.dim)]
        for i in range(r):
            for si, s in enumerate(mb[i]):
                for ti, t in enumerate(nb[i]):
                    x = kv.get(unknown(i, si, ti))
                    if x is not None and x != 0:
                        mat[s][t] = x
        out.append(mat)
    return out


@dataclass
class IsoWitness:
    matrix: list[list]
    inverse: list[list]


@dataclass
class IsoResult:
    kind: str  # "iso" | "not_iso" | "undetermined"
    witness: IsoWitness | None = None
    reason: str = ""

    def __bool__(self):
        return self.kind == "iso"


def _invert_square(F: Field, mat: list[list]) -> list[list] | None:
    n = len(mat)
    if n == 0:
        return []
    aug = Matrix(F, [row[:] + [F.one if i == j else F.zero for j in range(n)]
                     for i, row in enumerate(mat)])
    res = aug.rref()
    if res.pivot_columns[:n] != list(range(n)) or res.rank != n:
        return None
    return [row[n:] for row in res.reduced.data]


def is_iso(m: Module, n: Module) -> IsoResult:
    """Decide isomorphism with one-sided error.

    NotIso verdicts are certified (dimension/weight/top mismatch, zero Hom
    space, or exhausted search over a small prime-field Hom space); a failed
    randomized search never downgrades to NotIso, only to Undetermined.
    """
    if m.algebra != n.algebra:
        raise ValueError("is_iso needs modules over the same algebra")
    F = m.field
    if m.dim != n.dim:
        return IsoResult("not_iso", reason="dimension mismatch")
    if m.weight_counts() != n.weight_counts():
        return IsoResult("not_iso", reason="e_i-eigenspace dimensions differ")
    if m.dim == 0:
        return IsoResult("iso", IsoWitness([], []))
    if top_multiplicities(m) != top_multiplicities(n):
        return IsoResult("not_iso", reason="top multiplicities differ")
    homs = hom_space(m, n)
    if not homs:
        return IsoResult("not_iso", reason="Hom space is zero")
    h = len(homs)

    def candidate(coeffs) -> list[list]:
        mat = [[F.zero] * n.dim for _ in range(m.dim)]
        for c, hm in zip(coeffs, homs):
            if c == 0:
                continue
            for s in range(m.dim):
                hs = hm[s]
                ms = mat[s]
                for t in range(n.dim):
                    if hs[t] != 0:
                        ms[t] = F.add(ms[t], F.mul(c, hs[t]))
        return mat

    p = F.p
    if p is not None and p ** h <= _EXHAUSTIVE_LIMIT:
        for coeffs in iter_product(range(p), repeat=h):
            if all(c == 0 for c in coeffs):
                continue
            mat = candidate(coeffs)
            inv = _invert_square(F, mat)
            if inv is not None:
                return IsoResult("iso", IsoWitness(mat, inv))
        return IsoResult("not_iso", reason="no invertible element of Hom (exhaustive search)")
    rng = random.Random(_ISO_SEARCH_SEED + 31 * m.dim + h)
    for _ in range(_ISO_RETRIES):
        if p is None:
            coeffs = [F.of_int(rng.randint(-9, 9)) for _ in range(h)]
        else:
            coeffs = [rng.randrange(p) for _ in range(h)]
        mat = candidate(coeffs)
        inv = _invert_square(F, mat)
        if inv is not None:
            return IsoResult("iso", IsoWitness(mat, inv))
    return IsoResult("undetermined", reason="randomized search found no invertible hom")


@dataclass
class PdResult:
    """Projective dimension with a certificate.

    Finite(d): the (d+1)-st syzygy is literally zero and the d-th is not.
    InfiniteCertified(first_repeat, period): syzygy number ``first_repeat``
    is isomorphic (verified witness) to the earlier nonzero syzygy
    ``first_repeat - period``.  Unknown: neither event, and ``reason`` says
    what stopped the search: ``cutoff`` when ``step`` = cutoff syzygies
    were built, ``dim_guard`` when the cover of syzygy number ``step``
    exceeded the dimension guard.  ``summand`` names the direct summand a
    result was certified on, when it stands for a larger module (see
    ``invariants.gorenstein``).
    """

    kind: str  # "finite" | "infinite" | "unknown"
    d: int | None = None
    first_repeat: int | None = None
    period: int | None = None
    cutoff: int | None = None
    syzygy_dims: list[int] = dc_field(default_factory=list)
    witness: IsoWitness | None = None
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
            return (f"InfiniteCertified({where}repeat at {self.first_repeat}, "
                    f"period {self.period})")
        if self.reason == "dim_guard":
            return f"Unknown(dim guard at step {self.step})"
        return f"Unknown(cutoff {self.cutoff})"


def _signature(m: Module) -> tuple:
    return (m.dim, tuple(m.weight_counts()), tuple(top_multiplicities(m)) if m.dim else ())


def pd(m: Module, cutoff: int, dim_guard: int | None = DIM_GUARD) -> PdResult:
    """Projective dimension of m, certified as documented on PdResult.

    A cover source exceeding ``dim_guard`` aborts the resolution and yields
    Unknown (never a wrong certificate); pass None to lift the guard.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if m.is_zero():
        return PdResult("finite", d=0, syzygy_dims=[0])
    chain = [m]
    sigs = [_signature(m)]
    dims = [m.dim]
    for j in range(1, cutoff + 1):
        cov = projective_cover(chain[-1])
        if dim_guard is not None and cov.source_dim > dim_guard:
            return PdResult("unknown", cutoff=cutoff, syzygy_dims=dims,
                            reason="dim_guard", step=j - 1)
        nxt = _syzygy_with_inclusion(chain[-1], cov)[0]
        dims.append(nxt.dim)
        if nxt.is_zero():
            return PdResult("finite", d=j - 1, syzygy_dims=dims)
        sig = _signature(nxt)
        for i, old in enumerate(sigs):
            if old == sig:
                res = is_iso(chain[i], nxt)
                if res.kind == "iso":
                    return PdResult("infinite", first_repeat=j, period=j - i,
                                    syzygy_dims=dims, witness=res.witness,
                                    witness_modules=(chain[i], nxt))
        chain.append(nxt)
        sigs.append(sig)
    return PdResult("unknown", cutoff=cutoff, syzygy_dims=dims, reason="cutoff", step=cutoff)


def injective_dimension(m: Module, cutoff: int) -> PdResult:
    """id(M) := pd of D(M) over the opposite algebra."""
    return pd(dual(m), cutoff)


# --------------------------------------------------------------------------
# Ext and Tor
# --------------------------------------------------------------------------


def ext_dims(m: Module, n: Module, cutoff: int,
             dim_guard: int | None = DIM_GUARD) -> list[int]:
    """dim Ext^l(M, N) for 0 <= l <= cutoff, from a minimal resolution of M."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if m.is_zero() or n.is_zero():
        return [0] * (cutoff + 1)
    F = m.field
    res = min_resolution(m, cutoff + 1, dim_guard)
    if res.aborted:
        raise ValueError("resolution exceeded the dimension guard; Ext "
                         "dimensions cannot be certified (raise dim_guard)")
    terms = [s.module for s in res.steps]
    while len(terms) < cutoff + 2:
        terms.append(zero_module(m.algebra))
    hom_bases = [hom_space(P, n) if P.dim else [] for P in terms]
    h = [len(b) for b in hom_bases]
    # rank of delta_l : Hom(P_l, n) -> Hom(P_{l+1}, n), phi |-> d_{l+1} o phi
    ranks = [0] * (cutoff + 2)
    for l in range(cutoff + 1):
        if not hom_bases[l] or terms[l + 1].dim == 0:
            continue
        D = res.steps[l + 1].differential if l + 1 < len(res.steps) else None
        if D is None:
            continue
        rs = RowSpace(F)
        nd = n.dim
        for phi in hom_bases[l]:
            # D @ phi with its entries numbered row by row; rs.add drops zeros
            vec: dict[int, object] = {}
            for s, row in enumerate(D):
                for c, v in row.items():
                    for t, x in enumerate(phi[c]):
                        if x != 0:
                            k = s * nd + t
                            vec[k] = F.add(vec.get(k, F.zero), F.mul(v, x))
            rs.add(vec)
        ranks[l] = rs.rank
    out = []
    for l in range(cutoff + 1):
        prev = ranks[l - 1] if l >= 1 else 0
        out.append(h[l] - ranks[l] - prev)
    return out


class TensorProduct:
    """M (x)_R N for M a right R-module and N a left R-module.

    N is handed over as a right module over opposite(R).  The product is the
    quotient of the pure-tensor space k^(dim M * dim N) by the balancing
    relations m*x (x) n - m (x) x*n over the basis of R.
    """

    def __init__(self, m: Module, n: Module):
        R = m.algebra
        if n.algebra != opposite(R):
            raise ValueError("second factor must be a right module over opposite(R)")
        self.m = m
        self.n = n
        F = m.field
        self.field = F
        self.rows = RowSpace(F)
        md, nd = m.dim, n.dim
        for x in range(R.dim):
            Am = m.action[x]
            An = n.action[x]  # right action of x^op = left action of x on N
            for a in range(md):
                Ama = Am[a]
                for b in range(nd):
                    vec: dict[int, object] = {c * nd + b: v for c, v in Ama.items()}
                    for d2, v in An[b].items():
                        k = a * nd + d2
                        nv = F.sub(vec.get(k, F.zero), v)
                        if nv == 0:
                            vec.pop(k, None)
                        else:
                            vec[k] = nv
                    if vec:
                        self.rows.add(vec)
        pomm = set(self.rows.pivot_of_col)
        self.free = [k for k in range(md * nd) if k not in pomm]
        self.pos = {k: s for s, k in enumerate(self.free)}

    @property
    def dim(self) -> int:
        return len(self.free)

    def reduce_pure(self, vec: dict[int, object]) -> dict[int, object]:
        """Reduce a sparse row in pure-tensor coordinates to quotient coordinates."""
        return {self.pos[c]: x for c, x in self.rows.reduce(vec).items()}


def tensor_over(m: Module, n: Module) -> TensorProduct:
    """See :class:`TensorProduct`; ``.dim`` is the exact k-dimension."""
    return TensorProduct(m, n)


def tor_dims(m: Module, n: Module, cutoff: int,
             dim_guard: int | None = DIM_GUARD) -> list[int]:
    """dim Tor_l^R(M, N) for 0 <= l <= cutoff via a minimal resolution of M.

    When the resolution hits the dimension guard the list is truncated to
    the degrees that are still certain (possibly fewer than cutoff + 1).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if m.is_zero() or n.is_zero():
        return [0] * (cutoff + 1)
    F = m.field
    res = min_resolution(m, cutoff + 1, dim_guard)
    terms = [s.module for s in res.steps]
    if res.terminated:
        while len(terms) < cutoff + 2:
            terms.append(zero_module(m.algebra))
        limit = cutoff
    elif res.aborted:
        limit = min(cutoff, len(terms) - 2)
        if limit < 0:
            return []
    else:
        limit = cutoff
    tens = [TensorProduct(P, n) if P.dim else None for P in terms[:limit + 2]]
    dims = [t.dim if t else 0 for t in tens]
    nd = n.dim
    # rank of the induced boundary C_l -> C_{l-1}
    ranks = [0] * (limit + 2)
    for l in range(1, limit + 2):
        if tens[l] is None or tens[l - 1] is None or dims[l] == 0 or dims[l - 1] == 0:
            continue
        D = res.steps[l].differential if l < len(res.steps) else None
        if D is None:
            continue
        rs = RowSpace(F)
        for k in tens[l].free:
            a, b = divmod(k, nd)
            red = tens[l - 1].reduce_pure({c * nd + b: v for c, v in D[a].items()})
            if red:
                rs.add(red)
        ranks[l] = rs.rank
    out = []
    for l in range(limit + 1):
        out.append(dims[l] - ranks[l] - ranks[l + 1])
    return out


# --------------------------------------------------------------------------
# restriction along algebra maps, weight adaptation
# --------------------------------------------------------------------------


@dataclass
class AlgebraMap:
    """An algebra homomorphism given by images of basis elements."""

    source: Algebra
    target: Algebra
    images: list[dict[int, object]]

    def check(self):
        s, t = self.source, self.target
        if len(self.images) != s.dim:
            raise ValueError("need one image per source basis element")
        F = t.field
        one: dict[int, object] = {}
        for i in range(s.r):
            for z, c in self.images[i].items():
                nv = F.add(one.get(z, F.zero), c)
                if nv == 0:
                    one.pop(z, None)
                else:
                    one[z] = nv
        if one != t.unit_coords():
            raise ValueError("map does not send 1 to 1")
        for x in range(s.dim):
            for y in range(s.dim):
                lhs = t.mul_coords(self.images[x], self.images[y])
                rhs: dict[int, object] = {}
                for z, c in s.mult[x][y].items():
                    for w, cw in self.images[z].items():
                        nv = F.add(rhs.get(w, F.zero), F.mul(c, cw))
                        if nv == 0:
                            rhs.pop(w, None)
                        else:
                            rhs[w] = nv
                if lhs != rhs:
                    raise ValueError(f"map not multiplicative at basis pair ({x},{y})")


def adapt_weights(algebra: Algebra, dim: int, action: list[list[dict]]) -> Module:
    """Build a Module from raw sparse action matrices by choosing a basis
    adapted to the idempotent projectors (which commute and sum to the
    identity)."""
    F = algebra.field
    # fast path: every projector row is zero or a unit vector at its own index
    weights: list[int | None] = [None] * dim
    diagonal = True
    for i in range(algebra.r):
        for s, row in enumerate(action[i]):
            if row and (row != {s: F.one} or weights[s] is not None):
                diagonal = False
                break
            if row:
                weights[s] = i
        if not diagonal:
            break
    if diagonal and None not in weights:
        return Module(algebra, dim, action, weights)
    # general path: rows of each projector image give the adapted basis T,
    # and x acts by T A_x T^-1
    rows: list[dict] = []
    weights2: list[int] = []
    for i in range(algebra.r):
        rs = RowSpace(F)
        for row in action[i]:
            rs.add(row)
        rows.extend(rs.rows)
        weights2.extend([i] * rs.rank)
    if len(rows) != dim:
        raise ValueError("idempotent projector images do not fill the space")
    # reduce [T | I]: T is invertible iff the pivots are the columns of T, and
    # then the row with pivot c carries row c of T^-1 in its right half
    aug = RowSpace(F)
    for s, row in enumerate(rows):
        aug.add({**row, dim + s: F.one})
    if any(c >= dim for c in aug.pivot_cols):
        raise ValueError("adapted basis is not a basis")
    inverse = {c: {t - dim: x for t, x in row.items() if t >= dim}
               for c, row in zip(aug.pivot_cols, aug.rows)}
    new_action = [[_vecmat(F, _vecmat(F, row, action[x]), inverse) for row in rows]
                  for x in range(algebra.dim)]
    return Module(algebra, dim, new_action, weights2)


def restrict_along(f: AlgebraMap, m: Module) -> Module:
    """Pull back the module structure along an algebra map (checked)."""
    if m.algebra != f.target:
        raise ValueError("module is not over the map's target")
    f.check()
    action = [[m._times(s, img) for s in range(m.dim)] for img in f.images]
    return adapt_weights(f.source, m.dim, action)


# --------------------------------------------------------------------------
# bimodule helpers and serialisation (homkit-module/1)
# --------------------------------------------------------------------------


def bimodule_restrictions(b: Algebra, c: Algebra, m: Module) -> tuple[Module, Module]:
    """M_B and _CM of a C-B-bimodule M (a module over tensor(opposite(c), b)).

    _CM is returned as a right module over opposite(C).  Both restrictions
    read the pair index of the cached tensor algebra.
    """
    from .algebra import tensor
    cop = opposite(c)
    T = tensor(cop, b)
    if m.algebra != T:
        raise ValueError("not a module over tensor(opposite(c), b)")
    pidx = T._pair_index
    one = b.field.one
    # y in B acts as the sum of e_i^op (x) y; x in C^op as the sum of x (x) e_j
    right = AlgebraMap(b, T, [{pidx[(i, y)]: one for i in range(c.r)} for y in range(b.dim)])
    left = AlgebraMap(cop, T, [{pidx[(x, j)]: one for j in range(b.r)} for x in range(c.dim)])
    return restrict_along(right, m), restrict_along(left, m)


def module_to_json(m: Module, algebra_ref: str | None = None) -> dict:
    """homkit-module/1 document; the algebra is inline unless a reference
    string (file path) is supplied."""
    F = m.field
    zero = F.format(F.zero)
    return {
        "format": "homkit-module/1",
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(m.algebra),
        "dim": m.dim,
        "action": {m.algebra.labels[x]: [[F.format(row[t]) if t in row else zero
                                          for t in range(m.dim)] for row in m.action[x]]
                   for x in range(m.algebra.dim)},
    }


def module_from_json(doc: dict, algebra: Algebra | None = None) -> Module:
    """Read a homkit-module/1 document; a malformed one raises ValueError
    naming the entry at fault.  Entries equal to the zero literal that
    ``module_to_json`` writes are skipped unparsed; every other entry goes
    through ``Field.parse``."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != "homkit-module/1":
        raise ValueError(f"unsupported module format {fmt!r}")
    for key in ("dim", "action"):
        if key not in doc:
            raise ValueError(f"module document has no {key!r} entry")
    if algebra is None:
        ref = doc.get("algebra")
        if not isinstance(ref, dict):
            raise ValueError("module document references an external algebra "
                             "or none; pass it explicitly")
        algebra = algebra_from_json(ref)
    F = algebra.field
    zero = F.format(F.zero)
    dim = doc["dim"]
    if type(dim) is not int:
        raise ValueError(f"'dim' {dim!r} is not an integer")
    act = doc["action"]
    if not isinstance(act, dict):
        raise ValueError("'action' is not an object")
    action = []
    for x in range(algebra.dim):
        label = algebra.labels[x]
        if label not in act:
            raise ValueError(f"missing action matrix for basis element {label!r}")
        mat = act[label]
        if not (isinstance(mat, list) and len(mat) == dim
                and all(isinstance(row, list) and len(row) == dim for row in mat)):
            raise ValueError(f"action matrix for {label!r} has wrong shape "
                             f"(expected {dim} rows of {dim} entries)")
        rows = []
        for i, row in enumerate(mat):
            out = {}
            for t, text in enumerate(row):
                if text != zero:
                    try:
                        v = F.parse(text)
                    except ValueError as e:
                        raise ValueError(f"action matrix for {label!r}, row {i}, "
                                         f"column {t}: {e}") from None
                    if v != 0:
                        out[t] = v
            rows.append(out)
        action.append(rows)
    return adapt_weights(algebra, dim, action)
