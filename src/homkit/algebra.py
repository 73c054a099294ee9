"""Finite-dimensional split basic algebras as structure-constant tables.

An :class:`Algebra` carries a labelled basis in which the first ``r``
elements are the primitive orthogonal vertex idempotents and the rest span
the radical.  Every basis element b is tagged with the pair of vertices
(i, j) such that ``e_i * b * e_j == b``.  All constructions below (bound
quiver realisation, opposite, tensor, enveloping, corner, quotient by an
idempotent ideal, one-sided triangular extension) preserve this shape, so
the radical is carried structurally and never recomputed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .linalg import Field, RowSpace
from .presentation import AlgebraSpec, Quiver, SpecError

if TYPE_CHECKING:
    from .modules import Module


class NotFiniteDimensionalError(SpecError):
    """The degreewise closure found no vanishing degree within the cutoff."""


class Algebra:
    """Split basic algebra over an exact field, given by structure constants.

    ``mult[x][y]`` is the coordinate vector (sparse dict ``{z: coeff}``) of
    the product of basis elements x and y.  Basis order is: the r vertex
    idempotents in vertex order, then the radical basis in construction
    order.  Instances are immutable by convention, which is what lets
    ``opposite`` and ``tensor`` keep their results on the instance (in
    ``_opposite`` and ``_tensors``) and hand out the same object each time.
    A tensor product keeps its basis pair index in ``_pair_index`` (see
    ``_tensor``); it holds plain ints, so no reference to either factor.
    """

    __slots__ = ("field", "vertex_labels", "labels", "left", "right", "mult",
                 "r", "name", "_opposite", "_tensors", "_pair_index", "__weakref__")

    def __init__(self, field: Field, vertex_labels: list[str], labels: list[str],
                 left: list[int], right: list[int],
                 mult: list[list[dict[int, object]]], r: int, name: str = ""):
        self.field = field
        self.vertex_labels = list(vertex_labels)
        self.labels = list(labels)
        self.left = list(left)
        self.right = list(right)
        self.mult = mult
        self.r = r
        self.name = name
        self._opposite: Algebra | None = None
        self._tensors: weakref.WeakKeyDictionary | None = None
        self._pair_index: dict[tuple[int, int], int] | None = None
        if r != len(vertex_labels):
            raise ValueError("r must equal the number of vertices")
        if len(self.left) < r or any(self.left[i] != i or self.right[i] != i
                                     for i in range(r)):
            raise ValueError("idempotents must come first, in vertex order")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def idempotents(self) -> list[int]:
        return list(range(self.r))

    @property
    def radical_basis(self) -> list[int]:
        return list(range(self.r, self.dim))

    def unit_coords(self) -> dict[int, object]:
        one = self.field.one
        return {i: one for i in range(self.r)}

    def mul_coords(self, u: dict[int, object], v: dict[int, object]) -> dict[int, object]:
        """Bilinear extension of the structure constants to coordinate dicts."""
        F = self.field
        out: dict[int, object] = {}
        for x, cx in u.items():
            if cx == 0:
                continue
            mx = self.mult[x]
            for y, cy in v.items():
                if cy == 0:
                    continue
                row = mx[y]
                if not row:
                    continue
                cxy = F.mul(cx, cy)
                for z, cz in row.items():
                    nv = F.add(out.get(z, F.zero), F.mul(cxy, cz))
                    if nv == 0:
                        out.pop(z, None)
                    else:
                        out[z] = nv
        return out

    def basis_with_tags(self, i: int, j: int) -> list[int]:
        """Indices of basis elements b with e_i b e_j = b."""
        return [k for k in range(self.dim) if self.left[k] == i and self.right[k] == j]

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Algebra)
                and self.field == other.field
                and self.labels == other.labels
                and self.left == other.left
                and self.right == other.right
                and self.r == other.r
                and self.mult == other.mult)

    # identity hashing: structural equality stays available for checks, but
    # caches key algebras by object identity
    __hash__ = object.__hash__

    def __repr__(self):
        return f"Algebra({self.name or '?'}: dim {self.dim}, r {self.r}, {self.field.name()})"


# --------------------------------------------------------------------------
# bound quiver realisation
# --------------------------------------------------------------------------

# A path "word" during closure is (source_vertex, arrow_index_tuple).


def _word_target(quiver: Quiver, w) -> int:
    src, arr = w
    return quiver.arrows[arr[-1]].target if arr else src


class _GradedClosure:
    """Degreewise linear closure for homogeneous relations.

    Relations whose paths all share one length generate a graded ideal, so
    the quotient is computed degree by degree: candidates of degree d are
    the one-arrow extensions of the degree d-1 normal words, the degree-d
    slice of the ideal is spanned by p*rel*q products, and the RREF pivots
    (on the earliest word in length-lex order) mark the words eliminated
    from the basis.  Products reduce one arrow at a time, which keeps every
    lookup inside already-computed degrees.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.q = spec.quiver
        self.F = spec.field
        self.arrows_by_src: dict[int, list[int]] = {}
        for i, a in enumerate(self.q.arrows):
            self.arrows_by_src.setdefault(a.source, []).append(i)
        self.normal: list[list[tuple]] = []
        self.pivot_expr: dict[tuple, dict[tuple, object]] = {}

    def run(self) -> list[tuple]:
        q, F = self.q, self.F
        self.normal.append([(v, ()) for v in range(q.num_vertices)])
        for d in range(1, self.spec.degree_cutoff + 1):
            cands = []
            for w in self.normal[d - 1]:
                t = _word_target(q, w)
                for ai in self.arrows_by_src.get(t, ()):
                    cands.append((w[0], w[1] + (ai,)))
            cands.sort(key=lambda w: w[1])
            col = {w: k for k, w in enumerate(cands)}
            space = RowSpace(F)
            if d >= 2:
                for rel in self.spec.relations:
                    m = rel.terms[0][1].length
                    if m > d:
                        continue
                    for dp in range(d - m + 1):
                        dq = d - m - dp
                        lefts = [w for w in self.normal[dp]
                                 if _word_target(q, w) == rel.source]
                        rights = [w for w in self.normal[dq] if w[0] == rel.target]
                        for pw in lefts:
                            for qw in rights:
                                vec: dict[int, object] = {}
                                for coeff, relpath in rel.terms:
                                    red = self._append(pw, relpath.arrows + qw[1])
                                    for w2, c2 in red.items():
                                        nv = F.add(vec.get(col[w2], F.zero), F.mul(coeff, c2))
                                        if nv == 0:
                                            vec.pop(col[w2], None)
                                        else:
                                            vec[col[w2]] = nv
                                if vec:
                                    space.add(vec)
            pivot_cols = set(space.pivot_of_col)
            for c in pivot_cols:
                expr = space.expression_of_pivot(c)
                self.pivot_expr[cands[c]] = {cands[cc]: x for cc, x in expr.items()}
            nf = [w for k, w in enumerate(cands) if k not in pivot_cols]
            if not nf:
                return [w for level in self.normal for w in level]
            self.normal.append(nf)
        raise NotFiniteDimensionalError(
            f"not visibly finite-dimensional within degree_cutoff={self.spec.degree_cutoff}")

    def _append(self, start: tuple, arrow_seq: tuple) -> dict[tuple, object]:
        """Multiply a normal word by a raw arrow sequence, reducing as it goes."""
        F = self.F
        cur: dict[tuple, object] = {start: F.one}
        for ai in arrow_seq:
            nxt: dict[tuple, object] = {}
            for w, c in cur.items():
                if _word_target(self.q, w) != self.q.arrows[ai].source:
                    raise AssertionError("non-composable append")
                wa = (w[0], w[1] + (ai,))
                expr = self.pivot_expr.get(wa)
                if expr is None:
                    nv = F.add(nxt.get(wa, F.zero), c)
                    if nv == 0:
                        nxt.pop(wa, None)
                    else:
                        nxt[wa] = nv
                else:
                    for w2, c2 in expr.items():
                        nv = F.add(nxt.get(w2, F.zero), F.mul(c, c2))
                        if nv == 0:
                            nxt.pop(w2, None)
                        else:
                            nxt[w2] = nv
            cur = nxt
            if not cur:
                break
        return cur

    def reduce_product(self, u: tuple, v: tuple) -> dict[tuple, object]:
        if _word_target(self.q, u) != v[0]:
            return {}
        return self._append(u, v[1])


_PATH_GUARD = 20000
_ROW_GUARD = 200000


class _WindowedClosure:
    """Linear closure on a length window, for inhomogeneous relations.

    All raw paths up to the current window are enumerated and every
    p*rel*q product that fits the window is added to one global row space
    (columns ordered by length then lex).  The window stops at the first D
    with no surviving word of length in (L, D] and D >= 2L, where L is the
    longest surviving word: every longer path then reduces, and products of
    basis words stay inside the reduction table.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.q = spec.quiver
        self.F = spec.field
        self.words: list[tuple] = [(v, ()) for v in range(self.q.num_vertices)]
        self.by_deg: list[list[tuple]] = [list(self.words)]
        self.col: dict[tuple, int] = {w: k for k, w in enumerate(self.words)}
        self.space = RowSpace(self.F)
        self.arrows_by_src: dict[int, list[int]] = {}
        for i, a in enumerate(self.q.arrows):
            self.arrows_by_src.setdefault(a.source, []).append(i)
        self.pivot_expr: dict[tuple, dict[tuple, object]] = {}

    def _extend_paths(self):
        level = []
        for w in self.by_deg[-1]:
            t = _word_target(self.q, w)
            for ai in self.arrows_by_src.get(t, ()):
                level.append((w[0], w[1] + (ai,)))
        level.sort(key=lambda w: w[1])
        for w in level:
            self.col[w] = len(self.words)
            self.words.append(w)
        self.by_deg.append(level)
        if len(self.words) > _PATH_GUARD:
            raise NotFiniteDimensionalError(
                "not visibly finite-dimensional within degree_cutoff "
                f"(path enumeration exceeded {_PATH_GUARD} words)")

    def run(self) -> list[tuple]:
        F = self.F
        rows_added = 0
        for D in range(1, self.spec.degree_cutoff + 1):
            self._extend_paths()
            if D < 2:
                continue
            for rel in self.spec.relations:
                mx = max(p.length for _, p in rel.terms)
                span = D - mx
                if span < 0:
                    continue
                for dp in range(span + 1):
                    dq = span - dp
                    lefts = [w for w in self.by_deg[dp]
                             if _word_target(self.q, w) == rel.source]
                    rights = [w for w in self.by_deg[dq] if w[0] == rel.target]
                    for pw in lefts:
                        for qw in rights:
                            vec: dict[int, object] = {}
                            for coeff, relpath in rel.terms:
                                w2 = (pw[0], pw[1] + relpath.arrows + qw[1])
                                c = self.col[w2]
                                nv = F.add(vec.get(c, F.zero), coeff)
                                if nv == 0:
                                    vec.pop(c, None)
                                else:
                                    vec[c] = nv
                            if vec:
                                self.space.add(vec)
                                rows_added += 1
                                if rows_added > _ROW_GUARD:
                                    raise NotFiniteDimensionalError(
                                        "not visibly finite-dimensional within "
                                        f"degree_cutoff (row guard {_ROW_GUARD} exceeded)")
            pivots = set(self.space.pivot_of_col)
            normal = [w for k, w in enumerate(self.words) if k not in pivots]
            L = max(len(w[1]) for w in normal) if normal else 0
            if D >= max(L + 1, 2 * L):
                for c in pivots:
                    expr = self.space.expression_of_pivot(c)
                    self.pivot_expr[self.words[c]] = {self.words[cc]: x for cc, x in expr.items()}
                return normal
        raise NotFiniteDimensionalError(
            f"not visibly finite-dimensional within degree_cutoff={self.spec.degree_cutoff}")

    def reduce_product(self, u: tuple, v: tuple) -> dict[tuple, object]:
        if _word_target(self.q, u) != v[0]:
            return {}
        w = (u[0], u[1] + v[1])
        expr = self.pivot_expr.get(w)
        if expr is None:
            return {w: self.F.one}
        return dict(expr)


def from_quiver(spec: AlgebraSpec) -> Algebra:
    """Realise kQ/I for an admissible presentation as an exact Algebra.

    The basis is the set of normal-form paths for the degreewise closure of
    the relation ideal; the construction stops at the first degree where the
    quotient vanishes and errors out at ``spec.degree_cutoff`` otherwise.
    """
    q = spec.quiver
    homogeneous = all(len({p.length for _, p in rel.terms}) == 1 for rel in spec.relations)
    engine = _GradedClosure(spec) if homogeneous else _WindowedClosure(spec)
    words = engine.run()
    words = sorted(words, key=lambda w: (len(w[1]), w[1], w[0]))
    index = {w: k for k, w in enumerate(words)}
    labels = []
    left = []
    right = []
    for w in words:
        if not w[1]:
            labels.append("e" + q.vertex_labels[w[0]])
        else:
            labels.append("*".join(q.arrows[i].label for i in w[1]))
        left.append(w[0])
        right.append(_word_target(q, w))
    dim = len(words)
    mult: list[list[dict[int, object]]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for xi, u in enumerate(words):
        for yi, v in enumerate(words):
            red = engine.reduce_product(u, v)
            if red:
                mult[xi][yi] = {index[w]: c for w, c in red.items()}
    return Algebra(spec.field, list(q.vertex_labels), labels, left, right, mult,
                   q.num_vertices, name=spec.name or "quiver algebra")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str]
    nilpotency_index: int | None = None

    def __bool__(self):
        return self.ok


def validate(a: Algebra, max_failures: int = 5) -> ValidationReport:
    """Exhaustively check the Algebra invariants.

    Covers: tag consistency of every structure constant, the idempotent
    axioms, two-sidedness and nilpotency of the radical span, associativity
    over all basis triples, and the split basic shape.  Failures carry the
    first counterexample found.
    """
    F = a.field
    fails: list[str] = []

    def note(msg: str) -> bool:
        fails.append(msg)
        return len(fails) >= max_failures

    dim, r = a.dim, a.r
    # idempotent axioms and unit behaviour
    for i in range(r):
        for j in range(r):
            got = a.mult[i][j]
            want = {i: F.one} if i == j else {}
            if got != want:
                if note(f"e_{i} * e_{j} = {got}, expected {want}"):
                    return ValidationReport(False, fails)
    # tags and unit action on every basis element
    for x in range(dim):
        for i in range(r):
            lw = {x: F.one} if i == a.left[x] else {}
            if a.mult[i][x] != lw:
                if note(f"e_{i} * b_{x} inconsistent with left tag"):
                    return ValidationReport(False, fails)
            rw = {x: F.one} if i == a.right[x] else {}
            if a.mult[x][i] != rw:
                if note(f"b_{x} * e_{i} inconsistent with right tag"):
                    return ValidationReport(False, fails)
    # structure constants respect tags and the radical is a two-sided ideal
    for x in range(dim):
        for y in range(dim):
            row = a.mult[x][y]
            if row and a.right[x] != a.left[y]:
                if note(f"b_{x} * b_{y} nonzero but inner tags differ"):
                    return ValidationReport(False, fails)
            for z in row:
                if a.left[z] != a.left[x] or a.right[z] != a.right[y]:
                    if note(f"b_{x} * b_{y} hits b_{z} with wrong tags"):
                        return ValidationReport(False, fails)
                if (x >= r or y >= r) and z < r:
                    if note(f"radical product b_{x} * b_{y} has idempotent component e_{z}"):
                        return ValidationReport(False, fails)
    # associativity over all triples
    for x in range(dim):
        for y in range(dim):
            xy = a.mult[x][y]
            for z in range(dim):
                lhs = a.mul_coords(xy, {z: F.one}) if xy else {}
                rhs = a.mul_coords({x: F.one}, a.mult[y][z]) if a.mult[y][z] else {}
                if lhs != rhs:
                    if note(f"associativity fails at ({x},{y},{z}): {lhs} != {rhs}"):
                        return ValidationReport(False, fails)
    # radical nilpotency: span rad^k for growing k until it dies
    nilpotency = None
    layer = [{x: F.one} for x in range(r, dim)]
    k = 1
    while layer:
        if k > dim + 1:
            fails.append("radical span does not vanish within dim steps (not nilpotent)")
            break
        nxt_space = RowSpace(F)
        nxt = []
        for u in layer:
            for y in range(r, dim):
                prod = a.mul_coords(u, {y: F.one})
                if prod and nxt_space.add(dict(prod)):
                    nxt.append(prod)
        layer = nxt
        k += 1
    else:
        nilpotency = k  # rad^k = 0, rad^(k-1) != 0; semisimple gives 1
    return ValidationReport(not fails, fails, nilpotency)


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------


def opposite(a: Algebra) -> Algebra:
    """Same basis, products reversed, vertex tags swapped.

    Built once per algebra: the two are kept on each other, so
    ``opposite(opposite(a)) is a``.  The pair is a reference cycle, which
    the garbage collector frees as a whole.
    """
    op = a._opposite
    if op is None:
        dim = a.dim
        mult = [[dict(a.mult[y][x]) for y in range(dim)] for x in range(dim)]
        op = Algebra(a.field, a.vertex_labels, a.labels, a.right, a.left, mult,
                     a.r, name=f"op({a.name})")
        op._opposite = a
        a._opposite = op
    return op


def _tensor_pair_order(a: Algebra, b: Algebra) -> list[tuple[int, int]]:
    """Basis pairs of a tensor product: idempotent pairs first (row-major),
    then the remaining pairs in row-major order."""
    idem = [(x, y) for x in range(a.r) for y in range(b.r)]
    rest = [(x, y) for x in range(a.dim) for y in range(b.dim)
            if not (x < a.r and y < b.r)]
    return idem + rest


def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product algebra a (x) b (componentwise products, no signs).

    Built once per pair of factors: the product is kept on ``a``, keyed
    weakly by ``b``, and holds no reference to either factor, so the cache
    keeps neither alive.
    """
    cache = a._tensors
    if cache is None:
        cache = a._tensors = weakref.WeakKeyDictionary()
    t = cache.get(b)
    if t is None:
        t = cache[b] = _tensor(a, b, f"{a.name}⊗{b.name}")
    return t


def _tensor(a: Algebra, b: Algebra, name: str) -> Algebra:
    if a.field != b.field:
        raise ValueError("tensor factors must share the field")
    F = a.field
    pairs = _tensor_pair_order(a, b)
    pidx = {p: k for k, p in enumerate(pairs)}
    rb = b.r

    def vtx(i: int, j: int) -> int:
        return i * rb + j

    vertex_labels = [f"({va},{vb})" for va in a.vertex_labels for vb in b.vertex_labels]
    labels = [f"{a.labels[x]}⊗{b.labels[y]}" for x, y in pairs]
    left = [vtx(a.left[x], b.left[y]) for x, y in pairs]
    right = [vtx(a.right[x], b.right[y]) for x, y in pairs]
    n = len(pairs)
    mult: list[list[dict[int, object]]] = [[{} for _ in range(n)] for _ in range(n)]
    for k1, (x1, y1) in enumerate(pairs):
        for k2, (x2, y2) in enumerate(pairs):
            rx = a.mult[x1][x2]
            if not rx:
                continue
            ry = b.mult[y1][y2]
            if not ry:
                continue
            out = {}
            for z1, c1 in rx.items():
                for z2, c2 in ry.items():
                    out[pidx[(z1, z2)]] = F.mul(c1, c2)
            mult[k1][k2] = out
    t = Algebra(F, vertex_labels, labels, left, right, mult, a.r * b.r, name=name)
    # basis pair (x, y) -> index; its key order is the basis order
    t._pair_index = pidx
    return t


def enveloping(a: Algebra) -> Algebra:
    """op(a) (x) a, the algebra whose right modules are a-a-bimodules."""
    return _tensor(opposite(a), a, f"env({a.name})")


def corner(a: Algebra, vertices: list[int]) -> Algebra:
    """The corner algebra eAe for e the sum of the given vertex idempotents."""
    S = sorted(set(vertices))
    if not S:
        raise ValueError("corner needs a nonempty vertex set")
    for v in S:
        if not 0 <= v < a.r:
            raise ValueError(f"vertex index {v} out of range")
    keep = [k for k in range(a.dim) if a.left[k] in S and a.right[k] in S]
    old2new = {k: i for i, k in enumerate(keep)}
    vmap = {v: i for i, v in enumerate(S)}
    mult = [[{old2new[z]: c for z, c in a.mult[x][y].items()} for y in keep] for x in keep]
    return Algebra(a.field, [a.vertex_labels[v] for v in S],
                   [a.labels[k] for k in keep],
                   [vmap[a.left[k]] for k in keep],
                   [vmap[a.right[k]] for k in keep],
                   mult, len(S), name=f"corner({a.name},{S})")


def quotient_by_idempotent_ideal(a: Algebra, vertices: list[int]) -> Algebra:
    """A/AeA for e the sum of the given vertex idempotents (proper, nonempty).

    AeA is spanned by the products u*v over basis pairs whose inner tag lies
    in the vertex set; the quotient basis is the set of non-pivot basis
    elements, and products are reduced modulo the span.
    """
    S = sorted(set(vertices))
    if not S or len(S) >= a.r:
        raise ValueError("quotient needs a proper nonempty vertex set")
    F = a.field
    space = RowSpace(F)
    Sset = set(S)
    for u in range(a.dim):
        if a.right[u] not in Sset:
            continue
        mu = a.mult[u]
        for v in range(a.dim):
            if a.left[v] != a.right[u]:
                continue
            row = mu[v]
            if row:
                space.add(dict(row))
    pivots = set(space.pivot_of_col)
    keep = [k for k in range(a.dim) if k not in pivots]
    for k in keep:
        if a.left[k] in Sset or a.right[k] in Sset:
            raise AssertionError("surviving basis element has a tag inside e")
    old2new = {k: i for i, k in enumerate(keep)}
    newverts = [v for v in range(a.r) if v not in Sset]
    vmap = {v: i for i, v in enumerate(newverts)}

    def reduce_coords(row: dict[int, object]) -> dict[int, object]:
        res = space.reduce(dict(row))
        return {old2new[z]: c for z, c in res.items()}

    mult = [[reduce_coords(a.mult[x][y]) if a.mult[x][y] else {} for y in keep]
            for x in keep]
    return Algebra(F, [a.vertex_labels[v] for v in newverts],
                   [a.labels[k] for k in keep],
                   [vmap[a.left[k]] for k in keep],
                   [vmap[a.right[k]] for k in keep],
                   mult, len(newverts), name=f"quot({a.name},{S})")


def triangular(b: Algebra, c: Algebra, m: "Module") -> Algebra:
    """Lower triangular extension [[B, 0], [M, C]] of B and C along a
    C-B-bimodule M (a module over tensor(opposite(c), b)).

    Basis order: idempotents of B, idempotents of C, radical of B, the M
    basis, radical of C.  M products: m*b by the right B-action, c*m by the
    left C-action; M*M = B*M = M*C = B*C = C*B = 0.
    """
    if b.field != c.field:
        raise ValueError("triangular factors must share the field")
    F = b.field
    cop = opposite(c)
    if m.algebra != tensor(cop, b):
        raise ValueError("bimodule is not a module over tensor(opposite(c), b)")
    pidx = tensor(cop, b)._pair_index

    rb, rc = b.r, c.r
    r = rb + rc
    nb, nc, nm = b.dim, c.dim, m.dim
    dim = nb + nc + nm
    # index layout
    bmap = {x: (x if x < rb else r + (x - rb)) for x in range(nb)}
    cmap = {x: (rb + x if x < rc else r + (nb - rb) + nm + (x - rc)) for x in range(nc)}
    moff = r + (nb - rb)

    vertex_labels = [f"B:{v}" for v in b.vertex_labels] + [f"C:{v}" for v in c.vertex_labels]
    labels = [""] * dim
    left = [0] * dim
    right = [0] * dim
    for x in range(nb):
        labels[bmap[x]] = f"B:{b.labels[x]}"
        left[bmap[x]] = b.left[x]
        right[bmap[x]] = b.right[x]
    for x in range(nc):
        labels[cmap[x]] = f"C:{c.labels[x]}"
        left[cmap[x]] = rb + c.left[x]
        right[cmap[x]] = rb + c.right[x]
    for k in range(nm):
        w = m.weights[k]
        i_c, j_b = divmod(w, rb)
        labels[moff + k] = f"M:{k}"
        left[moff + k] = rb + i_c
        right[moff + k] = j_b

    mult: list[list[dict[int, object]]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for x in range(nb):
        for y in range(nb):
            row = b.mult[x][y]
            if row:
                mult[bmap[x]][bmap[y]] = {bmap[z]: cv for z, cv in row.items()}
    for x in range(nc):
        for y in range(nc):
            row = c.mult[x][y]
            if row:
                mult[cmap[x]][cmap[y]] = {cmap[z]: cv for z, cv in row.items()}
    # m * b (right action) and c * m (left action), read off the T-action
    for k in range(nm):
        for y in range(nb):
            out: dict[int, object] = {}
            for i in range(rc):
                for t, cv in m.action[pidx[(i, y)]][k].items():
                    out[moff + t] = F.add(out.get(moff + t, F.zero), cv)
            if out:
                mult[moff + k][bmap[y]] = out
        for x in range(nc):
            out = {}
            for j in range(rb):
                for t, cv in m.action[pidx[(x, j)]][k].items():
                    out[moff + t] = F.add(out.get(moff + t, F.zero), cv)
            if out:
                mult[cmap[x]][moff + k] = out
    return Algebra(F, vertex_labels, labels, left, right, mult, r,
                   name=f"tri({b.name},{c.name})")


# --------------------------------------------------------------------------
# serialisation (homkit-algebra/1)
# --------------------------------------------------------------------------


def algebra_to_json(a: Algebra) -> dict:
    triples = []
    for x in range(a.dim):
        for y in range(a.dim):
            for z in sorted(a.mult[x][y]):
                triples.append([x, y, z, a.field.format(a.mult[x][y][z])])
    return {
        "format": "homkit-algebra/1",
        "name": a.name,
        "field": a.field.name(),
        "vertex_labels": list(a.vertex_labels),
        "basis": [{"label": a.labels[k], "left": a.left[k], "right": a.right[k]}
                  for k in range(a.dim)],
        "idempotents": a.idempotents,
        "radical": a.radical_basis,
        "mult": triples,
    }


def _index_in(value, n: int) -> bool:
    return type(value) is int and 0 <= value < n


def algebra_from_json(doc: dict) -> Algebra:
    """Read a homkit-algebra/1 document; a malformed one raises ValueError
    naming the entry at fault."""
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != "homkit-algebra/1":
        raise ValueError(f"unsupported algebra format {fmt!r}")
    for key in ("field", "vertex_labels", "basis", "mult"):
        if key not in doc:
            raise ValueError(f"algebra document has no {key!r} entry")
    if not isinstance(doc["field"], str):
        raise ValueError(f"'field' {doc['field']!r} is not a string")
    F = Field.from_name(doc["field"])
    vertices = doc["vertex_labels"]
    if not (isinstance(vertices, list) and all(isinstance(v, str) for v in vertices)):
        raise ValueError("'vertex_labels' is not a list of strings")
    r = len(vertices)
    basis = doc["basis"]
    if not isinstance(basis, list):
        raise ValueError("'basis' is not a list")
    for k, e in enumerate(basis):
        if not (isinstance(e, dict) and isinstance(e.get("label"), str)
                and _index_in(e.get("left"), r) and _index_in(e.get("right"), r)):
            raise ValueError(f"basis entry {k} is not {{label, left, right}} with "
                             f"vertices in 0..{r - 1}: {e!r}")
    dim = len(basis)
    if not isinstance(doc["mult"], list):
        raise ValueError("'mult' is not a list")
    mult: list[list[dict[int, object]]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for n, entry in enumerate(doc["mult"]):
        x, y, z, cv = entry if type(entry) is list and len(entry) == 4 else (None,) * 4
        if not (type(x) is type(y) is type(z) is int
                and 0 <= x < dim and 0 <= y < dim and 0 <= z < dim):
            raise ValueError(f"mult entry {n} is not [x, y, z, coefficient] with "
                             f"indices in 0..{dim - 1}: {entry!r}")
        try:
            mult[x][y][z] = F.parse(cv)
        except ValueError as e:
            raise ValueError(f"mult entry {n}: {e}") from None
    return Algebra(F, vertices, [e["label"] for e in basis], [e["left"] for e in basis],
                   [e["right"] for e in basis], mult, r, name=doc.get("name", ""))
