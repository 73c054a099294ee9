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

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .linalg import Field, IntMatrix, RowSpace, _matmul, _transpose, axpy, det_int
from .presentation import AlgebraSpec, Quiver, SpecError

if TYPE_CHECKING:
    from .modules import Module


class NotFiniteDimensionalError(SpecError):
    """The degreewise closure found no vanishing degree within the cutoff."""


class Cartan(NamedTuple):
    matrix: IntMatrix
    det: int


class Algebra:
    """Split basic algebra over an exact field, given by structure constants.

    ``mult[x]`` holds the non-zero products of basis element x, in the
    matrix format of ``Module.action``: ``{y: row}`` by increasing y, where
    row is the coordinate vector (sparse dict ``{z: coeff}``) of x * y.  A
    zero product is an absent key; no empty row is stored.  The constructor
    trusts its rows, as ``Module``'s does.  Basis order is: the r vertex
    idempotents in vertex order, then the radical basis in construction
    order.  Instances are immutable by convention, which lets ``opposite``
    keep its result in ``_opposite`` and hand out the same object each
    time, and ``_generators``, ``_paths`` and ``_cartan`` keep
    :attr:`generators`, :attr:`paths` and :attr:`cartan` once read.
    """

    __slots__ = ("field", "vertex_labels", "labels", "left", "right", "mult",
                 "r", "name", "_opposite", "_generators", "_paths", "_cartan",
                 "__weakref__")

    def __init__(self, field: Field, vertex_labels: list[str], labels: list[str],
                 left: list[int], right: list[int],
                 mult: list[dict[int, dict[int, object]]], r: int, name: str = ""):
        self.field = field
        self.vertex_labels = list(vertex_labels)
        self.labels = list(labels)
        self.left = list(left)
        self.right = list(right)
        self.mult = mult
        self.r = r
        self.name = name
        self._opposite: Algebra | None = None
        self._generators: list[int] | None = None
        self._paths: list[list[int]] | None = None
        self._cartan: Cartan | None = None
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

    @property
    def generators(self) -> list[int]:
        """The radical basis elements that are not pivots of the full RREF of
        rad^2, the span of the products of two radical basis elements.

        They lift a basis of rad/rad^2, so they generate rad A as an algebra
        (rad is nilpotent): rad M is the sum of the M * g, and a linear map
        that commutes with the idempotents and the generators commutes with
        all of A.  Computed on first read, or taken from the opposite when
        it has them.
        """
        gens = self._generators
        if gens is None and self._opposite is not None:
            # the opposite spans rad^2 with the same products, so its full
            # RREF, and with it the list, is the same
            gens = self._generators = self._opposite._generators
        if gens is None:
            rad2 = RowSpace(self.field)
            rad = range(self.r, self.dim)
            for x in rad:
                for y, row in self.mult[x].items():
                    if y >= self.r:
                        rad2.add(row)
            gens = self._generators = [x for x in rad if x not in rad2.pivot_of_col]
        return gens

    @property
    def paths(self) -> list[list[int]]:
        """``paths[i]``: the basis elements with left tag i, in basis order,
        which are the basis of e_i A.  Computed on first read."""
        paths = self._paths
        if paths is None:
            paths = self._paths = [[] for _ in range(self.r)]
            for k, i in enumerate(self.left):
                paths[i].append(k)
        return paths

    @property
    def cartan(self) -> Cartan:
        """The Cartan matrix, c[j][i] = dim e_i A e_j counted off the tags,
        and its determinant by Bareiss.  Computed on first read."""
        cartan = self._cartan
        if cartan is None:
            counts = [[0] * self.r for _ in range(self.r)]
            for i, j in zip(self.left, self.right):
                counts[j][i] += 1
            m = IntMatrix(counts)
            cartan = self._cartan = Cartan(m, det_int(m))
        return cartan

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
                row = mx.get(y)
                if row:
                    axpy(F, out, F.mul(cx, cy), row)
        return out

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

    # structural equality serves the checks; a hash by identity keeps an
    # algebra usable as a dict or set key without hashing its table
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


_PATH_GUARD = 20000
_ROW_GUARD = 200000


def _check_path_guard(words: int) -> None:
    if words > _PATH_GUARD:
        raise NotFiniteDimensionalError(
            "not visibly finite-dimensional within degree_cutoff "
            f"(path enumeration exceeded {_PATH_GUARD} words)")


class _Closure:
    """What both closure engines share: the arrows by source, the sorted
    one-arrow extension of a word list, the p*rel*q sandwiches, and the
    table of pivot expressions, which maps each eliminated word to its
    normal form.  An engine's ``run`` returns the normal words, and its
    ``_append`` multiplies a word by a composable raw arrow sequence."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.q = spec.quiver
        self.F = spec.field
        self.arrows_by_src: dict[int, list[int]] = {}
        for i, a in enumerate(self.q.arrows):
            self.arrows_by_src.setdefault(a.source, []).append(i)
        self.pivot_expr: dict[tuple, dict[tuple, object]] = {}

    def _extend(self, words: list[tuple]) -> list[tuple]:
        """The one-arrow extensions of these words, sorted by arrow sequence."""
        out = [(w[0], w[1] + (ai,)) for w in words
               for ai in self.arrows_by_src.get(_word_target(self.q, w), ())]
        out.sort(key=lambda w: w[1])
        return out

    def _sandwiches(self, rel, length: int, d: int, by_deg: list[list[tuple]]):
        """The pairs (p, q) of words in ``by_deg`` (words by length) with
        p ending where ``rel`` starts, q starting where it ends, and
        len p + ``length`` + len q = d."""
        for dp in range(d - length + 1):
            lefts = [w for w in by_deg[dp] if _word_target(self.q, w) == rel.source]
            rights = [w for w in by_deg[d - length - dp] if w[0] == rel.target]
            for pw in lefts:
                for qw in rights:
                    yield pw, qw

    def _keep_pivots(self, space: RowSpace, words: list[tuple]) -> set[int]:
        """Keep the pivot expressions of ``space`` over columns ``words``; return its pivots."""
        pivots = set(space.pivot_of_col)
        for c in pivots:
            expr = space.expression_of_pivot(c)
            self.pivot_expr[words[c]] = {words[cc]: x for cc, x in expr.items()}
        return pivots

    def _past_cutoff(self) -> NotFiniteDimensionalError:
        return NotFiniteDimensionalError(
            f"not visibly finite-dimensional within degree_cutoff={self.spec.degree_cutoff}")

    def reduce_product(self, u: tuple, v: tuple) -> dict[tuple, object]:
        if _word_target(self.q, u) != v[0]:
            return {}
        return self._append(u, v[1])


class _GradedClosure(_Closure):
    """Degreewise linear closure for homogeneous relations.

    Relations whose paths all share one length generate a graded ideal, so
    the quotient is computed degree by degree: candidates of degree d are
    the one-arrow extensions of the degree d-1 normal words, the degree-d
    slice of the ideal is spanned by p*rel*q products, and the RREF pivots
    (on the earliest word in length-lex order) mark the words eliminated
    from the basis.  Products reduce one arrow at a time, which keeps every
    lookup inside already-computed degrees.
    """

    def run(self) -> list[tuple]:
        F = self.F
        normal = [[(v, ()) for v in range(self.q.num_vertices)]]
        for d in range(1, self.spec.degree_cutoff + 1):
            cands = self._extend(normal[d - 1])
            _check_path_guard(sum(map(len, normal)) + len(cands))
            col = {w: k for k, w in enumerate(cands)}
            space = RowSpace(F)
            if d >= 2:
                for rel in self.spec.relations:
                    for pw, qw in self._sandwiches(rel, rel.terms[0][1].length, d, normal):
                        acc: dict[tuple, object] = {}
                        for coeff, relpath in rel.terms:
                            axpy(F, acc, coeff, self._append(pw, relpath.arrows + qw[1]))
                        if acc:
                            space.add({col[w2]: c2 for w2, c2 in acc.items()})
            pivot_cols = self._keep_pivots(space, cands)
            nf = [w for k, w in enumerate(cands) if k not in pivot_cols]
            if not nf:
                return [w for level in normal for w in level]
            normal.append(nf)
        raise self._past_cutoff()

    def _append(self, start: tuple, arrow_seq: tuple) -> dict[tuple, object]:
        """Multiply a normal word by a raw arrow sequence, reducing as it goes."""
        F = self.F
        cur: dict[tuple, object] = {start: F.one}
        for ai in arrow_seq:
            nxt: dict[tuple, object] = {}
            for w, c in cur.items():
                wa = (w[0], w[1] + (ai,))
                # a monomial relation's expression is {}, so test for None
                expr = self.pivot_expr.get(wa)
                axpy(F, nxt, c, {wa: F.one} if expr is None else expr)
            cur = nxt
            if not cur:
                break
        return cur


class _WindowedClosure(_Closure):
    """Linear closure on a length window, for inhomogeneous relations.

    All raw paths up to the current window are enumerated and every
    p*rel*q product that fits the window is added to one global row space
    (columns ordered by length then lex).  The window stops at the first D
    with no surviving word of length in (L, D] and D >= 2L, where L is the
    longest surviving word: every longer path then reduces, and products of
    basis words stay inside the reduction table.
    """

    def run(self) -> list[tuple]:
        F = self.F
        words = [(v, ()) for v in range(self.q.num_vertices)]
        by_deg = [list(words)]
        col = {w: k for k, w in enumerate(words)}
        space = RowSpace(F)
        rows_added = 0
        for D in range(1, self.spec.degree_cutoff + 1):
            level = self._extend(by_deg[-1])
            col.update((w, len(words) + k) for k, w in enumerate(level))
            words.extend(level)
            by_deg.append(level)
            _check_path_guard(len(words))
            if D < 2:
                continue
            for rel in self.spec.relations:
                mx = max(p.length for _, p in rel.terms)
                for pw, qw in self._sandwiches(rel, mx, D, by_deg):
                    vec: dict[int, object] = {}
                    for coeff, relpath in rel.terms:
                        w2 = (pw[0], pw[1] + relpath.arrows + qw[1])
                        axpy(F, vec, coeff, {col[w2]: F.one})
                    if vec:
                        space.add(vec)
                        rows_added += 1
                        if rows_added > _ROW_GUARD:
                            raise NotFiniteDimensionalError(
                                "not visibly finite-dimensional within "
                                f"degree_cutoff (row guard {_ROW_GUARD} exceeded)")
            pivots = set(space.pivot_of_col)
            normal = [w for k, w in enumerate(words) if k not in pivots]
            L = max(len(w[1]) for w in normal) if normal else 0
            if D >= max(L + 1, 2 * L):
                self._keep_pivots(space, words)
                return normal
        raise self._past_cutoff()

    def _append(self, start: tuple, arrow_seq: tuple) -> dict[tuple, object]:
        """Multiply a normal word by a raw arrow sequence: every path of the
        window is reduced, so one lookup gives the product."""
        w = (start[0], start[1] + arrow_seq)
        return dict(self.pivot_expr.get(w, {w: self.F.one}))


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
    mult = [{yi: {index[w]: c for w, c in red.items()}
             for yi, v in enumerate(words) if (red := engine.reduce_product(u, v))}
            for u in words]
    return Algebra(spec.field, list(q.vertex_labels), labels, left, right, mult,
                   q.num_vertices, name=spec.name or "quiver algebra")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

_MAX_FAILURES = 5


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str]
    nilpotency_index: int | None = None

    def __bool__(self):
        return self.ok


def validate(a: Algebra) -> ValidationReport:
    """Exhaustively check the Algebra invariants.

    Covers: tag consistency of every structure constant, the idempotent
    axioms, two-sidedness and nilpotency of the radical span, associativity
    over all basis triples, and the split basic shape.  Failures carry the
    first counterexample found; the check stops at ``_MAX_FAILURES``.
    """
    F = a.field
    fails: list[str] = []

    def note(msg: str) -> bool:
        fails.append(msg)
        return len(fails) >= _MAX_FAILURES

    dim, r = a.dim, a.r
    # idempotent axioms and unit behaviour
    for i in range(r):
        for j in range(r):
            got = a.mult[i].get(j, {})
            want = {i: F.one} if i == j else {}
            if got != want:
                if note(f"e_{i} * e_{j} = {got}, expected {want}"):
                    return ValidationReport(False, fails)
    # tags and unit action on every basis element
    for x in range(dim):
        for i in range(r):
            lw = {x: F.one} if i == a.left[x] else {}
            if a.mult[i].get(x, {}) != lw:
                if note(f"e_{i} * b_{x} inconsistent with left tag"):
                    return ValidationReport(False, fails)
            rw = {x: F.one} if i == a.right[x] else {}
            if a.mult[x].get(i, {}) != rw:
                if note(f"b_{x} * e_{i} inconsistent with right tag"):
                    return ValidationReport(False, fails)
    # structure constants respect tags and the radical is a two-sided ideal
    for x in range(dim):
        for y, row in a.mult[x].items():
            if a.right[x] != a.left[y]:
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
            xy = a.mult[x].get(y, {})
            for z in range(dim):
                lhs = a.mul_coords(xy, {z: F.one})
                rhs = a.mul_coords({x: F.one}, a.mult[y].get(z, {}))
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


def _check_products(a: Algebra, action: list[dict[int, dict]], side: str) -> None:
    """The load-time product rule: raise ValueError, naming y, g and by
    ``side`` the algebra, unless y then g acts as y * g for every radical
    basis element y and generator g (see ``Algebra.generators``); products
    of generators span rad, so the rule then holds for all of A.  ``action``
    holds the ``{s: row}`` matrices of a right module, as ``Module.action``,
    whose radical elements the caller has checked against the vertex tags.
    ``modules._check_module`` runs it on each module read off a file, and
    ``algebra_from_json`` on A_A, whose action is ``opposite(a).mult``: row
    x reads (x * y) * g = x * (y * g), associativity on generators
    (``validate`` checks every triple)."""
    F, one = a.field, a.field.one
    starting = [[g for g in a.generators if a.left[g] == i] for i in range(a.r)]
    for y in range(a.r, a.dim):
        for g in starting[a.right[y]]:
            yg = a.mult[y].get(g, {})
            if len(yg) == 1 and one in yg.values():
                product = action[next(iter(yg))]  # a basis element's own matrix
            else:
                out: dict = {}
                for z, cz in yg.items():
                    for s, row in action[z].items():
                        axpy(F, out.setdefault(s, {}), cz, row)
                product = {s: row for s, row in out.items() if row}
            if _matmul(F, action[y], action[g]) != product:
                raise ValueError(f"{a.labels[y]!r} then {a.labels[g]!r} in "
                                 f"{side or 'an unnamed algebra'} does not act as their product")


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------


def opposite(a: Algebra) -> Algebra:
    """Same basis, products reversed, vertex tags swapped: ``mult`` is the
    transpose of a's, so row x of its ``mult[y]`` is x * y in a, the
    action matrix of y on A_A (see ``modules.regular``).

    Built once per algebra: the two are kept on each other, so
    ``opposite(opposite(a)) is a``.  The pair is a reference cycle, which
    the garbage collector frees as a whole.
    """
    op = a._opposite
    if op is None:
        # the rows are shared: both algebras are immutable
        cols = _transpose(enumerate(a.mult))
        op = Algebra(a.field, a.vertex_labels, a.labels, a.right, a.left,
                     [cols.get(y, {}) for y in range(a.dim)], a.r, name=f"op({a.name})")
        op._opposite = a
        a._opposite = op
    return op


def _tensor_basis(a: Algebra, b: Algebra) -> tuple[list[tuple[int, int]], list[str]]:
    """Basis pairs of a tensor product, idempotent pairs first (row-major),
    then the remaining pairs in row-major order, and their labels.  Pair
    (i, j) of idempotents is basis element i * b.r + j."""
    idem = [(x, y) for x in range(a.r) for y in range(b.r)]
    rest = [(x, y) for x in range(a.dim) for y in range(b.dim)
            if not (x < a.r and y < b.r)]
    pairs = idem + rest
    return pairs, [f"{a.labels[x]}⊗{b.labels[y]}" for x, y in pairs]


def tensor(a: Algebra, b: Algebra) -> Algebra:
    """Tensor product algebra a (x) b (componentwise products, no signs),
    built anew at each call, in the basis order of ``_tensor_basis``."""
    return _tensor(a, b, f"{a.name}⊗{b.name}")


def _tensor(a: Algebra, b: Algebra, name: str) -> Algebra:
    if a.field != b.field:
        raise ValueError("tensor factors must share the field")
    F = a.field
    pairs, labels = _tensor_basis(a, b)
    pidx = {p: k for k, p in enumerate(pairs)}
    rb = b.r

    def vtx(i: int, j: int) -> int:
        return i * rb + j

    vertex_labels = [f"({va},{vb})" for va in a.vertex_labels for vb in b.vertex_labels]
    left = [vtx(a.left[x], b.left[y]) for x, y in pairs]
    right = [vtx(a.right[x], b.right[y]) for x, y in pairs]
    mult: list[dict[int, dict[int, object]]] = []
    # (x1, y1) * (x2, y2) is non-zero only where both factor products are,
    # so only those pairs are visited
    for x1, y1 in pairs:
        out_row = {}
        by = b.mult[y1]
        for x2, rx in a.mult[x1].items():
            for y2, ry in by.items():
                out = {}
                for z1, c1 in rx.items():
                    for z2, c2 in ry.items():
                        out[pidx[(z1, z2)]] = F.mul(c1, c2)
                out_row[pidx[(x2, y2)]] = out
        mult.append(dict(sorted(out_row.items())))
    return Algebra(F, vertex_labels, labels, left, right, mult, a.r * b.r, name=name)


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
    mult = [{old2new[y]: {old2new[z]: c for z, c in row.items()}
             for y, row in a.mult[x].items() if y in old2new} for x in keep]
    return Algebra(a.field, [a.vertex_labels[v] for v in S],
                   [a.labels[k] for k in keep],
                   [vmap[a.left[k]] for k in keep],
                   [vmap[a.right[k]] for k in keep],
                   mult, len(S), name=f"corner({a.name},{S})")


def _ideal_span(a: Algebra, vertices) -> RowSpace:
    """The span of AeA for e the sum of the given vertex idempotents: the
    non-zero products u*v with u's right tag in the vertex set (v's left
    tag is then the same vertex)."""
    Sset = set(vertices)
    space = RowSpace(a.field)
    for u in range(a.dim):
        if a.right[u] in Sset:
            for row in a.mult[u].values():
                space.add(row)
    return space


def quotient_by_idempotent_ideal(a: Algebra, vertices: list[int]) -> Algebra:
    """A/AeA for e the sum of the given vertex idempotents (proper, nonempty).

    The quotient basis is the set of basis elements that are not pivots of
    the span of AeA (see ``_ideal_span``), and products are reduced
    modulo the span.
    """
    S = sorted(set(vertices))
    if not S or len(S) >= a.r:
        raise ValueError("quotient needs a proper nonempty vertex set")
    F = a.field
    space = _ideal_span(a, S)
    Sset = set(S)
    pivots = set(space.pivot_of_col)
    # a basis element with a tag in S lies in AeA and, as a unit vector in
    # a full-RREF row space, on a pivot column, so every kept tag is outside S
    keep = [k for k in range(a.dim) if k not in pivots]
    old2new = {k: i for i, k in enumerate(keep)}
    newverts = [v for v in range(a.r) if v not in Sset]
    vmap = {v: i for i, v in enumerate(newverts)}

    # a product that reduces to zero lies in AeA and is dropped
    mult = [{old2new[y]: {old2new[z]: c for z, c in red.items()}
             for y, row in a.mult[x].items() if y in old2new and (red := space.reduce(row))}
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
    from .modules import bimodule_restrictions
    return _triangular(b, c, *bimodule_restrictions(b, c, m))


def _triangular(b: Algebra, c: Algebra, mb: "Module", mc: "Module") -> Algebra:
    """:func:`triangular` from M's restrictions M_B and _CM, the latter a
    right module over opposite(c)."""
    if b.field != c.field:
        raise ValueError("triangular factors must share the field")
    F = b.field
    rb, rc = b.r, c.r
    r = rb + rc
    nb, nc, nm = b.dim, c.dim, mb.dim
    dim = nb + nc + nm
    # index layout
    bmap = {x: (x if x < rb else r + (x - rb)) for x in range(nb)}
    cmap = {x: (rb + x if x < rc else r + (nb - rb) + nm + (x - rc)) for x in range(nc)}
    moff = r + (nb - rb)

    vertex_labels = [f"B:{v}" for v in b.vertex_labels] + [f"C:{v}" for v in c.vertex_labels]
    labels = [""] * dim
    left = [0] * dim
    right = [0] * dim
    mult: list[dict[int, dict[int, object]]] = [{} for _ in range(dim)]
    for alg, amap, prefix, shift in ((b, bmap, "B", 0), (c, cmap, "C", rb)):
        for x, row in enumerate(alg.mult):
            labels[amap[x]] = f"{prefix}:{alg.labels[x]}"
            left[amap[x]] = shift + alg.left[x]
            right[amap[x]] = shift + alg.right[x]
            mult[amap[x]] = {amap[y]: {amap[z]: cv for z, cv in zs.items()}
                             for y, zs in row.items()}
    for k in range(nm):
        labels[moff + k] = f"M:{k}"
        left[moff + k] = rb + mc.weights[k]
        right[moff + k] = mb.weights[k]
    # m * b (right action) and c * m (left action)
    for y in range(nb):
        for k, row in mb.action[y].items():
            mult[moff + k][bmap[y]] = {moff + t: cv for t, cv in row.items()}
    for x in range(nc):
        for k, row in mc.action[x].items():
            mult[cmap[x]][moff + k] = {moff + t: cv for t, cv in row.items()}
    return Algebra(F, vertex_labels, labels, left, right,
                   [dict(sorted(row.items())) for row in mult], r,
                   name=f"tri({b.name},{c.name})")


# --------------------------------------------------------------------------
# serialisation (homkit-algebra/1)
# --------------------------------------------------------------------------


def algebra_to_json(a: Algebra) -> dict:
    triples = []
    for x, row in enumerate(a.mult):
        for y, zs in row.items():
            for z in sorted(zs):
                triples.append([x, y, z, a.field.format(zs[z])])
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
    naming the entry or basis element at fault.  A structure constant that
    parses to zero is dropped, a product (x, y) at z may be given once only,
    and a non-zero one must respect the vertex tags: right[x] = left[y],
    left[z] = left[x] and right[z] = right[y].  A product with an idempotent
    is the unit one, x * e_y = x or e_x * y = y with coefficient 1, and a
    product of two radical elements has no idempotent component.  Every
    basis element k needs both of its unit products, e_left[k] * k and
    k * e_right[k].  The entries may come in any order.  Associativity is
    the product rule of ``_check_products`` on the right regular module
    A_A: (x * y) * g = x * (y * g) for every x, radical y and generator g."""
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
    left, right = [e["left"] for e in basis], [e["right"] for e in basis]
    if not isinstance(doc["mult"], list):
        raise ValueError("'mult' is not a list")
    mult: list[dict[int, dict[int, object]]] = [{} for _ in range(dim)]
    seen = set()
    for n, entry in enumerate(doc["mult"]):
        x, y, z, cv = entry if type(entry) is list and len(entry) == 4 else (None,) * 4
        if not (type(x) is type(y) is type(z) is int
                and 0 <= x < dim and 0 <= y < dim and 0 <= z < dim):
            raise ValueError(f"mult entry {n} is not [x, y, z, coefficient] with "
                             f"indices in 0..{dim - 1}: {entry!r}")
        if (x, y, z) in seen:
            raise ValueError(f"mult entry {n} repeats the product ({x}, {y}) at {z}")
        seen.add((x, y, z))
        try:
            c = F.parse(cv)
        except ValueError as e:
            raise ValueError(f"mult entry {n}: {e}") from None
        if c != 0:
            if not (right[x] == left[y] and left[z] == left[x] and right[z] == right[y]):
                raise ValueError(f"mult entry {n}: the product ({x}, {y}) at {z} "
                                 "does not respect the vertex tags")
            unit = x if y < r else y if x < r else None
            if unit is None and z < r:
                raise ValueError(f"mult entry {n}: the radical product ({x}, {y}) has "
                                 f"an idempotent component at {z}")
            if unit is not None and (z != unit or c != 1):
                raise ValueError(f"mult entry {n}: the product ({x}, {y}) with an "
                                 f"idempotent must be {unit} with coefficient 1")
            mult[x].setdefault(y, {})[z] = c
    for k in range(dim):
        for x, y in ((left[k], k), (k, right[k])):
            if y not in mult[x]:
                raise ValueError(f"basis element {k} has no unit product ({x}, {y})")
    a = Algebra(F, vertices, [e["label"] for e in basis], left, right,
                [dict(sorted(row.items())) for row in mult], r, name=doc.get("name", ""))
    _check_products(a, opposite(a).mult, a.name)
    return a
