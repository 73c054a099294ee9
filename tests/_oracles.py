"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (cofactor expansion, word
enumeration, exhaustive search) and shares no code with the production
paths it checks.
"""

from fractions import Fraction


def det_cofactor(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def brute_force_modp_solutions(matrix_rows, rhs, p):
    """All solution vectors of a linear system over F_p, by enumeration."""
    ncols = len(matrix_rows[0])
    sols = []
    vec = [0] * ncols

    def rec(i):
        if i == ncols:
            for row, b in zip(matrix_rows, rhs):
                if sum(r * v for r, v in zip(row, vec)) % p != b % p:
                    return
            sols.append(list(vec))
            return
        for x in range(p):
            vec[i] = x
            rec(i + 1)

    rec(0)
    return sols


def adjacency_path_counts(num_vertices, arrows, max_length):
    """Number of paths of each length <= max_length via adjacency powers.

    ``arrows`` is a list of (source, target) pairs; multiplicities count.
    """
    adj = [[0] * num_vertices for _ in range(num_vertices)]
    for s, t in arrows:
        adj[s][t] += 1
    counts = [num_vertices]
    power = [[1 if i == j else 0 for j in range(num_vertices)] for i in range(num_vertices)]
    for _ in range(max_length):
        nxt = [[sum(power[i][k] * adj[k][j] for k in range(num_vertices))
                for j in range(num_vertices)] for i in range(num_vertices)]
        power = nxt
        counts.append(sum(sum(row) for row in power))
    return counts


def monomial_normal_words(num_vertices, arrows, forbidden, max_length):
    """Normal-form words (paths avoiding every forbidden subword) by length.

    ``arrows`` is a list of (source, target); ``forbidden`` is a collection
    of arrow-index tuples (monomial relations).  Returns a list indexed by
    length; entry 0 holds the vertices as (vertex,) markers.
    """
    forb = set(tuple(f) for f in forbidden)

    def has_forbidden(word):
        for f in forb:
            L = len(f)
            for i in range(len(word) - L + 1):
                if word[i:i + L] == f:
                    return True
        return False

    by_len = [[("v", v) for v in range(num_vertices)]]
    cur = [((), v, v) for v in range(num_vertices)]  # (word, src, tgt)
    words = [cur]
    for _ in range(max_length):
        nxt = []
        for word, src, tgt in words[-1]:
            for ai, (s, t) in enumerate(arrows):
                if s == tgt:
                    w2 = word + (ai,)
                    if not has_forbidden(w2):
                        nxt.append((w2, src, t))
        words.append(nxt)
    return words


def cartan_counts_from_words(num_vertices, words):
    """Cartan matrix (c[i][j] = #normal words from j to i) from the output
    of :func:`monomial_normal_words`."""
    c = [[0] * num_vertices for _ in range(num_vertices)]
    for level in words:
        for _, src, tgt in level:
            c[tgt][src] += 1
    return c


def monomial_simple_syzygies(r, left, right, mult, steps):
    """pd S_i and dim Omega^n S_i for n = 0..steps, for each vertex i in
    order, of a monomial algebra given by its structure constants, read off
    the graph of minimal zero products (Green, Happel and Zacharia 1985).

    The basis elements after the r idempotents must be the non-zero paths:
    ``mult[x][y]`` is absent or ``{z: 1}``, with x * y = z.  The arrows are
    the radical elements that are no product of two radical ones, and
    Omega S_i is the sum of the alpha A over the arrows alpha with left tag
    i.  Omega(pA) is the sum of the qA over the minimal q with pq = 0: q
    has left tag right[p], and pq' != 0 for each proper left factor q' of
    q (q = q' t with t radical).  So Omega^n S_i is a sum of pA's, counted
    by walks along p -> q, and pd S_i is 0 without an arrow at i, otherwise
    one more than the longest walk from an arrow at i, or None (infinite)
    when a cycle is reachable.  Returns a list of (pd, dims) pairs.
    """
    prod = {}
    for x, row in enumerate(mult):
        for y, zs in row.items():
            (z, c), = zs.items()
            if c != 1:
                raise ValueError(f"{x} * {y} is not a path")
            prod[x, y] = z
    radical = range(r, len(left))
    factors = {q: [] for q in radical}
    span = dict.fromkeys(radical, 0)  # dim pA: one basis path p t per t with p t != 0
    for (x, y), z in prod.items():
        if x >= r:
            span[x] += 1
            if y >= r:
                factors[z].append(x)
    arrows = [q for q in radical if not factors[q]]
    succ = {p: [q for q in radical if left[q] == right[p] and (p, q) not in prod
                and all((p, f) in prod for f in factors[q])] for p in radical}
    depth = {}  # pd of pA; None when a cycle is reachable from p

    def pd_of(p, active):
        if p in active:
            return None
        if p not in depth:
            active.add(p)
            ds = [pd_of(q, active) for q in succ[p]]
            active.discard(p)
            depth[p] = None if None in ds else max((d + 1 for d in ds), default=0)
        return depth[p]

    out = []
    for i in range(r):
        top = [a for a in arrows if left[a] == i]
        ds = [pd_of(a, set()) for a in top]
        pd = None if None in ds else max((d + 1 for d in ds), default=0)
        counts, dims = dict.fromkeys(top, 1), [1]
        for _ in range(steps):
            dims.append(sum(c * span[p] for p, c in counts.items()))
            nxt = {}
            for p, c in counts.items():
                for q in succ[p]:
                    nxt[q] = nxt.get(q, 0) + c
            counts = nxt
        out.append((pd, dims))
    return out


def invert_2x2(rows):
    """Exact 2x2 inverse via the adjugate; None when singular."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det == 0:
        return None
    return [[Fraction(d, det), Fraction(-b, det)],
            [Fraction(-c, det), Fraction(a, det)]]


def dense_rows(rows, ncols):
    """A list of sparse ``{column: scalar}`` rows written out as dense lists."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def dense_action(mat, dim):
    """A module action matrix, ``{row: {column: scalar}}`` over its stored
    rows, written out as a dense dim x dim list; a row it does not hold is
    zero."""
    return [[mat.get(s, {}).get(c, 0) for c in range(dim)] for s in range(dim)]


def dense_matmul(a, b, p=None):
    """Schoolbook product of dense matrices; entries reduced mod p if given."""
    inner = len(b)
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        prod = [sum((row[k] * b[k][j] for k in range(inner)), 0) for j in range(ncols)]
        out.append([x % p for x in prod] if p is not None else prod)
    return out


def dense_rank(rows, p=None):
    """Rank of a dense matrix by schoolbook elimination, over F_p if p is
    given and over Q (with Fractions) otherwise."""
    work = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][c] if p is None else pow(work[rank][c], -1, p)
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
                if p is not None:
                    work[i] = [a % p for a in work[i]]
        rank += 1
    return rank


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def iso_witness_holds(m, n, matrix, inverse):
    """True iff ``matrix`` is invertible with the given inverse and
    intertwines the actions of every algebra basis element on m and n,
    checked with dense schoolbook products.  Both matrices are given as
    ``{row: {column: scalar}}``, the format of a module action."""
    p = m.algebra.field.p
    matrix, inverse = dense_action(matrix, m.dim), dense_action(inverse, m.dim)
    if dense_matmul(matrix, inverse, p) != identity_matrix(m.dim):
        return False
    return all(dense_matmul(dense_action(m.action[x], m.dim), matrix, p)
               == dense_matmul(matrix, dense_action(n.action[x], n.dim), p)
               for x in range(m.algebra.dim))


def split_witness_holds(x, y, inclusion, retraction):
    """True iff ``inclusion`` (x -> y) and ``retraction`` (y -> x) both
    intertwine the actions of every algebra basis element and
    inclusion @ retraction is the identity of x, so that x is a direct
    summand of y; checked with dense schoolbook products.  Both maps are
    given as ``{row: {column: scalar}}``, the format of a module action."""
    p = x.algebra.field.p

    def dense_map(mat, rows, cols):
        return [[mat.get(s, {}).get(t, 0) for t in range(cols)] for s in range(rows)]

    inc = dense_map(inclusion, x.dim, y.dim)
    ret = dense_map(retraction, y.dim, x.dim)
    if dense_matmul(inc, ret, p) != identity_matrix(x.dim):
        return False
    for a in range(x.algebra.dim):
        ax, ay = dense_action(x.action[a], x.dim), dense_action(y.action[a], y.dim)
        if (dense_matmul(ax, inc, p) != dense_matmul(inc, ay, p)
                or dense_matmul(ay, ret, p) != dense_matmul(ret, ax, p)):
            return False
    return True


def radical_generators(algebra):
    """The radical basis elements outside the pivot columns of the RREF of
    rad^2, spanned by the products of two radical basis elements; rad^2 is
    written out densely from the structure constants."""
    r, n = algebra.r, algebra.dim
    rows = [[algebra.mult[x][y].get(z, 0) for z in range(n)]
            for x in range(r, n) for y in range(r, n) if y in algebra.mult[x]]
    _, pivots = dense_rref(rows, n, algebra.field.p)
    return [x for x in range(r, n) if x not in pivots]


def dense_rref(rows, ncols, p=None):
    """Reduced row echelon form of a dense matrix by schoolbook elimination,
    over F_p if p is given and over Q (with Fractions) otherwise.

    Returns ``(reduced, pivots)``: the non-zero rows of the unique RREF,
    with unit pivots, and their pivot columns in increasing order.
    """
    work = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][c] if p is None else pow(work[rank][c], -1, p)
        work[rank] = [x * inv if p is None else x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b if p is None else (a - f * b) % p
                           for a, b in zip(work[i], work[rank])]
        pivots.append(c)
        rank += 1
    return work[:rank], pivots


def dense_axpy(acc, c, row, p=None):
    """The dense vector acc + c * row, over F_p if p is given and over Q
    (with Fractions) otherwise."""
    return [Fraction(x) + Fraction(c) * y if p is None else (x + c * y) % p
            for x, y in zip(acc, row)]


def dense_kernel(rows, ncols, p=None):
    """Basis of the null space {x : rows @ x = 0}, one vector per free
    column of the RREF from :func:`dense_rref`."""
    reduced, pivots = dense_rref(rows, ncols, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, c in zip(reduced, pivots):
            v[c] = -row[fc] if p is None else -row[fc] % p
        basis.append(v)
    return basis


def invert_int(rows):
    """Exact inverse of a square integer matrix as Fractions, from the RREF
    of [A | I]; None when A is singular."""
    n = len(rows)
    aug = [list(row) + identity_matrix(n)[i] for i, row in enumerate(rows)]
    reduced, pivots = dense_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def det_mod_p(rows, p):
    """Determinant of a square integer matrix reduced mod p, by Gaussian
    elimination over F_p."""
    n = len(rows)
    if n == 0:
        return 1 % p
    a = [[x % p for x in row] for row in rows]
    det = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pr is None:
            return 0
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det


def basis_with_tags(left, right, i, j):
    """Indices k of the basis elements with left tag i and right tag j,
    given the two tag lists of an algebra basis."""
    return [k for k, (lk, rk) in enumerate(zip(left, right)) if lk == i and rk == j]


def balanced_tensor_dim(m_weights, n_weights, radical, p=None):
    """dim M (x)_R N for a right R-module M and a left R-module N over a
    basic algebra R, as the quotient of the sum of the spaces Me_i (x) e_iN
    by the relations m*x (x) n - m (x) x*n.

    ``m_weights[s]`` and ``n_weights[t]`` are the vertices of the basis
    vectors (b_s e_i = b_s, e_i b_t = b_t).  ``radical`` lists one
    ``(i, j, mx, nx)`` per radical basis element x = e_i x e_j: ``mx`` is
    the dense matrix of the right action of x on M (row s is b_s * x) and
    ``nx`` that of its left action on N (row t is x * b_t).
    """
    pairs = {}
    for s, ws in enumerate(m_weights):
        for t, wt in enumerate(n_weights):
            if ws == wt:
                pairs[(s, t)] = len(pairs)
    rows = []
    for i, j, mx, nx in radical:
        for s in (s for s, w in enumerate(m_weights) if w == i):
            for t in (t for t, w in enumerate(n_weights) if w == j):
                row = [0] * len(pairs)
                for c, v in enumerate(mx[s]):
                    if v:
                        row[pairs[(c, t)]] += v
                for d, v in enumerate(nx[t]):
                    if v:
                        row[pairs[(s, d)]] -= v
                if any(row):
                    rows.append(row)
    return len(pairs) - dense_rank(rows, p)


def module_tensor_dim(m, n):
    """:func:`balanced_tensor_dim` of a right module m over R and a right
    module n over the opposite of R (a left R-module), read off their
    attributes; the opposite keeps R's basis, so row t of ``n.action[x]``
    is x * b_t."""
    a = m.algebra
    radical = [(a.left[x], a.right[x], dense_action(m.action[x], m.dim),
                dense_action(n.action[x], n.dim)) for x in range(a.r, a.dim)]
    return balanced_tensor_dim(m.weights, n.weights, radical, a.field.p)


def _dense_linear_image(images, coords, p=None):
    """The dense image of the element with sparse coordinates ``coords``
    under the linear map with dense images ``images[x]`` of basis elements."""
    out = [0] * len(images[0])
    for x, c in coords.items():
        for t, v in enumerate(images[x]):
            out[t] += c * v
    return [Fraction(v) if p is None else v % p for v in out]


def algebra_map_holds(source, target, images):
    """True iff the linear map sending source basis element x to the target
    element with dense coordinates ``images[x]`` sends 1 (the sum of the
    vertex idempotents, the first ``r`` basis elements) to 1 and is
    multiplicative on every pair of basis elements, with products read off
    the structure constants ``mult`` on plain lists."""
    p = target.field.p
    n = target.dim
    if len(images) != source.dim or any(len(img) != n for img in images):
        return False

    def product(u, v):
        out = [0] * n
        for x, ux in enumerate(u):
            if ux:
                for y, vy in enumerate(v):
                    if vy:
                        for z, c in target.mult[x].get(y, {}).items():
                            out[z] += ux * vy * c
        return [Fraction(w) if p is None else w % p for w in out]

    unit = [1 if t < target.r else 0 for t in range(n)]
    if _dense_linear_image(images, {i: 1 for i in range(source.r)}, p) != unit:
        return False
    return all(product(images[x], images[y])
               == _dense_linear_image(images, source.mult[x].get(y, {}), p)
               for x in range(source.dim) for y in range(source.dim))


def restrict_along(images, m):
    """The dense matrices of the module m pulled back along the map with
    dense images ``images[x]``: source basis element x acts as the sum of
    ``images[x][z]`` times the action of z.  The map is not checked (see
    :func:`algebra_map_holds`)."""
    p = m.algebra.field.p
    dense = {}
    out = []
    for img in images:
        acc = [[0] * m.dim for _ in range(m.dim)]
        for z, c in enumerate(img):
            if c:
                if z not in dense:
                    dense[z] = dense_action(m.action[z], m.dim)
                for s, row in enumerate(dense[z]):
                    for t, v in enumerate(row):
                        acc[s][t] += c * v
        out.append([[Fraction(v) if p is None else v % p for v in row] for row in acc])
    return out
