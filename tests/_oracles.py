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


def invert_2x2(rows):
    """Exact 2x2 inverse via the adjugate; None when singular."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det == 0:
        return None
    return [[Fraction(d, det), Fraction(-b, det)],
            [Fraction(-c, det), Fraction(a, det)]]


def dense_rows(rows, ncols):
    """Sparse ``{column: scalar}`` rows written out as dense lists."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


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
    checked with dense schoolbook products."""
    p = m.algebra.field.p
    if dense_matmul(matrix, inverse, p) != identity_matrix(m.dim):
        return False
    return all(dense_matmul(dense_rows(m.action[x], m.dim), matrix, p)
               == dense_matmul(matrix, dense_rows(n.action[x], n.dim), p)
               for x in range(m.algebra.dim))


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
