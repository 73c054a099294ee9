"""Exact linear algebra over the rationals and prime fields.

Scalars are plain ``Fraction`` values over Q and canonical ints in [0, p)
over F_p.  There is no floating point anywhere in the package and every
comparison is exact.  One sparse row space in full RREF (:class:`RowSpace`)
does the elimination: spans, residues, kernels and inverses.  Integer
matrices (:class:`IntMatrix`) are dense and square, for Cartan data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class Field:
    """The rationals (``p is None``) or the prime field F_p.

    Elements of Q are ``Fraction``; elements of F_p are ints in [0, p).
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise FieldError(f"modulus {self.p} is not prime")

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int) -> "Field":
        if p >= 1 << 31:
            raise FieldError(f"modulus {p} too large (must be < 2^31)")
        return Field(p)

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        """Parse 'a' or 'a/b' into a field scalar."""
        if not isinstance(text, str):
            raise FieldError(f"scalar {text!r} is not a string")
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            n, d = int(num), int(den)
            if self.p is None:
                if d == 0:
                    raise FieldError(f"denominator of {text!r} is zero")
                return Fraction(n, d)
            if d % self.p == 0:
                raise FieldError(f"denominator {d} is zero mod {self.p}")
            return self.div(self.of_int(n), self.of_int(d))
        return self.of_int(int(text))

    def format(self, a) -> str:
        if self.p is None:
            return str(a)
        return str(a % self.p)

    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    @staticmethod
    @functools.cache  # every document names its field; is_prime runs once per name
    def from_name(name: str) -> "Field":
        name = name.strip()
        if name == "Q":
            return Field.rationals()
        if name.startswith("F") and name[1:].isascii() and name[1:].isdigit():
            return Field.prime(int(name[1:]))
        raise FieldError(f"unknown field {name!r}")


def axpy(F: Field, acc: dict, c, row: dict) -> None:
    """``acc += c * row`` in place on sparse rows ``{column: scalar}``,
    storing no zero: an entry that cancels is removed.  ``acc`` and ``row``
    must be distinct objects.  The one sparse-row update of the package, it
    reads ``F.p`` once and runs a loop over Q or over F_p, arithmetic inline."""
    p = F.p
    if p is None:
        for k, x in row.items():
            if v := acc.get(k, 0) + c * x:
                acc[k] = v
            else:
                acc.pop(k, None)
    else:
        for k, x in row.items():
            if v := (acc.get(k, 0) + c * x) % p:
                acc[k] = v
            else:
                acc.pop(k, None)


# Sparse matrices are ``{s: row}`` dicts over their non-zero rows, as
# ``Module.action`` and ``Algebra.mult`` store them.  The helpers are
# private to the package: they run too often to be spans of their own.

def _vecmat(F: Field, v: dict, A: dict) -> dict:
    """The sparse row ``v @ A``; ``A`` maps a row index to its sparse row,
    and a row it does not hold is zero."""
    out: dict = {}
    for i, a in v.items():
        row = A.get(i)
        if row:
            axpy(F, out, a, row)
    return out


def _matmul(F: Field, A: dict, B: dict) -> dict:
    """The matrix ``A @ B`` of two ``{s: row}`` matrices, over its non-zero
    rows."""
    return {s: v for s, row in A.items() if (v := _vecmat(F, row, B))}


def _transpose(rows) -> dict:
    """The transpose of the matrix with these ``(index, sparse row)`` pairs:
    its non-zero rows in order of first appearance (not sorted), each with
    its entries in the order of the pairs."""
    out: dict = {}
    for s, row in rows:
        for t, x in row.items():
            col = out.get(t)
            if col is None:
                out[t] = {s: x}
            else:
                col[s] = x
    return out


class Matrix:
    """Dense matrix over a :class:`Field`: a front end to
    :meth:`RowSpace.kernel_basis` for row-major lists of lists."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list]):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    def kernel_basis(self) -> list[list]:
        """Basis of the null space {x : self @ x = 0}.

        Each vector is a list of length ``cols``, one per free column of
        the (unique) full RREF; the result is empty when the matrix has
        full column rank.
        """
        F = self.field
        rs = RowSpace(F)
        for row in self.data:
            rs.add({c: x for c, x in enumerate(row) if x != 0})
        return [[v.get(c, F.zero) for c in range(self.cols)]
                for v in rs.kernel_basis(self.cols)]


class RowSpace:
    """Incrementally built row space in full reduced echelon form.

    Rows are sparse dicts ``{column: scalar}`` that store no zero; every
    caller passes such rows (``Matrix.kernel_basis`` filters its dense
    ones).  Pivots sit on the earliest (smallest-index) column of each row,
    every pivot column is eliminated from every other row, and pivot
    entries are normalised to 1.  This is the workhorse behind
    span/quotient computations.

    The full RREF of a span is unique, so the ``{pivot: row}`` map, the
    kernel basis and every residue do not depend on the order of the adds;
    only the order of ``rows`` and ``pivot_cols`` does.  :meth:`reduce` and
    :meth:`add` eliminate in one pass over the input's keys, in any order: a
    stored row holds no pivot column but its own, so eliminating one pivot
    column leaves the input's entries at the others as they were.

    ``_cols`` holds every column that a stored row has ever used.  It only
    grows, so a new pivot column outside it occurs in no stored row and
    needs no back-substitution pass.
    """

    __slots__ = ("field", "rows", "pivot_of_col", "pivot_cols", "_cols")

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[dict[int, object]] = []
        self.pivot_of_col: dict[int, int] = {}
        self.pivot_cols: list[int] = []
        self._cols: set[int] = set()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Eliminate all pivot columns from ``vec``; returns the residue, a
        new dict."""
        F = self.field
        v = dict(vec)
        pivot_of_col = self.pivot_of_col
        rows = self.rows
        for c, x in vec.items():
            if (s := pivot_of_col.get(c)) is not None:
                axpy(F, v, F.neg(x), rows[s])
        return v

    def add(self, vec: dict) -> bool:
        """Add a vector, reduced inline as in :meth:`reduce`; True iff the rank grew."""
        F = self.field
        v = dict(vec)
        for c, x in vec.items():
            if (s := self.pivot_of_col.get(c)) is not None:
                axpy(F, v, F.neg(x), self.rows[s])
        if not v:
            return False
        lead = min(v) if len(v) > 1 else next(iter(v))
        x = v[lead]
        if x != 1:
            inv = F.inv(x)
            v = {c: F.mul(inv, y) for c, y in v.items()}
        # back-substitute the new pivot column out of the existing rows
        if lead in self._cols:
            for row in self.rows:
                coeff = row.get(lead)
                if coeff is not None:
                    axpy(F, row, F.neg(coeff), v)
        self._cols.update(v)
        self.pivot_of_col[lead] = len(self.rows)
        self.pivot_cols.append(lead)
        self.rows.append(v)
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def expression_of_pivot(self, col: int) -> dict:
        """For a pivot column c, the residue expression c = -sum(rest)."""
        F = self.field
        row = self.rows[self.pivot_of_col[col]]
        return {c: F.neg(x) for c, x in row.items() if c != col}

    def kernel_basis(self, ncols: int) -> list[dict]:
        """Treat the stored rows as equations in ``ncols`` unknowns and
        return a kernel basis in free-column order, one sparse vector per
        free column, that column being its first key."""
        F = self.field
        one = F.one
        pivots = self.pivot_of_col
        basis = {fc: {fc: one} for fc in range(ncols) if fc not in pivots}
        # in full RREF a row's non-pivot entries all sit in free columns
        for pc, row in zip(self.pivot_cols, self.rows):
            for c, x in row.items():
                v = basis.get(c)
                if v is not None:
                    v[pc] = F.neg(x)
        return list(basis.values())


def inverse(F: Field, rows: list[dict], n: int) -> list[dict] | None:
    """Inverse of the n x n matrix with these sparse rows, as sparse rows,
    or None when it is singular.

    [T | I] is reduced in a :class:`RowSpace`: T is invertible iff every
    pivot is a column of T, and then the row with pivot c carries row c of
    T^-1 in its right half.
    """
    aug = RowSpace(F)
    for s, row in enumerate(rows):
        aug.add({**row, n + s: F.one})
    if any(c >= n for c in aug.pivot_cols):
        return None
    right = dict(zip(aug.pivot_cols, aug.rows))
    return [{t - n: x for t, x in right[c].items() if t >= n} for c in range(n)]


class IntMatrix:
    """Square integer matrix with arbitrary-precision entries."""

    __slots__ = ("n", "data")

    def __init__(self, data: list[list[int]]):
        self.n = len(data)
        for row in data:
            if len(row) != self.n:
                raise ValueError("IntMatrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("IntMatrix entries must be ints")
        self.data = [row[:] for row in data]

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self):
        return f"IntMatrix({self.data})"

    def transpose(self) -> "IntMatrix":
        return IntMatrix([[self.data[i][j] for i in range(self.n)] for j in range(self.n)])


def det_int(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Intermediate entries stay integral; divisions are exact. det of the
    empty 0x0 matrix is 1.
    """
    n = m.n
    if n == 0:
        return 1
    a = [row[:] for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]
