"""Exact dense linear algebra over the rationals and prime fields.

Scalars are plain ``Fraction`` values over Q and canonical ints in [0, p)
over F_p.  There is no floating point anywhere in the package and every
comparison is exact.  Matrices are dense, row-major lists of lists; the
sizes that occur in practice are desk scale (a few hundred at most).
"""

from __future__ import annotations

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

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

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
    def from_name(name: str) -> "Field":
        name = name.strip()
        if name == "Q":
            return Field.rationals()
        if name.startswith("F") and name[1:].isdigit():
            return Field.prime(int(name[1:]))
        raise FieldError(f"unknown field {name!r}")


@dataclass
class RrefResult:
    rank: int
    reduced: "Matrix"
    pivot_columns: list[int]


@dataclass
class Solution:
    particular: list  # one solution vector, length = cols of the system
    kernel: list      # basis of the null space, each of the same length


class Matrix:
    """Dense matrix over a :class:`Field`. Treated as immutable after construction."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list]):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        m = Matrix.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_int_rows(field: Field, rows: list[list[int]]) -> "Matrix":
        return Matrix(field, [[field.of_int(x) for x in row] for row in rows])

    def copy(self) -> "Matrix":
        return Matrix(self.field, [row[:] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.field.name()}, {self.data})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def rref(self) -> RrefResult:
        """Unique reduced row echelon form, with rank and pivot columns."""
        F = self.field
        m = [row[:] for row in self.data]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = F.inv(m[r][c])
            m[r] = [F.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    mr = m[r]
                    m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], mr)]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return RrefResult(r, Matrix(F, m), pivots)

    def rank(self) -> int:
        return self.rref().rank

    def kernel_basis(self) -> list[list]:
        """Basis of the null space {x : self @ x = 0}.

        Each vector is a list of length ``cols``; the result is empty when
        the matrix has full column rank.
        """
        F = self.field
        res = self.rref()
        piv = res.pivot_columns
        pivset = set(piv)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        red = res.reduced.data
        for fc in free:
            v = [F.zero] * self.cols
            v[fc] = F.one
            for r, pc in enumerate(piv):
                v[pc] = F.neg(red[r][fc])
            basis.append(v)
        return basis

    def solve(self, rhs: list) -> Solution | None:
        """Solve ``self x = rhs`` for a column vector x.

        Returns None iff the system is inconsistent; otherwise one particular
        solution together with a basis of the kernel.
        """
        if len(rhs) != self.rows:
            raise ValueError(f"rhs length {len(rhs)} != row count {self.rows}")
        F = self.field
        aug = Matrix(F, [self.data[i][:] + [rhs[i]] for i in range(self.rows)])
        res = aug.rref()
        red = res.reduced.data
        piv = res.pivot_columns
        if self.cols in piv:
            return None
        x = [F.zero] * self.cols
        for r, pc in enumerate(piv):
            x[pc] = red[r][self.cols]
        return Solution(particular=x, kernel=self.kernel_basis())


class RowSpace:
    """Incrementally built row space in full reduced echelon form.

    Rows are sparse dicts ``{column: scalar}``.  Pivots sit on the earliest
    (smallest-index) column of each row, every pivot column is eliminated
    from every other row, and pivot entries are normalised to 1.  This is
    the workhorse behind span/quotient computations.

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
        """Eliminate all pivot columns from ``vec``; returns the residue."""
        F = self.field
        v = {c: x for c, x in vec.items() if x != 0}
        hits = [c for c in v if c in self.pivot_of_col]
        for c in sorted(hits):
            coeff = v.get(c)
            if not coeff:
                continue
            row = self.rows[self.pivot_of_col[c]]
            for cc, x in row.items():
                nv = F.sub(v.get(cc, F.zero), F.mul(coeff, x))
                if nv == 0:
                    v.pop(cc, None)
                else:
                    v[cc] = nv
        return v

    def add(self, vec: dict) -> bool:
        """Add a vector to the span; True iff the rank grew."""
        F = self.field
        v = self.reduce(vec)
        if not v:
            return False
        lead = min(v)
        inv = F.inv(v[lead])
        v = {c: F.mul(inv, x) for c, x in v.items()}
        # back-substitute the new pivot column out of the existing rows
        if lead in self._cols:
            for row in self.rows:
                coeff = row.get(lead)
                if coeff is not None and coeff != 0:
                    for cc, x in v.items():
                        nv = F.sub(row.get(cc, F.zero), F.mul(coeff, x))
                        if nv == 0:
                            row.pop(cc, None)
                        else:
                            row[cc] = nv
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
        return a kernel basis, one sparse vector per free column.
        """
        F = self.field
        basis = {fc: {fc: F.one} for fc in range(ncols) if fc not in self.pivot_of_col}
        # in full RREF a row's non-pivot entries all sit in free columns
        for pc, row in zip(self.pivot_cols, self.rows):
            for c, x in row.items():
                v = basis.get(c)
                if v is not None:
                    v[pc] = F.neg(x)
        return list(basis.values())


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

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        return IntMatrix([[sum(self.data[i][k] * other.data[k][j] for k in range(n))
                           for j in range(n)] for i in range(n)])


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


def invert_int(m: IntMatrix):
    """Exact inverse as a matrix of Fractions, or None when singular."""
    if det_int(m) == 0:
        return None
    n = m.n
    Q = Field.rationals()
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m.data)]
    aug = Matrix(Q, a)
    red = aug.rref().reduced.data
    return [row[n:] for row in red]


def det_mod_p(m: IntMatrix, p: int) -> int:
    """Determinant of m reduced mod p, computed entirely in F_p.

    Independent cross-oracle for det_int: Gaussian elimination over F_p.
    """
    F = Field.prime(p)
    n = m.n
    if n == 0:
        return 1 % p
    a = [[x % p for x in row] for row in m.data]
    det = 1
    for k in range(n):
        pr = None
        for i in range(k, n):
            if a[i][k] != 0:
                pr = i
                break
        if pr is None:
            return 0
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
            det = (-det) % p
        det = det * a[k][k] % p
        inv = F.inv(a[k][k])
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p
