"""A fixed reference computation that measures the host's current speed.

The benchmark's host is a share of a machine whose speed drifts by up to
1.5x between regimes lasting seconds to minutes (the other tenants' load),
which moves every wall time with it.  ``measure()`` times a fixed piece of
pure-Python work, chosen to resemble homkit's hot path (dense exact
elimination over F_p and Q, with a scalar method call per operation, on
lists of lists), but sharing no code with homkit, so no change to homkit
can move it.  The benchmark runs it next to every request and scales each
wall time by ``REFERENCE_S / yardstick time``, which turns it into the time
the same work takes on the host at its reference speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

# about the median yardstick time on the 2-vCPU host (Python 3.11.7) where
# the benchmark was defined, which read 2.4-3.5 ms as its regime changed; a
# scaled time is in seconds at the speed where the yardstick takes this long
REFERENCE_S = 0.0025


class _Fp:
    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def mul(self, a, b):
        return a * b % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


class _Q:
    __slots__ = ()

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def inv(self, a):
        return 1 / a


def _rank(field, rows: list[list]) -> int:
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(r + 1, n_rows):
            f = m[i][c]
            if f != 0:
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _matrix(n: int, modulus: int) -> list[list[int]]:
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % modulus)
        rows.append(row)
    return rows


_FP_ROWS = _matrix(22, 10007)
_Q_ROWS = [[Fraction(v - 4) for v in row] for row in _matrix(8, 9)]
_EXPECTED = (_rank(_Fp(10007), _FP_ROWS), _rank(_Q(), _Q_ROWS))


def work() -> tuple[int, int]:
    return _rank(_Fp(10007), _FP_ROWS), _rank(_Q(), _Q_ROWS)


def measure() -> float:
    """Seconds taken by one run of the fixed work on the host right now."""
    t0 = time.perf_counter()
    result = work()
    dt = time.perf_counter() - t0
    if result != _EXPECTED:
        raise AssertionError(f"yardstick computed {result}, not {_EXPECTED}")
    return dt
