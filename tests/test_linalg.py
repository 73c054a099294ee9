from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homkit.linalg import (Field, FieldError, IntMatrix, Matrix, RowSpace,
                           det_int, det_mod_p, invert_int, is_prime)
from _oracles import brute_force_modp_solutions, dense_rref, det_cofactor, invert_2x2

Q = Field.rationals()
F3 = Field.prime(3)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 101, 2 ** 31 - 1]
    composites = [0, 1, 4, 9, 100, 561, 2 ** 31 - 2]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        Field.prime(6)


@pytest.mark.parametrize("text", [1, None, ["1"], "1/0", "2/0"])
@pytest.mark.parametrize("field", [Field.rationals(), Field.prime(7)])
def test_parse_rejects_non_strings_and_zero_denominators(field, text):
    with pytest.raises(FieldError):
        field.parse(text)


def test_field_arithmetic_modp():
    F = Field.prime(7)
    assert F.add(5, 4) == 2
    assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert F.parse("1/2") == F.div(F.one, F.of_int(2))


def test_rref_identity():
    res = Matrix.identity(Q, 3).rref()
    assert res.rank == 3
    assert res.pivot_columns == [0, 1, 2]
    assert res.reduced == Matrix.identity(Q, 3)


def test_rref_zero():
    res = Matrix.zeros(Q, 2, 4).rref()
    assert res.rank == 0
    assert res.pivot_columns == []


def test_rref_proportional_rows():
    m = Matrix.from_int_rows(Q, [[1, 2], [2, 4]])
    assert m.rref().rank == 1


def test_solve_identity():
    m = Matrix.identity(Q, 3)
    v = [Fraction(1), Fraction(-2), Fraction(5)]
    sol = m.solve(v)
    assert sol.particular == v
    assert sol.kernel == []


def test_solve_zero_matrix():
    m = Matrix.zeros(Q, 2, 2)
    sol = m.solve([Fraction(0), Fraction(0)])
    assert sol.particular == [0, 0]
    assert len(sol.kernel) == 2
    assert m.solve([Fraction(1), Fraction(0)]) is None


def test_solve_f3_matches_enumeration():
    # oracle: enumerate all 9 vectors of F_3^2 for the system [1 1] x = 2
    expected = brute_force_modp_solutions([[1, 1]], [2], 3)
    assert len(expected) == 3
    m = Matrix.from_int_rows(F3, [[1, 1]])
    sol = m.solve([F3.of_int(2)])
    assert sol is not None
    assert len(sol.kernel) == 1
    # the solver's solution set must equal the enumerated one
    got = set()
    for t in range(3):
        vec = tuple((sol.particular[i] + t * sol.kernel[0][i]) % 3 for i in range(2))
        got.add(vec)
    assert got == {tuple(v) for v in expected}


def test_kernel_basis_cases():
    assert Matrix.identity(Q, 3).kernel_basis() == []
    assert len(Matrix.zeros(Q, 2, 2).kernel_basis()) == 2
    k = Matrix.from_int_rows(F3, [[1, 1]]).kernel_basis()
    assert len(k) == 1
    # kernel vector really is annihilated
    assert (k[0][0] + k[0][1]) % 3 == 0


def test_det_int_examples():
    assert det_int(IntMatrix.identity(4)) == 1
    assert det_int(IntMatrix([[1, 1], [1, 1]])) == 0
    # Cartan matrix of the two-point loop fixture, frozen via cofactor oracle
    tp2_cartan = [[2, 2], [2, 2]]
    assert det_cofactor(tp2_cartan) == 0
    assert det_int(IntMatrix(tp2_cartan)) == 0


def test_det_int_matches_cofactor_oracle():
    mats = [
        [[3]],
        [[2, 5], [7, 1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[0, 2, 1, 3], [1, 0, 4, 1], [2, 2, 0, 5], [3, 1, 1, 0]],
    ]
    for rows in mats:
        assert det_int(IntMatrix(rows)) == det_cofactor(rows)


def test_invert_int_examples():
    assert invert_int(IntMatrix.identity(2)) == [[1, 0], [0, 1]]
    inv = invert_int(IntMatrix([[1, 0], [1, 1]]))
    assert inv == invert_2x2([[1, 0], [1, 1]])
    assert inv == [[1, 0], [-1, 1]]
    assert invert_int(IntMatrix([[1, 1], [1, 1]])) is None


def test_det_empty_is_one():
    assert det_int(IntMatrix([])) == 1


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def int_square(draw, nmax=4):
    n = draw(st.integers(min_value=1, max_value=nmax))
    return [[draw(small_ints) for _ in range(n)] for _ in range(n)]


@st.composite
def q_matrix(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=1, max_value=4))
    return Matrix(Q, [[Fraction(draw(small_ints)) for _ in range(c)] for _ in range(r)])


@settings(max_examples=60, deadline=None)
@given(q_matrix())
def test_rref_idempotent(m):
    red = m.rref().reduced
    assert red.rref().reduced == red


@settings(max_examples=60, deadline=None)
@given(q_matrix(), st.data())
def test_solve_consistency(m, data):
    rhs = [Fraction(data.draw(small_ints)) for _ in range(m.rows)]
    sol = m.solve(rhs)
    if sol is None:
        return
    # m (particular + any kernel combination) == rhs
    coeffs = [Fraction(data.draw(small_ints)) for _ in sol.kernel]
    x = list(sol.particular)
    for cf, kv in zip(coeffs, sol.kernel):
        x = [xi + cf * ki for xi, ki in zip(x, kv)]
    for i in range(m.rows):
        assert sum(m.data[i][j] * x[j] for j in range(m.cols)) == rhs[i]


@settings(max_examples=60, deadline=None)
@given(int_square(), st.sampled_from([2, 3, 5, 101]))
def test_det_mod_p_cross_oracle(rows, p):
    m = IntMatrix(rows)
    assert det_int(m) % p == det_mod_p(m, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_det_multiplicative(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    a = [[data.draw(small_ints) for _ in range(n)] for _ in range(n)]
    b = [[data.draw(small_ints) for _ in range(n)] for _ in range(n)]
    A, B = IntMatrix(a), IntMatrix(b)
    assert det_int(A.mul(B)) == det_int(A) * det_int(B)


def test_rowspace_incremental():
    rs = RowSpace(Q)
    assert rs.add({0: Fraction(1), 1: Fraction(2)})
    assert not rs.add({0: Fraction(2), 1: Fraction(4)})
    assert rs.add({1: Fraction(1)})
    assert rs.rank == 2
    assert rs.contains({0: Fraction(3), 1: Fraction(7)})
    kern = rs.kernel_basis(3)
    assert len(kern) == 1 and 2 in kern[0]


def _sparse(dense):
    return {c: x for c, x in enumerate(dense) if x != 0}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([None, 101]), st.data())
def test_rowspace_matches_dense_rref(p, data):
    F = Q if p is None else Field.prime(p)
    ncols = data.draw(st.integers(min_value=1, max_value=7))

    def mod(x):
        return x if p is None else x % p

    rs = RowSpace(F)
    added, order = [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        used = sorted({c for row in rs.rows for c in row} - set(rs.pivot_of_col))
        if used and data.draw(st.booleans()):
            # a lead that stored rows already use, so adding it must
            # back-substitute the new pivot column out of them
            lead = data.draw(st.sampled_from(used))
            dense = [0] * lead + [data.draw(st.integers(min_value=1, max_value=6))]
            dense += [data.draw(small_ints) for _ in range(lead + 1, ncols)]
        else:
            dense = [data.draw(small_ints) for _ in range(ncols)]
        dense = [F.of_int(x) for x in dense]
        grew = rs.add(_sparse(dense))
        added.append(dense)
        red, piv = dense_rref(added, ncols, p)
        assert grew == (len(piv) > len(order))
        order += sorted(set(piv) - set(order))
        assert rs.pivot_cols == order
        assert rs.pivot_of_col == {c: k for k, c in enumerate(order)}
        assert rs.rows == [_sparse(red[piv.index(c)]) for c in order]
    for _ in range(3):
        vec = [F.of_int(data.draw(small_ints)) for _ in range(ncols)]
        expect = list(vec)
        for row, c in zip(red, piv):
            expect = [mod(x - vec[c] * y) for x, y in zip(expect, row)]
        assert rs.reduce(_sparse(vec)) == _sparse(expect)
    kernel = []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [F.zero] * ncols
        v[fc] = F.one
        for row, c in zip(red, piv):
            v[c] = mod(-row[fc])
        kernel.append(_sparse(v))
    assert rs.kernel_basis(ncols) == kernel
