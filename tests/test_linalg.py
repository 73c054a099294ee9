from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homkit.linalg import (Field, FieldError, IntMatrix, Matrix, RowSpace, axpy,
                           det_int, inverse, is_prime)
from _oracles import (brute_force_modp_solutions, dense_axpy, dense_kernel, dense_matmul,
                      dense_rank, dense_rref, det_cofactor, det_mod_p, identity_matrix,
                      invert_2x2, invert_int)

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


def test_solve_f3_matches_enumeration():
    # oracle: enumerate all 9 vectors of F_3^2 with [1 1] x = 0; the span
    # of the kernel basis must be exactly that solution set
    expected = brute_force_modp_solutions([[1, 1]], [0], 3)
    assert len(expected) == 3
    k = Matrix(F3, [[1, 1]]).kernel_basis()
    assert len(k) == 1
    got = {tuple(t * x % 3 for x in k[0]) for t in range(3)}
    assert got == {tuple(v) for v in expected}


def test_kernel_basis_cases():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert Matrix(Q, identity).kernel_basis() == []
    assert len(Matrix(Q, [[Fraction(0)] * 2 for _ in range(2)]).kernel_basis()) == 2
    k = Matrix(F3, [[1, 1]]).kernel_basis()
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
    assert invert_int(identity_matrix(2)) == [[1, 0], [0, 1]]
    inv = invert_int([[1, 0], [1, 1]])
    assert inv == invert_2x2([[1, 0], [1, 1]])
    assert inv == [[1, 0], [-1, 1]]
    assert invert_int([[1, 1], [1, 1]]) is None


def test_det_empty_is_one():
    assert det_int(IntMatrix([])) == 1


small_ints = st.integers(min_value=-6, max_value=6)
# axpy and the row space do their F_p arithmetic inline: F2 makes every
# non-zero scalar 1, and the largest modulus Field.prime accepts makes the
# products of reduced scalars pass 2^31 before they are reduced
MERSENNE = 2 ** 31 - 1


@st.composite
def int_square(draw, nmax=4):
    n = draw(st.integers(min_value=1, max_value=nmax))
    return [[draw(small_ints) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(int_square(), st.sampled_from([2, 3, 5, 101]))
def test_det_mod_p_cross_oracle(rows, p):
    assert det_int(IntMatrix(rows)) % p == det_mod_p(rows, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_det_multiplicative(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    a = [[data.draw(small_ints) for _ in range(n)] for _ in range(n)]
    b = [[data.draw(small_ints) for _ in range(n)] for _ in range(n)]
    assert det_int(IntMatrix(dense_matmul(a, b))) == det_int(IntMatrix(a)) * det_int(IntMatrix(b))


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None, 2, 101, MERSENNE]), st.data())
def test_axpy_matches_dense_oracle(p, data):
    F = Q if p is None else Field.prime(p)
    ncols = data.draw(st.integers(min_value=0, max_value=7))
    acc = [F.of_int(data.draw(small_ints)) for _ in range(ncols)]
    c = F.of_int(data.draw(small_ints))
    row = []
    for k in range(ncols):
        if c != 0 and acc[k] != 0 and data.draw(st.booleans()):
            # exact cancellation: the entry must be removed, not stored as 0
            row.append(F.neg(F.div(acc[k], c)))
        else:
            row.append(F.of_int(data.draw(small_ints)))
    sparse_acc, sparse_row = _sparse(acc), _sparse(row)
    axpy(F, sparse_acc, c, sparse_row)
    assert sparse_acc == _sparse(dense_axpy(acc, c, row, p))
    assert all(x != 0 for x in sparse_acc.values())
    assert sparse_row == _sparse(row)


@pytest.mark.parametrize("F", [Q, Field.prime(101)])
def test_axpy_empty_row_and_zero_scalar_leave_acc_alone(F):
    acc = {0: F.of_int(3), 4: F.of_int(-2)}
    axpy(F, acc, F.of_int(5), {})
    assert acc == {0: F.of_int(3), 4: F.of_int(-2)}
    axpy(F, acc, F.zero, {0: F.of_int(7), 2: F.one})
    assert acc == {0: F.of_int(3), 4: F.of_int(-2)}
    axpy(F, acc, F.one, {0: F.of_int(-3)})
    assert acc == {4: F.of_int(-2)}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([None, 2, 101, MERSENNE]), st.data())
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
            dense = [0] * lead + [data.draw(st.sampled_from([1, 3, 5]))]  # non-zero mod 2
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
    kernel = rs.kernel_basis(ncols)
    assert kernel == [_sparse(v) for v in dense_kernel(added, ncols, p)]
    # the syzygy step reads each vector's free column off its first key
    assert [next(iter(v)) for v in kernel] == [c for c in range(ncols) if c not in rs.pivot_of_col]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([None, 2, 101, MERSENNE]), st.data())
def test_rowspace_does_not_depend_on_the_order_of_adds(p, data):
    # the syzygy step adds its cover equations shortest first, most of them
    # single-entry, and reduce eliminates its pivot hits in the order of the
    # vector's keys; both rest on the full RREF of a span being unique
    F = Q if p is None else Field.prime(p)
    ncols = data.draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        if data.draw(st.booleans()):
            c = data.draw(st.integers(min_value=0, max_value=ncols - 1))
            rows.append({c: F.of_int(data.draw(small_ints)) or F.one})
        else:
            rows.append(_sparse([F.of_int(data.draw(small_ints)) for _ in range(ncols)]))
    given_rows = [dict(row) for row in rows]
    spaces = []
    for order in (rows, data.draw(st.permutations(rows)), sorted(rows, key=len)):
        rs = RowSpace(F)
        for row in order:
            rs.add(row)
        spaces.append(rs)
    assert rows == given_rows  # add copies what it keeps
    vecs = [_sparse([F.of_int(data.draw(small_ints)) for _ in range(ncols)]) for _ in range(3)]
    first = spaces[0]
    for rs in spaces:
        assert dict(zip(rs.pivot_cols, rs.rows)) == dict(zip(first.pivot_cols, first.rows))
        assert rs.pivot_of_col.keys() == first.pivot_of_col.keys()
        assert rs.kernel_basis(ncols) == first.kernel_basis(ncols)
        for vec in vecs:
            residue = first.reduce(vec)
            assert rs.reduce(vec) == residue
            assert rs.reduce(dict(reversed(vec.items()))) == residue
            assert all(x != 0 for x in residue.values())
            assert not residue.keys() & rs.pivot_of_col.keys()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([None, 2, 101]), st.data())
def test_inverse_matches_rank_oracle(p, data):
    F = Q if p is None else Field.prime(p)
    n = data.draw(st.integers(min_value=0, max_value=6))
    dense = [[F.of_int(data.draw(small_ints)) for _ in range(n)] for _ in range(n)]
    if n and data.draw(st.booleans()):
        # a row that is a combination of the others makes it singular
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        f = F.of_int(data.draw(small_ints))
        dense[i] = [F.mul(f, x) for x in dense[j]] if i != j else [F.zero] * n
    inv = inverse(F, [_sparse(row) for row in dense], n)
    if dense_rank(dense, p) < n:
        assert inv is None
    else:
        assert inv is not None
        full = [[row.get(c, F.zero) for c in range(n)] for row in inv]
        assert dense_matmul(dense, full, p) == identity_matrix(n)
