import pytest

from homkit import invariants
from homkit.algebra import opposite, tensor, triangular
from homkit.corpus import CorpusSpec, generate
from homkit.invariants import (cartan_matrix, eilenberg_check, euler_matrix,
                               gldim, gldim_is_finite, gorenstein, k0_rank,
                               self_injective_dimension, smooth, two_point_criterion)
from homkit.linalg import IntMatrix
from homkit.modules import (DIM_GUARD, dual, hom_space, pd, projective, projective_cover,
                            regular)
from homkit.recollement import stratify_search

# Ext table of the two-vertex one-arrow algebra, frozen from its length-1
# resolutions: P_2 -> P_1 -> S_1 and P_2 -> S_2.
A2_EXT_TABLE = {
    (0, 0): [1, 0],
    (0, 1): [0, 1],
    (1, 0): [0, 0],
    (1, 1): [1, 0],
}


def test_cartan_fixture_values(fixture_algebras):
    expect = {
        "FIX-A2": ([[1, 0], [1, 1]], 1),
        "FIX-TP1(1)": ([[1, 1], [1, 1]], 0),
        "FIX-TP1(2)": ([[2, 2], [2, 2]], 0),
        "FIX-TP2": ([[2, 2], [2, 2]], 0),
        "FIX-LOC": ([[2]], 2),
        "FIX-TRI0": ([[1, 1], [0, 1]], 1),
    }
    for name, (mat, det) in expect.items():
        rep = cartan_matrix(fixture_algebras[name])
        assert rep.matrix.data == mat, name
        assert rep.det == det, name


def test_cartan_invariants(fixture_algebras):
    for name, a in fixture_algebras.items():
        rep = cartan_matrix(a)
        assert sum(x for row in rep.matrix.data for x in row) == a.dim
        assert all(rep.matrix.data[i][i] >= 1 for i in range(a.r))
        assert all(x >= 0 for row in rep.matrix.data for x in row)


def test_cartan_opposite_transpose(fixture_algebras):
    for name, a in fixture_algebras.items():
        assert cartan_matrix(opposite(a)).matrix == cartan_matrix(a).matrix.transpose()


def test_cartan_hom_cross_oracle(fixture_algebras):
    for name, a in fixture_algebras.items():
        rep = cartan_matrix(a)
        projs = [projective(a, i) for i in range(a.r)]
        for i in range(a.r):
            for j in range(a.r):
                assert rep.matrix.data[i][j] == len(hom_space(projs[i], projs[j])), \
                    (name, i, j)


def test_k0_rank(fixture_algebras, one_point):
    assert k0_rank(fixture_algebras["FIX-A2"]) == 2
    assert k0_rank(fixture_algebras["FIX-LOC"]) == 1
    loc = fixture_algebras["FIX-LOC"]
    T = tensor(opposite(one_point), loc)
    m = regular(T)
    tri = triangular(loc, one_point, m)
    assert k0_rank(tri) == k0_rank(loc) + k0_rank(one_point)


def test_gldim(a2, tp11, semisimple3):
    assert gldim(a2, 12).describe() == "Finite(1)"
    assert gldim(tp11, 12).kind == "infinite"
    assert gldim(semisimple3, 12).describe() == "Finite(0)"


def test_gorenstein_fixtures(a2, tp11, loc):
    g = gorenstein(loc, 12)
    assert g.verdict == "Gorenstein"
    assert (g.right_id.d, g.left_id.d) == (0, 0)
    assert gorenstein(a2, 12).verdict == "Gorenstein"
    g2 = gorenstein(tp11, 12)
    assert g2.verdict == "Gorenstein"
    assert (g2.right_id.d, g2.left_id.d) == (0, 0)  # self-injective


def test_gorenstein_op_symmetry(fixture_algebras):
    for name, a in fixture_algebras.items():
        g = gorenstein(a, 12)
        gop = gorenstein(opposite(a), 12)
        assert g.verdict == gop.verdict, name
        assert g.right_id.describe() == gop.left_id.describe(), name
        assert g.left_id.describe() == gop.right_id.describe(), name


def test_smooth(a2, tp11, one_point):
    assert smooth(a2, 12).verdict == "smooth"
    assert smooth(tp11, 12).verdict == "not_smooth"
    rep = smooth(one_point, 12, cross_check=True)
    assert rep.verdict == "smooth"
    assert rep.bimodule_pd is not None and rep.bimodule_pd.describe() == "Finite(0)"


def test_smooth_cross_check_agrees_on_small_fixtures(a2, tp11, loc):
    for a in (a2, tp11, loc):
        rep = smooth(a, 12, cross_check=True)
        assert rep.bimodule_pd is not None
        if rep.verdict == "smooth":
            assert rep.bimodule_pd.is_finite
        if rep.verdict == "not_smooth":
            assert not rep.bimodule_pd.is_finite


def test_euler_matrix_from_brute_force_table(a2):
    # re-derive the convention: E from the frozen Ext table
    from homkit.modules import ext_dims, simple
    for (i, j), expected in A2_EXT_TABLE.items():
        assert ext_dims(simple(a2, i), simple(a2, j), 1) == expected
    E = euler_matrix(a2, 12)
    frozen = [[sum((-1) ** l * A2_EXT_TABLE[(i, j)][l] for l in range(2))
               for j in range(2)] for i in range(2)]
    assert E.data == frozen == [[1, -1], [0, 1]]


def test_euler_cartan_convention_pinned(a2):
    # E C^T = I holds; E C = I fails -- the orientation is not symmetric
    E = euler_matrix(a2, 12)
    C = cartan_matrix(a2).matrix
    assert E.mul(C.transpose()) == IntMatrix.identity(2)
    assert E.mul(C) != IntMatrix.identity(2)


def test_euler_is_inverse_transpose_of_cartan(a2):
    # cross-check through exact rational inversion
    from fractions import Fraction
    from homkit.linalg import invert_int
    C = cartan_matrix(a2).matrix
    E = euler_matrix(a2, 12)
    inv = invert_int(C.transpose())
    assert inv == [[Fraction(x) for x in row] for row in E.data]


def test_euler_semisimple_identity(semisimple3):
    assert euler_matrix(semisimple3, 12) == IntMatrix.identity(3)


def test_euler_unknown_when_gldim_infinite(tp11):
    assert euler_matrix(tp11, 12) is None


def test_euler_cartan_inverse_on_fixtures(fixture_algebras, semisimple3):
    algebras = list(fixture_algebras.values()) + [semisimple3]
    for a in algebras:
        g = gldim(a, 12)
        if not g.is_finite:
            continue
        E = euler_matrix(a, 12)
        C = cartan_matrix(a).matrix
        assert E.mul(C.transpose()) == IntMatrix.identity(a.r), a.name


def test_eilenberg(a2, tp11):
    rep = eilenberg_check(a2, 12)
    assert rep.applicable and rep.det == 1 and rep.conjecture_holds
    rep2 = eilenberg_check(tp11, 12)
    assert not rep2.applicable


def test_two_point_criterion(fixture_algebras):
    for name in ("FIX-TP1(1)", "FIX-TP1(2)", "FIX-TP2"):
        rep = two_point_criterion(fixture_algebras[name])
        assert rep.applicable and rep.det == 0 and rep.flagged, name
    rep = two_point_criterion(fixture_algebras["FIX-A2"])
    assert rep.applicable and rep.det == 1 and not rep.flagged
    assert not two_point_criterion(fixture_algebras["FIX-LOC"]).applicable


def test_tensor_two_point_stays_flagged(fixture_algebras, loc):
    # tensoring a flagged two-point algebra with a local algebra keeps r = 2
    # and det <= 0
    a = fixture_algebras["FIX-TP1(1)"]
    t = tensor(a, loc)
    rep = two_point_criterion(t)
    assert rep.applicable and rep.flagged


def _finiteness_inputs(fixture_algebras, one_point, semisimple3):
    """The fixtures; 30 NilpotentCyclic algebras with every algebra of their
    stratification trees (the quotients and corners of the split nodes); 30
    AcyclicQuiver algebras; A, B and C of 30 TriangularPair triples."""
    out = [*fixture_algebras.values(), one_point, semisimple3]
    nil = CorpusSpec(seed=42, count=30, shape="NilpotentCyclic")
    for i in range(30):
        tree = stratify_search(generate(nil, i), 12)
        out.append(tree.algebra)
        out += [c.algebra for s in tree.splits() for c in (s.quotient_child, s.corner_child)]
    acyclic = CorpusSpec(seed=42, count=30, shape="AcyclicQuiver")
    out += [generate(acyclic, i) for i in range(30)]
    tri = CorpusSpec(seed=42, count=30, shape="TriangularPair")
    for i in range(30):
        inst = generate(tri, i)
        out += [inst.a, inst.b, inst.c]
    return out


@pytest.mark.parametrize("cutoff", [2, 12])
def test_gldim_is_finite_agrees_with_gldim(fixture_algebras, one_point, semisimple3,
                                           cutoff):
    seen = set()
    for a in _finiteness_inputs(fixture_algebras, one_point, semisimple3):
        finite = gldim_is_finite(a, cutoff)
        assert finite == gldim(a, cutoff).is_finite, (a.name, cutoff)
        seen.add((cartan_matrix(a).det in (1, -1), finite))
    # False from the determinant alone, and both answers after resolving
    assert seen == {(False, False), (True, False), (True, True)}
    with pytest.raises(ValueError):
        gldim_is_finite(one_point, 0)


def _gorenstein_inputs(fixture_algebras):
    """The fixtures, A, B and C of 30 TriangularPair triples and 30
    NilpotentCyclic algebras, all at corpus seed 42."""
    out = list(fixture_algebras.values())
    tri = CorpusSpec(seed=42, count=30, shape="TriangularPair")
    for i in range(30):
        inst = generate(tri, i)
        out += [inst.a, inst.b, inst.c]
    nil = CorpusSpec(seed=42, count=30, shape="NilpotentCyclic")
    return out + [generate(nil, i) for i in range(30)]


def test_self_injective_dimension_agrees_with_the_sum(fixture_algebras):
    # each side, one indecomposable injective at a time, against pd of
    # D(A) resolved whole as one sum
    decided = set()
    for a in _gorenstein_inputs(fixture_algebras):
        g = gorenstein(a, 12)
        for side, over, new in (("right", a, g.right_id), ("left", opposite(a), g.left_id)):
            whole = pd(dual(regular(over)), 12)
            key = (a.name, side)
            if whole.is_finite:
                assert new.is_finite and new.d == whole.d, key
            if whole.is_infinite:
                assert new.is_infinite, key
            if new.kind == "unknown":
                assert whole.kind == "unknown", key
            if new.is_infinite:
                assert not whole.is_finite, key
                assert new.describe().startswith("InfiniteCertified(injective "), key
            if whole.kind == "unknown" and new.kind != "unknown":
                decided.add(a.name)
    assert {"tri-42-0", "tri-42-21"} <= decided


def test_self_injective_dimension_stops_at_the_first_infinite_injective(monkeypatch):
    a = generate(CorpusSpec(seed=42, count=30, shape="TriangularPair"), 0).a
    resolved = []
    real_pd = invariants.pd

    def counting_pd(m, cutoff, *args, **kwargs):
        resolved.append(m)
        return real_pd(m, cutoff, *args, **kwargs)

    monkeypatch.setattr(invariants, "pd", counting_pd)
    right = self_injective_dimension(a, 12)
    # injective 2 of the five repeats; injectives 3 and 4 are never resolved
    assert right.describe() == "InfiniteCertified(injective 2: repeat at 4, period 2)"
    assert a.r == 5 and len(resolved) == 3
    assert [m.dim for m in resolved] == [dual(projective(a, i)).dim for i in range(3)]


def test_self_injective_dimension_keeps_the_guard_unknown():
    # one injective over A^op has a cover source above the dimension guard
    # at step 0, so the right side stays an honest Unknown
    a = generate(CorpusSpec(seed=42, count=30, shape="TriangularPair"), 14).a
    right = self_injective_dimension(a, 12)
    assert right.kind == "unknown"
    # and says so: the side takes the reason of its first non-Finite summand
    assert right.describe() == "Unknown(dim guard at step 0)"
    assert (right.reason, right.step, right.cutoff) == ("dim_guard", 0, 12)
    sources = [projective_cover(dual(projective(a, i))).source_dim for i in range(a.r)]
    assert max(sources) > DIM_GUARD
