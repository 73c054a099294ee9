import gc
import json
import weakref
from fractions import Fraction

import pytest

from _oracles import dense_matmul, dense_rank, dense_rows, iso_witness_holds
from homkit import corpus
from homkit.algebra import from_quiver, opposite, tensor, triangular
from homkit.invariants import gorenstein
from homkit.modules import (AlgebraMap, Module, adapt_weights, direct_sum, dual,
                            ext_dims, hom_space, injective, is_iso, min_resolution,
                            module_from_json, module_to_json, pd, projective,
                            projective_cover, quotient_module, radical_submodule,
                            regular, restrict_along, simple, spanned_submodule,
                            syzygy, tensor_over, top, top_multiplicities,
                            tor_dims, zero_module, _matmul, _radical_rowspace,
                            _syzygy_with_inclusion, bimodule_restrictions)
from homkit.presentation import parse_spec, spec_of_fixture
from homkit.recollement import aea_dimension, module_Ae, module_eA
from homkit.algebra import corner


def test_projective_dims(a2, tp11, tp2):
    assert projective(a2, 0).dim == 2
    assert projective(a2, 1).dim == 1
    assert projective(tp11, 0).dim == 2
    assert projective(tp11, 1).dim == 2
    P1 = projective(tp2, 0)
    assert P1.dim == 4  # e1, alpha, gamma, gamma*alpha


def test_projective_actions_are_valid(fixture_algebras):
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            assert projective(a, i).validate() == [], (name, i)


def test_simple_and_top(a2):
    S1 = simple(a2, 0)
    assert S1.dim == 1
    t = top(projective(a2, 0))
    assert t.dim == 1 and t.weights == [0]
    assert radical_submodule(S1).dim == 0


def test_hom_projective_simple_delta(a2):
    for i in range(2):
        for j in range(2):
            d = len(hom_space(projective(a2, i), simple(a2, j)))
            assert d == (1 if i == j else 0)


def test_hom_simples_orthogonal(a2):
    assert hom_space(simple(a2, 0), simple(a2, 1)) == []


def test_hom_contains_identity(a2):
    m = projective(a2, 0)
    homs = hom_space(m, m)
    assert len(homs) >= 1
    from homkit.linalg import RowSpace
    rs = RowSpace(m.field)
    for h in homs:
        rs.add({i: x for i, x in enumerate(v for row in h for v in row) if x != 0})
    ident = {i * m.dim + i: m.field.one for i in range(m.dim)}
    assert rs.contains(ident)


def test_hom_corner_oracle_on_fixtures(fixture_algebras):
    # dim Hom(P_i, P_j) = #basis elements with left tag j and right tag i
    for name, a in fixture_algebras.items():
        projs = [projective(a, i) for i in range(a.r)]
        for i in range(a.r):
            for j in range(a.r):
                counted = len(a.basis_with_tags(j, i))
                solved = len(hom_space(projs[i], projs[j]))
                assert counted == solved, (name, i, j)


def test_regular_module(a2, tp2, one_point):
    r = regular(tp2)
    assert r.dim == 8
    assert r.validate() == []
    # action of 1 is the identity: the idempotent rows sum to unit rows
    F = r.field
    total = [{} for _ in range(r.dim)]
    for i in range(tp2.r):
        for s, row in enumerate(r.action[i]):
            for t, x in row.items():
                total[s][t] = F.add(total[s].get(t, F.zero), x)
    assert total == [{s: F.one} for s in range(r.dim)]
    rk = regular(one_point)
    assert rk.dim == 1 and rk.weights == [0]


def test_dual_examples(a2, loc):
    assert dual(zero_module(a2)).dim == 0
    S1 = simple(a2, 0)
    d = dual(S1)
    assert d.dim == 1 and d.weights == [0]
    P1 = projective(a2, 0)
    dP1 = dual(P1)
    assert dP1.dim == 2
    assert dP1.algebra == opposite(a2)
    # double dual is literally the original
    r = regular(loc)
    assert dual(dual(r)) == r


def test_injective_examples(a2, loc):
    I1 = injective(loc, 0)
    P1 = projective(loc, 0)
    assert I1.dim == 2
    res = is_iso(P1, I1)
    assert res.kind == "iso"
    assert injective(a2, 0).dim == 1
    assert injective(a2, 1).dim == 2
    # dim I_i = dim A e_i
    for i in range(a2.r):
        assert injective(a2, i).dim == sum(1 for k in range(a2.dim) if a2.right[k] == i)


def test_top_and_radical(tp2, tp11):
    P1 = projective(tp2, 0)
    assert radical_submodule(P1).dim == 3
    assert top_multiplicities(P1) == [1, 0]
    radP1 = radical_submodule(projective(tp11, 0))
    assert radP1.dim == 1
    assert top_multiplicities(radP1) == [0, 1]


def test_projective_cover_examples(a2, tp11):
    S1 = simple(a2, 0)
    cov = projective_cover(S1)
    assert cov.multiplicities == [1, 0]
    assert cov.source.dim == 2
    # cover of a projective has zero kernel
    assert syzygy(projective(a2, 0)).dim == 0
    # top(rad P_1) = S_2 over the two-point loop algebra: cover is P_2
    radP1 = radical_submodule(projective(tp11, 0))
    cov2 = projective_cover(radP1)
    assert cov2.multiplicities == [0, 1]
    with pytest.raises(ValueError):
        projective_cover(zero_module(a2))


def test_cover_is_surjective_with_radical_kernel(fixture_algebras):
    from homkit.linalg import Matrix
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            m = simple(a, i)
            cov = projective_cover(m)
            mat = Matrix(a.field, dense_rows(cov.matrix, m.dim))
            assert mat.rank() == m.dim, name
            kern = mat.transpose().kernel_basis()
            # kernel vectors vanish on the idempotent coordinate of each summand
            mask = _idempotent_positions(a, cov.multiplicities)
            for v in kern:
                assert all(v[t] == 0 for t in mask), (name, i)


def _idempotent_positions(a, mults):
    pos, out = 0, []
    for i in range(a.r):
        pidx = [k for k in range(a.dim) if a.left[k] == i]
        for _ in range(mults[i]):
            for s, k in enumerate(pidx):
                if k < a.r:
                    out.append(pos + s)
            pos += len(pidx)
    return out


def test_syzygy_examples(a2, tp11):
    sz = syzygy(simple(a2, 0))
    assert sz.dim == 1 and sz.weights == [1]
    assert is_iso(sz, simple(a2, 1)).kind == "iso"
    sz2 = syzygy(simple(tp11, 0))
    assert is_iso(sz2, simple(tp11, 1)).kind == "iso"
    assert syzygy(zero_module(a2)).dim == 0


def _check_sparse_syzygy(m: Module) -> Module:
    """The structure-constant syzygy kernel against the dense source action.

    The inclusion must be a basis of the kernel of the cover (independent
    rows killed by the cover matrix, as many as dim source - dim m), and the
    syzygy action must be the source action read in that basis:
    ``incl[s] * x = sum_t action[x][s][t] * incl[t]``, checked with dense
    schoolbook products.
    """
    sub, cov, incl = _syzygy_with_inclusion(m)
    if not incl:
        assert sub.dim == 0
        return sub
    cached = sub._radical
    assert cached is not None
    p = m.field.p
    n = cov.source_dim
    dense_incl = dense_rows(incl, n)
    assert len(incl) == n - m.dim == sub.dim == dense_rank(dense_incl, p)
    assert dense_matmul(dense_incl, dense_rows(cov.matrix, m.dim), p) == \
        [[0] * m.dim for _ in incl]
    source = cov.source
    for x in range(m.algebra.dim):
        moved = dense_matmul(dense_incl, dense_rows(source.action[x], n), p)
        read = dense_matmul(dense_rows(sub.action[x], sub.dim), dense_incl, p)
        assert moved == read, x
    assert sub.validate() == []
    fresh = _radical_rowspace(Module(sub.algebra, sub.dim, sub.action, sub.weights))
    assert cached.pivot_cols == fresh.pivot_cols
    assert cached.rows == fresh.rows
    return sub


def _sparse_kernel_cases(fixture_algebras):
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            yield name, simple(a, i)
        yield name, dual(regular(a))
    for shape, count in (("TriangularPair", 2), ("NilpotentCyclic", 3)):
        for field_name in ("F101", "Q"):
            spec = corpus.CorpusSpec(seed=42, count=count, shape=shape,
                                     field_name=field_name)
            for index in range(count):
                inst = corpus.generate(spec, index)
                if shape == "TriangularPair":
                    yield inst.a.name, inst.m
                    inst = inst.a
                for i in range(inst.r):
                    yield inst.name, simple(inst, i)


def test_sparse_syzygy_kernel_matches_dense_action(fixture_algebras):
    for name, m in _sparse_kernel_cases(fixture_algebras):
        for _ in range(3):
            if m.is_zero() or m.dim > 24:
                break
            m = _check_sparse_syzygy(m)


def test_pd_keeps_no_reference_to_the_algebra():
    a = from_quiver(spec_of_fixture("FIX-TP1(1)"))
    assert pd(simple(a, 0), 12).kind == "infinite"
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_cached_tensor_keeps_no_reference_to_its_factors():
    b = from_quiver(spec_of_fixture("FIX-A2"))
    c = from_quiver(spec_of_fixture("FIX-TP1(1)"))
    cop = opposite(c)
    assert opposite(c) is cop and opposite(cop) is c
    t = tensor(cop, b)
    assert tensor(opposite(c), b) is t
    # the bimodule side of a transfer check: triangular and both
    # restrictions read the same cached tensor
    m = projective(t, 0)
    bimodule_restrictions(b, c, m)
    triangular(b, c, m)
    refs = [weakref.ref(x) for x in (b, c, cop)]
    del b, c, cop, m
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert t.dim == 12 and regular(t).validate() == []


def test_min_resolution_terminating(a2):
    res = min_resolution(simple(a2, 0), 12)
    assert res.terminated
    assert res.length == 1
    assert res.multiplicity_vectors() == [[1, 0], [0, 1]]
    # projective input: length 0
    res0 = min_resolution(projective(a2, 0), 12)
    assert res0.terminated and res0.length == 0


def test_min_resolution_periodic(tp11):
    res = min_resolution(simple(tp11, 0), 6)
    assert not res.terminated
    assert res.multiplicity_vectors() == [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [1, 0]]


def test_resolution_differentials_compose_to_zero(fixture_algebras):
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            res = min_resolution(simple(a, i), 5)
            for k in range(1, len(res.steps)):
                D_k = res.steps[k].differential
                D_prev = res.steps[k - 1].differential
                assert any(D_k), (name, i, k)
                comp = _matmul(a.field, D_k, D_prev)
                assert comp == [{} for _ in D_k], (name, i, k)


def test_resolution_minimality(fixture_algebras):
    # every differential image lies in the radical of its target
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            res = min_resolution(simple(a, i), 5)
            for k in range(1, len(res.steps)):
                D = res.steps[k].differential
                mask = _idempotent_positions(a, res.steps[k - 1].multiplicities)
                for row in D:
                    assert not any(t in row for t in mask), (name, i, k)


def test_pd_examples(a2, tp11):
    assert pd(simple(a2, 0), 12).describe() == "Finite(1)"
    assert pd(projective(a2, 0), 12).describe() == "Finite(0)"
    r = pd(simple(tp11, 0), 12)
    assert r.kind == "infinite"
    assert (r.first_repeat, r.period) == (2, 2)


def _assert_witness_reverifies(r):
    w = r.witness
    m, n = r.witness_modules
    assert iso_witness_holds(m, n, w.matrix, w.inverse)
    # a witness that fails to intertwine is rejected
    bad = [row[:] for row in w.matrix]
    bad[0][0] = m.field.add(bad[0][0], m.field.one)
    assert not iso_witness_holds(m, n, bad, w.inverse)


def test_pd_certificates_reverify(tp11):
    _assert_witness_reverifies(pd(simple(tp11, 0), 12))
    # an infinite self-injective side names its indecomposable injective and
    # keeps that summand's witness: the witness modules are its syzygies
    spec = corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair")
    sides = 0
    for index in (0, 21):
        a = corpus.generate(spec, index).a
        g = gorenstein(a, 12)
        for over, r in ((a, g.right_id), (opposite(a), g.left_id)):
            assert r.is_infinite and r.summand.startswith("injective ")
            i = int(r.summand.split()[1])
            chain = [dual(projective(over, i))]
            for _ in range(r.first_repeat):
                chain.append(syzygy(chain[-1]))
            assert r.witness_modules == (chain[r.first_repeat - r.period],
                                         chain[r.first_repeat])
            _assert_witness_reverifies(r)
            sides += 1
    assert sides == 4


def test_is_iso_cases(a2, loc):
    m = projective(a2, 0)
    assert is_iso(m, m).kind == "iso"
    res = is_iso(simple(a2, 0), simple(a2, 1))
    assert res.kind == "not_iso"
    assert "eigenspace" in res.reason
    # dimension-equal non-isomorphic pair: P_1 vs S_1 + S_2
    twosimple = direct_sum(a2, [simple(a2, 0), simple(a2, 1)])
    res2 = is_iso(projective(a2, 0), twosimple)
    assert res2.kind == "not_iso"


def test_is_iso_randomized_search_over_q(a2):
    # swapped direct summands: Hom is 2-dimensional, a generic combination
    # is invertible, and the seeded search must find one
    m = direct_sum(a2, [simple(a2, 0), simple(a2, 1)])
    n = direct_sum(a2, [simple(a2, 1), simple(a2, 0)])
    res = is_iso(m, n)
    assert res.kind == "iso"
    assert len(hom_space(m, n)) == 2


def test_is_iso_exhaustive_over_small_prime_field():
    a = from_quiver(parse_spec("field F2 quiver { vertices: 1, 2 arrows: a: 1 -> 2 }"))
    res = is_iso(simple(a, 0), simple(a, 0))
    assert res.kind == "iso"
    # same dims and tops but different action: P_1 vs S_1 (+) S_2 certified
    twosimple = direct_sum(a, [simple(a, 0), simple(a, 1)])
    res2 = is_iso(projective(a, 0), twosimple)
    assert res2.kind == "not_iso"


def test_ext_examples(a2, tp11):
    S1, S2 = simple(a2, 0), simple(a2, 1)
    assert ext_dims(S1, S2, 3) == [0, 1, 0, 0]
    assert ext_dims(S1, S1, 3) == [1, 0, 0, 0]
    P = projective(a2, 0)
    assert ext_dims(P, S1, 2) == [len(hom_space(P, S1)), 0, 0]
    T1 = simple(tp11, 0)
    assert ext_dims(T1, T1, 4) == [1, 0, 1, 0, 1]
    assert ext_dims(T1, simple(tp11, 1), 4) == [0, 1, 0, 1, 0]


def test_ext_counts_arrows_and_relations(tp2):
    # classical anchors for admissible presentations: dim Ext^1(S_i, S_j)
    # is the number of arrows i -> j and dim Ext^2(S_i, S_j) the number of
    # minimal relations from i to j
    square = from_quiver(parse_spec("""
        field Q
        quiver { vertices: a, b, c, d
                 arrows: p: a -> b, q: a -> c, r: b -> d, s: c -> d }
        relations { p*r - q*s }
    """))
    for i, j, arrows in [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1),
                         (0, 3, 0), (1, 2, 0)]:
        assert ext_dims(simple(square, i), simple(square, j), 2)[1] == arrows
    assert ext_dims(simple(square, 0), simple(square, 3), 3) == [0, 0, 1, 0]
    # FIX-TP2 relation counts per vertex pair: two loops-relations at each
    # vertex, one mixed commutation relation in each direction
    for i, j, arrows, rels in [(0, 0, 1, 2), (0, 1, 1, 1),
                               (1, 0, 1, 1), (1, 1, 1, 2)]:
        e = ext_dims(simple(tp2, i), simple(tp2, j), 2)
        assert (e[1], e[2]) == (arrows, rels), (i, j)


def test_ext_duality_contravariance(fixture_algebras):
    # Ext^l(M, N) over A = Ext^l(DN, DM) over A^op, on simples
    for name in ("FIX-A2", "FIX-TP1(1)", "FIX-LOC"):
        a = fixture_algebras[name]
        for i in range(a.r):
            for j in range(a.r):
                lhs = ext_dims(simple(a, i), simple(a, j), 3)
                rhs = ext_dims(dual(simple(a, j)), dual(simple(a, i)), 3)
                assert lhs == rhs, (name, i, j)


def test_tensor_over_unit_law(a2):
    n = regular(opposite(a2))  # A as a left module over itself
    t = tensor_over(regular(a2), n)
    assert t.dim == n.dim


def test_tensor_over_corner_example(a2):
    # Ae_1 (x)_{e_1 A e_1} e_1 A has dimension 2 (corner is k)
    cor = corner(a2, [0])
    Ae = module_Ae(a2, [0], cor)
    eA = module_eA(a2, [0], cor)
    assert Ae.dim == 1 and eA.dim == 2
    assert tensor_over(Ae, eA).dim == 2


def test_tensor_over_zero(a2):
    z = zero_module(opposite(a2))
    assert tensor_over(regular(a2), z).dim == 0


def test_tensor_dim_symmetric_on_corners(fixture_algebras):
    for name, a in fixture_algebras.items():
        for S in ([0],) if a.r > 1 else ():
            cor = corner(a, list(S))
            Ae = module_Ae(a, list(S), cor)
            eA = module_eA(a, list(S), cor)
            assert tensor_over(Ae, eA).dim == tensor_over(eA, Ae).dim, name


def test_tor_examples(a2):
    cor = corner(a2, [0])
    Ae = module_Ae(a2, [0], cor)
    eA = module_eA(a2, [0], cor)
    assert tor_dims(Ae, eA, 3) == [2, 0, 0, 0]
    # Tor_0 >= dim AeA always (multiplication is onto AeA)
    assert tor_dims(Ae, eA, 0)[0] >= 0
    assert aea_dimension(a2, [0]) <= tor_dims(Ae, eA, 0)[0]


def test_tor_vanishes_over_semisimple(semisimple3):
    m = projective(semisimple3, 0)
    n = regular(opposite(semisimple3))
    assert tor_dims(m, n, 3)[1:] == [0, 0, 0]


def test_tor_projective_first_argument(a2):
    P = projective(a2, 0)
    n = regular(opposite(a2))
    tors = tor_dims(P, n, 3)
    assert tors[0] == tensor_over(P, n).dim
    assert tors[1:] == [0, 0, 0]


def test_restrict_along_identity(a2):
    F = a2.field
    images = [{x: F.one} for x in range(a2.dim)]
    f = AlgebraMap(a2, a2, images)
    m = projective(a2, 0)
    m2 = restrict_along(f, m)
    assert m2.dim == m.dim
    assert m2.action == m.action


def test_restrict_along_rejects_non_map(a2):
    F = a2.field
    images = [{x: F.one} for x in range(a2.dim)]
    images[2] = {0: F.one}  # the arrow no longer multiplies correctly
    f = AlgebraMap(a2, a2, images)
    with pytest.raises(ValueError):
        restrict_along(f, projective(a2, 0))


def test_bimodule_restriction_definition(loc, one_point):
    T = tensor(opposite(one_point), loc)
    F = T.field
    action = [[{0: F.one}] if t < T.r else [{}] for t in range(T.dim)]
    m = Module(T, 1, action, [0])
    mb, mc = bimodule_restrictions(loc, one_point, m)
    assert mb.dim == 1 and mb.algebra == loc
    xi = loc.labels.index("x")
    assert mb.action[xi] == [{}]
    assert mb.action[0] == [{0: F.one}]
    assert mc.dim == 1 and mc.algebra == opposite(one_point)
    assert mc.action == [[{0: F.one}]]


def test_spanned_submodule_and_quotient(tp2):
    P = projective(tp2, 0)
    F = P.field
    # generate by the arrow basis vector alpha inside P_1 = e1 A
    gen = {1: F.one}
    sub, incl = spanned_submodule(P, [gen])
    assert 0 < sub.dim < P.dim
    q = quotient_module(P, incl)
    assert q.dim == P.dim - sub.dim
    assert sub.validate() == []
    assert q.validate() == []


def test_module_json_round_trip(a2):
    m = projective(a2, 0)
    doc = module_to_json(m)
    assert doc["format"] == "homkit-module/1"
    text = json.dumps(doc, sort_keys=True)
    m2 = module_from_json(json.loads(text))
    assert m2.dim == m.dim
    assert m2.action == m.action
    assert json.dumps(module_to_json(m2), sort_keys=True) == text


def test_module_json_with_external_algebra(a2):
    m = projective(a2, 1)
    doc = module_to_json(m, algebra_ref="A2.qa")
    assert doc["algebra"] == "A2.qa"
    m2 = module_from_json(doc, algebra=a2)
    assert m2.action == m.action
    with pytest.raises(ValueError, match="external"):
        module_from_json(doc)


def _assert_sparse_rows(m: Module, label):
    """The row invariant: one row per basis vector, in-range columns, no zero."""
    assert len(m.action) == m.algebra.dim, label
    for mat in m.action:
        assert len(mat) == m.dim, label
        for row in mat:
            assert isinstance(row, dict), label
            for c, x in row.items():
                assert 0 <= c < m.dim and x != 0, label


def _row_invariant_cases(fixture_algebras):
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            yield name, projective(a, i)
            yield name, simple(a, i)
            yield name, injective(a, i)
        yield name, regular(a)
        yield name, dual(regular(a))
        P = direct_sum(a, [projective(a, i) for i in range(a.r)])
        yield name, P
        yield name, top(P)
        yield name, radical_submodule(P)
        rad = _radical_rowspace(P).rows
        if rad:
            sub, incl = spanned_submodule(P, rad[:1])
            yield name, sub
            yield name, quotient_module(P, incl)
        m = simple(a, 0)
        for _ in range(3):
            m = syzygy(m)
            yield name, m
        if a.r > 1:
            cor = corner(a, [0])
            yield name, module_Ae(a, [0], cor)
            yield name, module_eA(a, [0], cor)
    # F3 makes some random generator coefficients vanish
    for field_name in ("F101", "Q", "F3"):
        spec = corpus.CorpusSpec(seed=42, count=3, shape="TriangularPair",
                                 field_name=field_name)
        for index in range(3):
            inst = corpus.generate(spec, index)
            yield inst.a.name, inst.m
            yield inst.a.name, module_from_json(json.loads(json.dumps(module_to_json(inst.m))))
            for restricted in bimodule_restrictions(inst.b, inst.c, inst.m):
                yield inst.a.name, restricted


def test_rows_are_sparse_with_no_stored_zero(fixture_algebras):
    count = 0
    for label, m in _row_invariant_cases(fixture_algebras):
        _assert_sparse_rows(m, label)
        count += 1
    assert count > 100


def test_module_constructor_rejects_bad_rows(a2):
    F = a2.field
    good = simple(a2, 0).action
    assert Module(a2, 1, good, [0]).dim == 1
    # a stored zero, out-of-range columns, a Q zero written as Fraction(0),
    # and bad entries that follow a good one in the same row
    for bad_row in ({0: F.zero}, {1: F.one}, {-1: F.one}, {0: Fraction(0)},
                    {0: F.one, 1: F.one}, {0: F.one, -1: F.one}):
        action = [good[0]] + [[bad_row]] + good[2:]
        with pytest.raises(ValueError, match="sparse"):
            Module(a2, 1, action, [0])
    P = projective(a2, 0)
    action = [P.action[0], [{0: F.one, 1: F.zero}, {}]] + P.action[2:]
    with pytest.raises(ValueError, match="sparse"):
        Module(a2, 2, action, P.weights)
    with pytest.raises(ValueError, match="one action row"):
        Module(a2, 1, [[{0: F.one}, {}]] + good[1:], [0])


def test_module_json_writes_dense_and_reads_sparse(monkeypatch):
    from homkit.linalg import Field
    parse = Field.parse
    parsed = []
    monkeypatch.setattr(Field, "parse", lambda F, text: parsed.append(text) or parse(F, text))
    for field in ("Q", "F101"):
        a2 = from_quiver(parse_spec(f"field {field} quiver {{ vertices: 1, 2  "
                                    "arrows: a: 1 -> 2 }", name="A2"))
        m = projective(a2, 0)
        doc = module_to_json(m)
        assert all(len(row) == m.dim for mat in doc["action"].values() for row in mat)
        assert doc["action"][a2.labels[0]] == [["1", "0"], ["0", "0"]]
        # only the entries that differ from the zero literal are parsed
        parsed.clear()
        assert module_from_json(doc, algebra=a2).action == m.action
        assert sorted(parsed) == sorted(v for mat in doc["action"].values()
                                        for row in mat for v in row if v != "0")
        # other spellings of zero are parsed, and dropped
        for zero in ("00", " 0", "0/3"):
            doc["action"][a2.labels[2]][1][0] = zero
            assert module_from_json(doc).action == m.action, (field, zero)
        # and bad entries still raise, naming where they are
        for bad in ("abc", "1/0", " ", "0.0"):
            doc["action"][a2.labels[2]][1][0] = bad
            with pytest.raises(ValueError, match=r"row 1, column 0"):
                module_from_json(doc)
        doc["action"][a2.labels[2]][1][0] = "0"
        doc["action"][a2.labels[0]][0].append("0")
        with pytest.raises(ValueError, match="wrong shape"):
            module_from_json(doc)


def test_adapt_weights_rebases_a_non_adapted_action(a2):
    P = projective(a2, 0)
    F = P.field
    T = [[F.one, F.one], [F.zero, F.one]]
    T_inv = [[F.one, F.neg(F.one)], [F.zero, F.one]]
    mixed = [[{t: x for t, x in enumerate(row) if x != 0}
              for row in dense_matmul(dense_matmul(T, dense_rows(mat, 2)), T_inv)]
             for mat in P.action]
    assert mixed[0] != P.action[0]  # e_1 no longer acts diagonally
    m = adapt_weights(a2, 2, mixed)
    assert m.validate() == []
    assert m.weights == [0, 1]
    assert is_iso(m, P).kind == "iso"


def test_equal_dimensions_give_the_zero_syzygy_without_elimination(fixture_algebras,
                                                                    monkeypatch):
    import homkit.modules as modules_mod

    modules = []
    for a in fixture_algebras.values():
        for i in range(a.r):
            m = projective(a, i)
            assert top_multiplicities(m) == [int(j == i) for j in range(a.r)]
            modules.append(m)

    class NoRowSpace:
        def __init__(self, field):
            raise AssertionError("a syzygy of a projective built an elimination")

    # the radical row spaces are filled, so only the syzygy step is left
    monkeypatch.setattr(modules_mod, "RowSpace", NoRowSpace)
    for m in modules:
        assert syzygy(m).is_zero()
        assert pd(m, 12).describe() == "Finite(0)"


def test_unknown_names_what_stopped_it(tp11):
    # S_0 over FIX-TP1(1) repeats at step 2, and its cover P_0 has dimension 2
    assert pd(simple(tp11, 0), 2).describe() == "InfiniteCertified(repeat at 2, period 2)"
    res = pd(simple(tp11, 0), 1)
    assert res.describe() == "Unknown(cutoff 1)"
    assert (res.reason, res.step) == ("cutoff", 1)
    res = pd(simple(tp11, 0), 12, dim_guard=1)
    assert res.describe() == "Unknown(dim guard at step 0)"
    assert (res.reason, res.step, res.cutoff) == ("dim_guard", 0, 12)
