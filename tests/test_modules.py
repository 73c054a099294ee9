import gc
import hashlib
import json
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from _module_v1 import module_to_json_v1
from _oracles import (algebra_map_holds, basis_with_tags, dense_action, dense_kernel,
                      dense_matmul, dense_rank, dense_rows, iso_witness_holds,
                      module_tensor_dim, restrict_along, split_witness_holds)
import homkit.modules as modules_mod
from homkit import corpus
from homkit.algebra import from_quiver, opposite, tensor, triangular
from homkit.invariants import _regular_bimodule, euler_matrix, gorenstein
from homkit.modules import (Module, adapt_weights, conjoin, direct_sum, dual,
                            ext_dims, hom_dim, hom_space, injective, is_iso, min_resolution,
                            module_from_json, module_to_json, pd, projective,
                            projective_cover, quotient_module, radical_submodule,
                            regular, simple, spanned_submodule,
                            syzygy, top, top_multiplicities,
                            tor_dims, zero_module, _radical_rowspace,
                            _syzygy_with_inclusion, bimodule_from_json,
                            bimodule_restrictions)
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
        rs.add({s * m.dim + t: x for s, row in h.items() for t, x in row.items()})
    ident = {i * m.dim + i: m.field.one for i in range(m.dim)}
    assert rs.contains(ident)


def test_hom_corner_oracle_on_fixtures(fixture_algebras):
    # dim Hom(P_i, P_j) = #basis elements with left tag j and right tag i
    for name, a in fixture_algebras.items():
        projs = [projective(a, i) for i in range(a.r)]
        for i in range(a.r):
            for j in range(a.r):
                counted = len(basis_with_tags(a.left, a.right, j, i))
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
        for s, row in r.action[i].items():
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
    assert direct_sum(a2, [projective(a2, i) for i in cov.summands]).dim == 2
    # cover of a projective has zero kernel
    assert syzygy(projective(a2, 0)).dim == 0
    # top(rad P_1) = S_2 over the two-point loop algebra: cover is P_2
    radP1 = radical_submodule(projective(tp11, 0))
    cov2 = projective_cover(radP1)
    assert cov2.multiplicities == [0, 1]
    with pytest.raises(ValueError):
        projective_cover(zero_module(a2))


def test_cover_is_surjective_with_radical_kernel(fixture_algebras):
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            m = simple(a, i)
            cov = projective_cover(m)
            mat = dense_rows(cov.matrix, m.dim)
            assert dense_rank(mat, a.field.p) == m.dim, name
            kern = dense_kernel([list(col) for col in zip(*mat)], len(mat), a.field.p)
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
    # the kernel basis of the unique full RREF, whatever order the
    # equations were added in
    equations = [list(col) for col in zip(*dense_rows(cov.matrix, m.dim))]
    assert dense_incl == dense_kernel(equations, n, p)
    source = direct_sum(m.algebra, [projective(m.algebra, i) for i in cov.summands])
    for x in range(m.algebra.dim):
        moved = dense_matmul(dense_incl, dense_action(source.action[x], n), p)
        read = dense_matmul(dense_action(sub.action[x], sub.dim), dense_incl, p)
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
        for field_name in ("F2", "F101", "Q"):
            spec = corpus.CorpusSpec(seed=42, count=count, shape=shape,
                                     field_name=field_name)
            for index in range(count):
                inst = corpus.generate(spec, index)
                if shape == "TriangularPair":
                    yield inst.a.name, inst.m
                    if field_name != "Q":  # dense products over Q are slow
                        # what the transfer checks resolve: M's two
                        # restrictions and the injectives of A on both sides
                        for side in bimodule_restrictions(inst.b, inst.c, inst.m):
                            yield inst.a.name, side
                        for over in (inst.a, opposite(inst.a)):
                            for i in range(over.r):
                                yield inst.a.name, injective(over, i)
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


def test_module_over_the_wrong_algebra_is_not_a_bimodule(a2, tp11):
    # M must be over tensor(opposite(c), b); the factors swapped give an
    # algebra of the same dimension that is not it
    m = projective(tensor(opposite(a2), tp11), 0)
    for call in (bimodule_restrictions, triangular):
        with pytest.raises(ValueError, match=r"^bimodule is not a module over "
                                             r"tensor\(opposite\(c\), b\)$"):
            call(a2, tp11, m)
    assert len(bimodule_restrictions(tp11, a2, m)) == 2


def test_tensor_keeps_no_reference_to_its_factors():
    b = from_quiver(spec_of_fixture("FIX-A2"))
    c = from_quiver(spec_of_fixture("FIX-TP1(1)"))
    cop = opposite(c)
    assert opposite(c) is cop and opposite(cop) is c
    t = tensor(cop, b)
    # the bimodule side of a transfer check: triangular and both
    # restrictions read a module over the tensor
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
                n_prev = len(res.steps[k - 2].differential) if k >= 2 else res.base.dim
                comp = dense_matmul(dense_rows(D_k, len(D_prev)),
                                    dense_rows(D_prev, n_prev), a.field.p)
                assert comp == [[0] * n_prev for _ in D_k], (name, i, k)


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


def _count_covers(monkeypatch) -> list:
    """Patch modules.projective_cover to list every module it covers."""
    covered = []
    real = modules_mod.projective_cover
    monkeypatch.setattr(modules_mod, "projective_cover",
                        lambda m: covered.append(m) or real(m))
    return covered


def test_resolution_steps_are_built_once_per_module(monkeypatch, a2, tp11):
    covered = _count_covers(monkeypatch)
    # pd stops at the zero syzygy, and Tor and Ext need nothing past it
    m = simple(a2, 0)
    assert pd(m, 12).describe() == "Finite(1)"
    assert len(covered) == 2
    assert tor_dims(m, regular(opposite(a2)), 4) == [1, 0, 0, 0, 0]
    assert ext_dims(m, simple(a2, 1), 4) == [0, 1, 0, 0, 0]
    assert min_resolution(m, 12).terminated
    assert len(covered) == 2
    # pd stops at the first iso repeat; Tor reads its steps and then extends
    # the same resolution past it, covering each syzygy once
    m = simple(tp11, 0)
    assert pd(m, 12).describe() == "InfiniteCertified(repeat at 2, period 2)"
    assert len(covered) == 4
    tor_dims(m, regular(opposite(tp11)), 4)
    ext_dims(m, simple(tp11, 0), 4)
    assert pd(m, 12).describe() == "InfiniteCertified(repeat at 2, period 2)"
    assert len(covered) == 2 + 6
    assert len({id(x) for x in covered}) == len(covered)


def test_euler_matrix_resolves_each_simple_once(monkeypatch, fixture_algebras):
    covered = _count_covers(monkeypatch)
    decided = 0
    for name, a in fixture_algebras.items():
        if euler_matrix(a, 12) is not None and a.r > 1:
            decided += 1
    assert decided >= 2
    assert len({id(x) for x in covered}) == len(covered)


def test_guard_stop_is_not_kept_on_the_module(monkeypatch):
    # the cover of D(e_2 A) for tri-42-14 has source dimension 864; the
    # guard is read at call time, so under a guard of 512 it stops, and once
    # the guard is back at its value the same module object resolves
    a = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 14).a
    m = dual(projective(a, 2))
    assert (m.dim, projective_cover(m).source_dim, modules_mod.DIM_GUARD) == (36, 864, 1024)
    monkeypatch.setattr(modules_mod, "DIM_GUARD", 512)
    assert pd(m, 12).describe() == "Unknown(dim guard at step 0)"
    monkeypatch.undo()
    res = pd(m, 12)
    assert (res.describe(), res.syzygy_dims) == ("Finite(1)", [36, 828, 0])


def test_the_dim_guard_stops_a_doubling_blow_up(monkeypatch):
    # with no summand test, simple 0 of nilcyc-42-19 doubles at every step;
    # the cover of syzygy 8 has 256 + 512 source columns and the cover of
    # syzygy 9 has 512 + 1024, over the guard
    a = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), 19)
    monkeypatch.setattr(modules_mod, "_split", lambda x, y: None)
    m = simple(a, 0)
    res = pd(m, 12)
    assert res.describe() == "Unknown(dim guard at step 9)"
    assert (res.kind, res.reason, res.step, res.cutoff) == ("unknown", "dim_guard", 9, 12)
    assert res.syzygy_dims == [2 ** j for j in range(10)]
    sources = [projective_cover(x).source_dim for x in [m] + [s[0] for s in m._resolution]]
    assert sources == [3 * 2 ** j for j in range(9)] + [512 + 1024]


def test_summand_search_keeps_its_hom_systems_within_the_guard(monkeypatch):
    # pd tests each earlier syzygy that fits as a direct summand of the new
    # one; a proper summand test is set up only when its Hom system has at
    # most DIM_GUARD unknowns, and on these simples no equal-signature test
    # (see the next test) is larger either
    unknowns = []
    real = modules_mod._hom_system

    def counting(m, n):
        system = real(m, n)
        unknowns.append(system[1])
        return system

    monkeypatch.setattr(modules_mod, "_hom_system", counting)
    spec = corpus.CorpusSpec(seed=7, count=30, shape="NilpotentCyclic")
    for index in range(30):
        a = corpus.generate(spec, index)
        for i in range(a.r):
            pd(simple(a, i), 12)
    assert unknowns and max(unknowns) <= modules_mod.DIM_GUARD


def test_equal_signature_summand_test_is_not_bounded_by_the_guard():
    # nilcyc-42-18's op-side injective 1 has syzygy 3 isomorphic to syzygy 1,
    # whose Hom system has 1296 unknowns, over DIM_GUARD; the guard bounds
    # proper summand tests only, and bounding this one too would find only
    # the later repeat at 4
    a = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), 18)
    r = pd(injective(opposite(a), 1), 12)
    assert (r.describe(), r.syzygy_dims) == ("InfiniteCertified(repeat at 3, period 2)",
                                             [9, 36, 18, 36])
    x, y = r.witness_modules
    assert modules_mod._hom_system(x, y)[1] == 1296 > modules_mod.DIM_GUARD
    _assert_witness_reverifies(r)


def test_proper_summand_test_within_the_guard(monkeypatch):
    # nilcyc-42-10's op-side injective 0 has syzygy 1 split off syzygy 2, a
    # proper summand test whose Hom system has 900 unknowns; the guard lets
    # it through, and with the guard below 900 it is skipped and the chain
    # runs to the cutoff
    a = corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), 10)
    r = pd(injective(opposite(a), 0), 12)
    assert r.describe() == "InfiniteCertified(summand repeat at 2, period 1)"
    x, y = r.witness_modules
    assert modules_mod._hom_system(x, y)[1] == 900 <= modules_mod.DIM_GUARD
    _assert_witness_reverifies(r)
    monkeypatch.setattr(modules_mod, "DIM_GUARD", 899)
    assert pd(injective(opposite(a), 0), 12).describe() == "Unknown(cutoff 12)"


def test_pd_examples(a2, tp11):
    assert pd(simple(a2, 0), 12).describe() == "Finite(1)"
    assert pd(projective(a2, 0), 12).describe() == "Finite(0)"
    r = pd(simple(tp11, 0), 12)
    assert r.kind == "infinite"
    assert (r.first_repeat, r.period) == (2, 2)


def test_conjoin_truth_table():
    # an infinite part decides the conjunction, then an unknown one; no
    # parts at all is finite, as the global dimension of no simples is
    table = {
        ("finite", "finite"): "finite",
        ("finite", "infinite"): "infinite",
        ("finite", "unknown"): "unknown",
        ("infinite", "finite"): "infinite",
        ("infinite", "infinite"): "infinite",
        ("infinite", "unknown"): "infinite",
        ("unknown", "finite"): "unknown",
        ("unknown", "infinite"): "infinite",
        ("unknown", "unknown"): "unknown",
    }
    for pair, kind in table.items():
        assert conjoin(pair) == kind, pair
        assert conjoin(iter(pair)) == kind, pair
    assert conjoin(()) == "finite"


def _tampered(mat, F):
    """The map with entry (0, 0) raised by one."""
    bad = {s: dict(row) for s, row in mat.items()}
    row0 = bad.setdefault(0, {})
    row0[0] = F.add(row0.get(0, F.zero), F.one)
    return bad


def _assert_witness_reverifies(r):
    m, n = r.witness_modules
    F = m.field
    inc, ret = r.witness.inclusion, r.witness.retraction
    assert split_witness_holds(m, n, inc, ret)
    # a tampered inclusion, a tampered retraction, and a retraction that
    # still intertwines but no longer inverts the inclusion are rejected
    assert not split_witness_holds(m, n, _tampered(inc, F), ret)
    assert not split_witness_holds(m, n, inc, _tampered(ret, F))
    two = F.of_int(2)
    doubled = {t: {s: F.mul(two, v) for s, v in row.items()} for t, row in ret.items()}
    assert not split_witness_holds(m, n, inc, doubled)
    if m.dim == n.dim:
        # between equal dimensions the pair is an iso and its inverse
        assert iso_witness_holds(m, n, inc, ret)
        assert not iso_witness_holds(m, n, _tampered(inc, F), ret)


def test_pd_certificates_reverify(tp11):
    _assert_witness_reverifies(pd(simple(tp11, 0), 12))
    # an infinite self-injective side names its indecomposable injective and
    # keeps that summand's witness: the witness modules are its syzygies.
    # Three sides repeat up to iso; on tri-42-21's left side syzygy 2 of
    # injective 0 splits off syzygy 6
    spec = corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair")
    sides = splits = 0
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
            splits += r.witness_modules[0].dim < r.witness_modules[1].dim
    assert (sides, splits) == (4, 1)


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


def test_is_iso_witness_reverifies_on_both_search_paths(monkeypatch, a2):
    # swapped simple summands: Hom has two free unknowns and only choices
    # with both non-zero are invertible.  Over F2 the search is exhaustive
    # (no random draw); over Q it is randomized
    draws = []
    real = modules_mod._random_hom
    monkeypatch.setattr(modules_mod, "_random_hom",
                        lambda system, rng: draws.append(1) or real(system, rng))
    f2 = from_quiver(parse_spec("field F2 quiver { vertices: 1, 2 arrows: a: 1 -> 2 }"))
    for a, randomized in ((f2, False), (a2, True)):
        m = direct_sum(a, [simple(a, 0), simple(a, 1)])
        n = direct_sum(a, [simple(a, 1), simple(a, 0)])
        draws.clear()
        res = is_iso(m, n)
        assert res.kind == "iso" and bool(draws) == randomized, a.name
        w = res.witness
        assert iso_witness_holds(m, n, w.inclusion, w.retraction), a.name
        assert split_witness_holds(m, n, w.inclusion, w.retraction), a.name


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
    assert hom_dim(regular(a2), dual(n)) == module_tensor_dim(regular(a2), n) == n.dim


def test_tensor_over_corner_example(a2):
    # Ae_1 (x)_{e_1 A e_1} e_1 A has dimension 2 (corner is k)
    cor = corner(a2, [0])
    Ae = module_Ae(a2, [0], cor)
    eA = module_eA(a2, [0], cor)
    assert Ae.dim == 1 and eA.dim == 2
    assert hom_dim(Ae, dual(eA)) == module_tensor_dim(Ae, eA) == 2


def test_tensor_over_zero(a2):
    z = zero_module(opposite(a2))
    assert hom_dim(regular(a2), dual(z)) == module_tensor_dim(regular(a2), z) == 0


def test_tensor_dim_symmetric_on_corners(fixture_algebras):
    for name, a in fixture_algebras.items():
        for S in ([0],) if a.r > 1 else ():
            cor = corner(a, list(S))
            Ae = module_Ae(a, list(S), cor)
            eA = module_eA(a, list(S), cor)
            assert hom_dim(Ae, dual(eA)) == hom_dim(eA, dual(Ae)), name
            assert module_tensor_dim(Ae, eA) == module_tensor_dim(eA, Ae), name


def test_hom_dim_is_the_hom_space_dimension(fixture_algebras):
    for name, a in fixture_algebras.items():
        mods = ([simple(a, i) for i in range(a.r)] + [projective(a, i) for i in range(a.r)]
                + [regular(a), dual(regular(opposite(a)))])
        for x in mods:
            for y in mods:
                assert hom_dim(x, y) == len(hom_space(x, y)), name
    a2 = fixture_algebras["FIX-A2"]
    with pytest.raises(ValueError, match="same algebra"):
        hom_dim(simple(a2, 0), dual(simple(a2, 0)))


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
    assert tors[0] == hom_dim(P, dual(n)) == module_tensor_dim(P, n)
    assert tors[1:] == [0, 0, 0]


def _corner_pairs(a):
    """(Ae, eA) over the corner eAe, for every proper nonempty vertex set."""
    for k in range(1, a.r):
        for S in combinations(range(a.r), k):
            cor = corner(a, list(S))
            yield module_Ae(a, list(S), cor), module_eA(a, list(S), cor)


def test_degree_zero_matches_hom_and_tensor(fixture_algebras, seed42_pools):
    # Ext^0 and Tor_0 are read off the generator rows of a resolution; Hom
    # is solved from the actions and the tensor product is the oracle's
    # quotient, sharing no code
    for name, a in fixture_algebras.items():
        mods = ([simple(a, i) for i in range(a.r)] + [projective(a, i) for i in range(a.r)]
                + [regular(a)])
        for x in mods:
            for y in mods + [injective(a, i) for i in range(a.r)]:
                assert ext_dims(x, y, 1)[0] == len(hom_space(x, y)), name
            for y in mods:
                assert tor_dims(x, dual(y), 1)[0] == module_tensor_dim(x, dual(y)), name
    for a in [*fixture_algebras.values(), *seed42_pools["NilpotentCyclic"]]:
        for Ae, eA in _corner_pairs(a):
            for x, y in ((Ae, eA), (eA, Ae)):
                assert tor_dims(x, y, 1)[0] == module_tensor_dim(x, y), a.name
                assert ext_dims(x, x, 1)[0] == len(hom_space(x, x)), a.name


EXT_TOR_SHA256 = "d36b57c3e5112daa194a15f848ffadbbbd3578e17ad8ff1b94c444f1b33dd088"


def test_ext_and_tor_values_are_unchanged(fixture_algebras, seed42_pools):
    # every Ext and Tor list of this sweep, hashed when both were computed
    # from Hom spaces and tensor quotients of the resolution's Module terms;
    # "guard" stands for an Ext whose resolution hit the dimension guard.  It
    # was re-recorded when the guard went from 512 to 1024: the four Ext
    # lists of nilcyc-7-17's simple that were "guard" got values
    # (Ext(S_0, S_0) = [1, 2, 8, 16, 64], the multiplicities of its minimal
    # resolution), and 41 truncated Tor lists grew by a degree or more, each
    # keeping every entry it had
    def pool(seed, shape):
        if seed == 42:
            return seed42_pools[shape]
        spec = corpus.CorpusSpec(seed=seed, count=30, shape=shape)
        return [corpus.generate(spec, i) for i in range(30)]

    algebras = [*fixture_algebras.values()]
    for seed in (42, 7):
        algebras.extend(pool(seed, "NilpotentCyclic"))
    for seed in (42, 7):
        for inst in pool(seed, "TriangularPair")[:10]:
            algebras.extend((inst.b, inst.c))
    out = []
    for a in algebras:
        if a.dim <= 30:
            left = [simple(a, i) for i in range(a.r)] + [projective(a, 0), regular(a)]
            for m in left:
                for n in left + [injective(a, i) for i in range(a.r)]:
                    try:
                        out.append(ext_dims(m, n, 4))
                    except ValueError:
                        out.append("guard")
        regular_left = regular(opposite(a))
        out.extend(tor_dims(simple(a, i), regular_left, 4) for i in range(a.r))
        for Ae, eA in _corner_pairs(a):
            for cutoff in (0, 3, 12):
                out.extend((tor_dims(Ae, eA, cutoff), tor_dims(eA, Ae, cutoff)))
    assert (len(out), out.count("guard")) == (13025, 0)
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == EXT_TOR_SHA256


def _identity_images(a):
    return [[1 if t == x else 0 for t in range(a.dim)] for x in range(a.dim)]


def test_restrict_along_identity(a2):
    # the oracle that test_recollement checks bimodule_restrictions against
    images = _identity_images(a2)
    assert algebra_map_holds(a2, a2, images)
    m = projective(a2, 0)
    assert restrict_along(images, m) == [dense_action(mat, m.dim) for mat in m.action]


def test_restrict_along_rejects_non_map(a2):
    images = _identity_images(a2)
    images[2] = images[0]  # the arrow now multiplies wrongly
    assert not algebra_map_holds(a2, a2, images)
    images = _identity_images(a2)
    images[0] = [0] * a2.dim  # 1 no longer goes to 1
    assert not algebra_map_holds(a2, a2, images)


def test_bimodule_restriction_definition(loc, one_point):
    T = tensor(opposite(one_point), loc)
    F = T.field
    action = [{0: {0: F.one}} if t < T.r else {} for t in range(T.dim)]
    m = Module(T, 1, action, [0])
    mb, mc = bimodule_restrictions(loc, one_point, m)
    assert mb.dim == 1 and mb.algebra == loc
    xi = loc.labels.index("x")
    assert mb.action[xi] == {}
    assert mb.action[0] == {0: {0: F.one}}
    assert mc.dim == 1 and mc.algebra == opposite(one_point)
    assert mc.action == [{0: {0: F.one}}]


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
    doc = module_to_json_v1(m)
    assert doc["format"] == "homkit-module/1"
    text = json.dumps(doc, sort_keys=True)
    m2 = module_from_json(json.loads(text))
    assert m2.dim == m.dim
    assert m2.action == m.action
    assert json.dumps(module_to_json_v1(m2), sort_keys=True) == text


def test_sparse_module_json_round_trip(a2):
    m = projective(a2, 0)
    doc = module_to_json(m)
    assert doc["format"] == "homkit-module/2"
    text = json.dumps(doc, sort_keys=True)
    m2 = module_from_json(json.loads(text))
    assert m2 == m
    assert json.dumps(module_to_json(m2), sort_keys=True) == text
    # the /1 document of the same module reads to the same module
    assert module_from_json(module_to_json_v1(m)) == m


def test_module_json_with_external_algebra(a2):
    m = projective(a2, 1)
    doc = module_to_json(m, algebra_ref="A2.qa")
    assert doc["algebra"] == "A2.qa"
    m2 = module_from_json(doc, algebra=a2)
    assert m2.action == m.action
    with pytest.raises(ValueError, match="external"):
        module_from_json(doc)


def _assert_sparse_rows(m: Module, label):
    """The row invariant: only non-empty rows are stored, by increasing
    in-range index, with in-range columns and no zero."""
    assert len(m.action) == m.algebra.dim, label
    for mat in m.action:
        assert isinstance(mat, dict), label
        assert list(mat) == sorted(mat) and all(0 <= s < m.dim for s in mat), label
        for row in mat.values():
            assert isinstance(row, dict) and row, label
            for c, x in row.items():
                assert 0 <= c < m.dim and x != 0, label


def _row_invariant_cases(fixture_algebras):
    for name, a in fixture_algebras.items():
        for i in range(a.r):
            yield name, projective(a, i)
            yield name, simple(a, i)
            yield name, injective(a, i)
        yield name, zero_module(a)
        yield name, regular(a)
        yield name, dual(regular(a))
        P = direct_sum(a, [projective(a, i) for i in range(a.r)])
        yield name, P
        if a.dim <= 8:
            yield name, _regular_bimodule(a)
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


def _pool_modules(seed42_pools):
    """Syzygies, duals and restrictions over the seed-42 benchmark pools."""
    for a in seed42_pools["NilpotentCyclic"]:
        for i in range(a.r):
            m = simple(a, i)
            for _ in range(2):
                m = syzygy(m)
                yield a.name, m
            inj = injective(a, i)
            yield a.name, inj
            yield a.name, syzygy(inj)
        cor = corner(a, [0])
        yield a.name, module_Ae(a, [0], cor)
        yield a.name, module_eA(a, [0], cor)
    for inst in seed42_pools["TriangularPair"]:
        yield inst.a.name, inst.m
        for side in bimodule_restrictions(inst.b, inst.c, inst.m):
            yield inst.a.name, side
            yield inst.a.name, syzygy(side)
            yield inst.a.name, dual(side)
            yield inst.a.name, syzygy(dual(side))


def test_rows_are_sparse_with_no_stored_zero(fixture_algebras, seed42_pools):
    for cases, least in ((_row_invariant_cases(fixture_algebras), 100),
                         (_pool_modules(seed42_pools), 500)):
        count = 0
        for label, m in cases:
            _assert_sparse_rows(m, label)
            count += 1
        assert count > least


def test_adapt_weights_rejects_bad_rows(a2):
    # adapt_weights takes the rows the library did not build, and checks them
    # before the basis change reads the idempotents' rows
    F = a2.field
    good = simple(a2, 0).action
    assert adapt_weights(a2, 1, good) == simple(a2, 0)
    # a stored zero, out-of-range columns, a Q zero written as Fraction(0),
    # and bad entries that follow a good one in the same row
    for bad_row in ({0: F.zero}, {1: F.one}, {-1: F.one}, {0: Fraction(0)},
                    {0: F.one, 1: F.one}, {0: F.one, -1: F.one}):
        action = [good[0]] + [{0: bad_row}] + good[2:]
        with pytest.raises(ValueError, match="sparse"):
            adapt_weights(a2, 1, action)
    P = projective(a2, 0)
    action = [P.action[0], {0: {0: F.one, 1: F.zero}}] + P.action[2:]
    with pytest.raises(ValueError, match="sparse"):
        adapt_weights(a2, 2, action)
    with pytest.raises(ValueError, match=r"range\(dim\)"):
        adapt_weights(a2, 1, [{0: {0: F.one}, 1: {0: F.one}}] + good[1:])
    # a stored empty row, row indices outside range(dim), and rows stored
    # out of order: equal modules must have equal ``action``
    assert adapt_weights(a2, 2, P.action) == P
    for x, bad_mat, match in ((0, {0: {0: F.one}, 1: {}}, "non-empty"),
                              (2, {2: {1: F.one}}, r"range\(dim\)"),
                              (2, {-1: {1: F.one}}, r"range\(dim\)"),
                              (0, {1: {1: F.one}, 0: {0: F.one}}, "increasing")):
        action = list(P.action)
        action[x] = bad_mat
        with pytest.raises(ValueError, match=match):
            adapt_weights(a2, 2, action)


def test_adapt_weights_rejects_an_action_that_is_not_a_module():
    # P_1 of 1 -> 2 -> 3: a then b acts as a*b, which is checked on generators
    a3 = from_quiver(parse_spec("field Q quiver { vertices: 1, 2, 3  "
                                "arrows: a: 1 -> 2, b: 2 -> 3 }", name="A3"))
    F = a3.field
    P = projective(a3, 0)
    ab = a3.labels.index("a*b")
    assert adapt_weights(a3, P.dim, P.action) == P
    scaled = list(P.action)
    scaled[ab] = {s: {t: F.mul(F.of_int(2), v) for t, v in row.items()}
                  for s, row in P.action[ab].items()}
    with pytest.raises(ValueError, match="^'a' then 'b' in A3 does not act as their product$"):
        adapt_weights(a3, P.dim, scaled)
    # a's entry moved to the row of a basis vector of another weight
    off_tags = list(P.action)
    off_tags[a3.labels.index("a")] = {1: {1: F.one}}
    with pytest.raises(ValueError, match="^'a' in A3 does not respect the vertex tags$"):
        adapt_weights(a3, P.dim, off_tags)


@pytest.mark.parametrize("fmt", ["homkit-module/1", "homkit-module/2"])
def test_a_large_dim_allocates_nothing(a2, loc, one_point, fmt):
    # a document of a few hundred bytes whose dim is 10**6 is rejected
    # before anything of length dim is built
    doc = {"format": fmt, "dim": 10 ** 6}
    T = tensor(opposite(one_point), loc)
    for read, labels in ((lambda d: module_from_json(d, a2), a2.labels),
                         (lambda d: bimodule_from_json(d, loc, one_point), T.labels)):
        doc["action"] = {label: [] for label in labels}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="wrong shape" if fmt.endswith("1") else
                               "idempotent projector images do not fill the space"):
                read(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_module_json_writes_dense_and_reads_sparse(monkeypatch):
    from homkit.linalg import Field
    parse = Field.parse
    parsed = []
    monkeypatch.setattr(Field, "parse", lambda F, text: parsed.append(text) or parse(F, text))
    for field in ("Q", "F101"):
        a2 = from_quiver(parse_spec(f"field {field} quiver {{ vertices: 1, 2  "
                                    "arrows: a: 1 -> 2 }", name="A2"))
        m = projective(a2, 0)
        doc = module_to_json_v1(m)
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


def test_sparse_module_json_writes_and_reads_the_non_zero_entries(monkeypatch):
    from homkit.linalg import Field
    parse = Field.parse
    parsed = []
    monkeypatch.setattr(Field, "parse", lambda F, text: parsed.append(text) or parse(F, text))
    for field in ("Q", "F101"):
        a2 = from_quiver(parse_spec(f"field {field} quiver {{ vertices: 1, 2  "
                                    "arrows: a: 1 -> 2 }", name="A2"))
        m = projective(a2, 0)
        doc = module_to_json(m)
        arrow = a2.labels[2]
        assert doc["action"] == {a2.labels[0]: [[0, 0, "1"]], a2.labels[1]: [[1, 1, "1"]],
                                 arrow: [[0, 1, "1"]]}
        # every entry is parsed
        parsed.clear()
        assert module_from_json(doc, algebra=a2).action == m.action
        assert parsed == ["1", "1", "1"]
        # a zero entry is parsed, and dropped
        for zero in ("0", "00", " 0", "0/3"):
            doc["action"][arrow] = [[0, 1, "1"], [1, 0, zero]]
            assert module_from_json(doc).action == m.action, (field, zero)
        # and bad entries still raise, naming where they are
        for bad in ("abc", "1/0", " ", "0.0", 1):
            doc["action"][arrow] = [[0, 1, "1"], [1, 0, bad]]
            with pytest.raises(ValueError, match=r"row 1, column 0"):
                module_from_json(doc)
        for bad, match in (([1, 0], r"entry 1 is not \[s, t, value\]"),
                           ([1, 2, "1"], r"entry 1 is not .* in 0\.\.1"),
                           ([-1, 0, "1"], r"entry 1 is not .* in 0\.\.1"),
                           ([True, 0, "1"], r"entry 1 is not \[s, t, value\]"),
                           ("1", r"entry 1 is not \[s, t, value\]")):
            doc["action"][arrow] = [[0, 1, "1"], bad]
            with pytest.raises(ValueError, match=match):
                module_from_json(doc)
        for entries in ([[0, 1, "1"], [0, 1, "2"]], [[0, 1, "1"], [0, 0, "1"]]):
            doc["action"][arrow] = entries
            with pytest.raises(ValueError, match="entry 1 repeats or precedes"):
                module_from_json(doc)
        doc["action"][arrow] = {"0": []}
        with pytest.raises(ValueError, match="is not a list of entries"):
            module_from_json(doc)


def test_adapt_weights_rebases_a_non_adapted_action(a2):
    P = projective(a2, 0)
    F = P.field
    T = [[F.one, F.one], [F.zero, F.one]]
    T_inv = [[F.one, F.neg(F.one)], [F.zero, F.one]]

    def rebased(mat):
        rows = dense_matmul(dense_matmul(T, dense_action(mat, 2)), T_inv)
        return {s: {t: x for t, x in enumerate(row) if x != 0}
                for s, row in enumerate(rows) if any(row)}

    mixed = [rebased(mat) for mat in P.action]
    assert mixed[0] != P.action[0]  # e_1 no longer acts diagonally
    m = adapt_weights(a2, 2, mixed)
    assert m.validate() == []
    assert m.weights == [0, 1]
    assert is_iso(m, P).kind == "iso"


def test_equal_dimensions_give_the_zero_syzygy_without_elimination(fixture_algebras,
                                                                    monkeypatch):
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


def test_unknown_names_what_stopped_it(tp11, monkeypatch):
    # S_0 over FIX-TP1(1) repeats at step 2, and its cover P_0 has dimension 2
    assert pd(simple(tp11, 0), 2).describe() == "InfiniteCertified(repeat at 2, period 2)"
    res = pd(simple(tp11, 0), 1)
    assert res.describe() == "Unknown(cutoff 1)"
    assert (res.reason, res.step) == ("cutoff", 1)
    # with a guard below the cover's source dimension every reader of the
    # resolution ends as documented: pd in Unknown, Ext raises, Tor keeps its
    # certain degrees (none) and min_resolution is aborted
    monkeypatch.setattr(modules_mod, "DIM_GUARD", 1)
    res = pd(simple(tp11, 0), 12)
    assert res.describe() == "Unknown(dim guard at step 0)"
    assert (res.reason, res.step, res.cutoff) == ("dim_guard", 0, 12)
    with pytest.raises(ValueError, match="dimension guard stopped the resolution at step 0"):
        ext_dims(simple(tp11, 0), simple(tp11, 0), 2)
    assert tor_dims(simple(tp11, 0), regular(opposite(tp11)), 2) == []
    r = min_resolution(simple(tp11, 0), 4)
    assert (r.aborted, r.terminated, r.steps) == (True, False, [])


# recorded with the row-invariant cases of each fixture less the identity
# restriction of P, which equalled P and followed it in the stream
MODULE_JSON_SHA256 = "b8b56291d0119fcf1268962d2870562eaec880dd39d9c84716e80a7113d1f409"
# the homkit-module/2 text of the same modules, recorded when /2 was added
MODULE_JSON_V2_SHA256 = "bb4e8f19e34c5868e8cb627afdc5ff7646e248802f8c37536a551259b8b98b71"


def test_module_json_is_unchanged(fixture_algebras, seed42_pools):
    # the homkit-module/1 text of the fixture and pool modules, hashed when
    # the action still stored every row, empty ones included; each module is
    # now written as /2, read back, and written as /1 again
    digest, digest2 = hashlib.sha256(), hashlib.sha256()
    for cases in (_row_invariant_cases(fixture_algebras), _pool_modules(seed42_pools)):
        for _, m in cases:
            text = json.dumps(module_to_json(m), sort_keys=True)
            digest2.update(text.encode())
            back = module_from_json(json.loads(text), algebra=m.algebra)
            digest.update(json.dumps(module_to_json_v1(back), sort_keys=True).encode())
    assert digest.hexdigest() == MODULE_JSON_SHA256
    assert digest2.hexdigest() == MODULE_JSON_V2_SHA256
