import contextlib
import io
import random

import pytest

from _oracles import dense_matmul, identity_matrix, invert_int, monomial_simple_syzygies
from homkit import cli, corpus, invariants
from homkit import modules as modules_mod
from homkit.algebra import from_quiver, opposite, tensor, triangular
from homkit.corpus import CorpusSpec, generate
from homkit.invariants import (cartan_matrix, eilenberg_check, euler_matrix,
                               finite_gldim, gldim, gorenstein,
                               self_injective_dimension, smooth, two_point_criterion)
from homkit.linalg import IntMatrix
from homkit.modules import (DIM_GUARD, dual, hom_space, pd, projective, projective_cover,
                            regular, simple)
from homkit.presentation import AlgebraSpec, Arrow, Path, Quiver, Relation
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
    # the rank of K_0 is the number of vertex idempotents, Algebra.r
    assert fixture_algebras["FIX-A2"].r == 2
    assert fixture_algebras["FIX-LOC"].r == 1
    loc = fixture_algebras["FIX-LOC"]
    T = tensor(opposite(one_point), loc)
    m = regular(T)
    tri = triangular(loc, one_point, m)
    assert tri.r == loc.r + one_point.r


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
    assert dense_matmul(E.data, C.transpose().data) == identity_matrix(2)
    assert dense_matmul(E.data, C.data) != identity_matrix(2)


def test_euler_is_inverse_transpose_of_cartan(a2):
    # cross-check through exact rational inversion
    from fractions import Fraction
    C = cartan_matrix(a2).matrix
    E = euler_matrix(a2, 12)
    inv = invert_int(C.transpose().data)
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
        assert dense_matmul(E.data, C.transpose().data) == identity_matrix(a.r), a.name


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
def test_finite_gldim_agrees_with_gldim(fixture_algebras, one_point, semisimple3, cutoff):
    seen = set()
    for a in _finiteness_inputs(fixture_algebras, one_point, semisimple3):
        g, full = finite_gldim(a, cutoff), gldim(a, cutoff)
        # the full report exactly when the global dimension is finite
        assert g == (full if full.is_finite else None), (a.name, cutoff)
        seen.add((cartan_matrix(a).det in (1, -1), g is not None))
    # None from the determinant alone, and both answers after resolving
    assert seen == {(False, False), (True, False), (True, True)}
    with pytest.raises(ValueError):
        finite_gldim(one_point, 0)


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
            if a.name in ("tri-42-0", "tri-42-21"):
                # the sum repeats only late, but an earlier syzygy of it
                # splits off a later one, so D(A) resolved whole decides these
                assert whole.is_infinite, key
                x, y = whole.witness_modules
                assert x.dim < y.dim, key
    # nilcyc-42-20's D(A) resolved whole is decided too, on both sides, by
    # proper summand tests (summand repeat at 4 and at 3, period 2)
    assert {"nilcyc-42-10"} <= decided


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


def test_self_injective_dimension_keeps_the_guard_unknown(monkeypatch):
    # injective 2 over A^op has the largest cover at step 0, with 864 source
    # columns; under the guard the right side is Finite(1), and under any
    # guard below 864 it is an honest Unknown
    a = generate(CorpusSpec(seed=42, count=30, shape="TriangularPair"), 14).a
    right = self_injective_dimension(a, 12)
    assert (right.describe(), right.syzygy_dims) == ("Finite(1)", [42, 982, 0])
    sources = [projective_cover(dual(projective(a, i))).source_dim for i in range(a.r)]
    assert max(sources) == 864 <= DIM_GUARD
    monkeypatch.setattr(modules_mod, "DIM_GUARD", 863)
    right = self_injective_dimension(a, 12)
    assert right.kind == "unknown"
    # and says so: the side takes the reason of its first non-Finite summand
    assert right.describe() == "Unknown(dim guard at step 0)"
    assert (right.reason, right.step, right.cutoff) == ("dim_guard", 0, 12)


_CERTIFIED = {19: ("summand repeat at 1, period 1", "dim guard at step 0"),
              21: ("summand repeat at 1, period 1", "dim guard at step 0"),
              23: ("summand repeat at 2, period 2", "dim guard at step 1")}


@pytest.mark.parametrize("index, stop", [(19, 8), (21, 8), (23, 11)])
def test_gldim_unknown_names_what_stopped_it(index, stop, monkeypatch):
    # without summand tests the syzygies of simple 0 grow (doubling, or
    # tripling every second step), and a guard of 512 stops them at step
    # `stop` (the default guard later, or not before the cutoff); an
    # earlier syzygy of it splits off a later one before that
    a = generate(CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), index)
    certified, guard_stop = _CERTIFIED[index]
    with monkeypatch.context() as unsplit:
        unsplit.setattr(modules_mod, "_split", lambda x, y: None)
        unsplit.setattr(modules_mod, "DIM_GUARD", 512)
        res = pd(simple(a, 0), 12)
    assert (res.reason, res.step) == ("dim_guard", stop)
    g = gldim(a, 12)
    assert g.describe() == f"InfiniteCertified(simple 0: InfiniteCertified({certified}))"
    assert g.per_simple[0].first_repeat < stop
    # a guard that stops every simple before its split: each simple that is
    # not Finite was stopped by the guard, and the verdict names the first
    monkeypatch.setattr(modules_mod, "DIM_GUARD", 2)
    g = gldim(a, 12)
    assert g.kind == "unknown"
    assert g.describe() == f"Unknown({guard_stop})"
    assert all(p.reason == "dim_guard" for p in g.per_simple if not p.is_finite)
    assert g.describe() == next(p for p in g.per_simple if not p.is_finite).describe()


def test_gldim_unknown_keeps_the_cutoff_text(tp11):
    g = gldim(tp11, 1)
    assert [p.reason for p in g.per_simple] == ["cutoff", "cutoff"]
    assert g.describe() == "Unknown(cutoff 1)"


def _certificate_inputs(fixture_algebras):
    """The fixtures and the three corpus shapes at corpus seeds 42 and 7,
    with A, B and C of each TriangularPair."""
    out = list(fixture_algebras.values())
    for seed in (42, 7):
        for shape in ("AcyclicQuiver", "NilpotentCyclic", "TriangularPair"):
            spec = CorpusSpec(seed=seed, count=30, shape=shape)
            for i in range(30):
                x = generate(spec, i)
                out += [x.a, x.b, x.c] if shape == "TriangularPair" else [x]
    return out


def test_gorenstein_by_gldim_matches_the_injectives_it_skips(fixture_algebras):
    # wherever a finite global dimension answers, both self-injective
    # dimensions resolved one injective at a time read the same
    fired = set()
    for a in _certificate_inputs(fixture_algebras):
        reports = [gorenstein(a, 12, verdict_only=v) for v in (False, True)]
        finite = finite_gldim(a, 12) is not None
        assert [g.gldim_report is not None for g in reports] == [finite] * 2, a.name
        if not finite:
            continue
        fired.add(a.name)
        right = self_injective_dimension(a, 12)
        left = self_injective_dimension(opposite(a), 12)
        assert right.is_finite and left.is_finite, a.name
        for g in reports:
            assert g.verdict == "Gorenstein", a.name
            assert g.right_id.describe() == right.describe(), a.name
            assert g.left_id.describe() == left.describe(), a.name
            assert g.describe() == f"Gorenstein({right.d},{left.d})", a.name
            assert g.gldim_report.value == right.d == left.d, a.name
    # the seed-42 TriangularPair A's of finite global dimension
    tri = [generate(CorpusSpec(seed=42, count=30, shape="TriangularPair"), i).a
           for i in range(30)]
    finite_a = {a.name for a in tri if gldim(a, 12).is_finite}
    assert len(finite_a) == 7 and finite_a <= fired


@pytest.mark.parametrize("seed, finite, infinite", [(42, 39, 51), (7, 40, 50)])
def test_gldim_of_the_opposite_algebra_agrees(seed, finite, infinite):
    # Auslander (1955): a finite-dimensional algebra and its opposite have
    # the same global dimension.  The two sides resolve different simples,
    # right A-modules and left ones (as right modules over the opposite), so
    # the resolutions check each other; every pair here is decided
    kinds = []
    for shape in ("AcyclicQuiver", "NilpotentCyclic", "TriangularPair"):
        spec = CorpusSpec(seed=seed, count=30, shape=shape)
        for i in range(30):
            x = generate(spec, i)
            a = x.a if shape == "TriangularPair" else x
            right, left = gldim(a, 12), gldim(opposite(a), 12)
            assert (left.kind, left.value) == (right.kind, right.value), a.name
            kinds.append(right.kind)
    assert (kinds.count("finite"), kinds.count("infinite")) == (finite, infinite)


@pytest.mark.parametrize("seed, finite, infinite", [(42, 186, 50), (7, 169, 53)])
def test_simple_resolutions_match_the_monomial_path_graph(seed, finite, infinite):
    # every AcyclicQuiver and NilpotentCyclic algebra is monomial, so the
    # syzygies of its simples are read off the graph of minimal zero
    # products; each pd of a simple, its kind and value, and each syzygy
    # dimension that pd built must be the oracle's
    kinds = []
    for shape in ("AcyclicQuiver", "NilpotentCyclic"):
        spec = CorpusSpec(seed=seed, count=30, shape=shape)
        for i in range(30):
            a = generate(spec, i)
            g = gldim(a, 12)
            expected = monomial_simple_syzygies(a.r, a.left, a.right, a.mult, 12)
            for v, (res, (d, dims)) in enumerate(zip(g.per_simple, expected, strict=True)):
                where = (a.name, v)
                if d is None:
                    assert res.kind == "infinite", where
                else:
                    assert (res.kind, res.d) == ("finite", d), where
                    assert dims[d + 1] == 0 and len(res.syzygy_dims) == d + 2, where
                assert res.syzygy_dims == dims[:len(res.syzygy_dims)], where
                kinds.append(res.kind)
    assert (kinds.count("finite"), kinds.count("infinite")) == (finite, infinite)


def test_gorenstein_resolves_no_simple_of_fix_tp2(tp2, monkeypatch):
    # det C = 0 rules out a finite global dimension (Eilenberg 1954), so
    # the simples, which resolve to the cutoff, are never resolved: every
    # module that pd sees is an indecomposable injective
    resolved = []
    real_pd = invariants.pd

    def counting_pd(m, cutoff):
        resolved.append(m)
        return real_pd(m, cutoff)

    monkeypatch.setattr(invariants, "pd", counting_pd)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["gorenstein", "FIX-TP2"]) == 0
    assert cartan_matrix(tp2).det == 0
    assert "Gorenstein(0,0)" in out.getvalue()
    assert resolved == [dual(projective(over, i)) for over in (tp2, opposite(tp2))
                        for i in range(tp2.r)]


def _monomial_verdicts(field_name, seed=42):
    """``{(algebra, what): (kind, d, text)}`` over one field for the
    AcyclicQuiver and NilpotentCyclic algebras of one corpus seed, where
    ``what`` is the pd of a simple or a side of the self-injective
    dimension."""
    out = {}
    for shape in ("AcyclicQuiver", "NilpotentCyclic"):
        spec = CorpusSpec(seed=seed, count=30, shape=shape, field_name=field_name)
        for n in range(30):
            a = generate(spec, n)
            pds = [(f"simple {i}", p) for i, p in enumerate(gldim(a, 12).per_simple)]
            pds += [("right", self_injective_dimension(a, 12)),
                    ("left", self_injective_dimension(opposite(a), 12))]
            out.update(((a.name, what), (p.kind, p.d, p.describe())) for what, p in pds)
    return out


def test_monomial_verdicts_do_not_depend_on_the_field():
    # the two shapes draw the same monomial algebras over every field, and the
    # homological verdicts of a monomial algebra do not depend on the field
    def kinds(verdicts):
        return {key: (kind, d) for key, (kind, d, _) in verdicts.items()}

    f101 = kinds(_monomial_verdicts("F101"))
    assert "unknown" not in {kind for kind, _ in f101.values()}
    for field_name in ("F3", "Q"):
        assert kinds(_monomial_verdicts(field_name)) == f101, field_name
    # over F2 the summand search makes more random draws (_ISO_RETRIES_F2);
    # with the 8 of the other fields six F2 sides stayed Unknown: the left
    # sides of nilcyc-42-1, nilcyc-42-18 and nilcyc-7-16, the right side of
    # nilcyc-7-10, and both sides of nilcyc-7-17 (at the dimension guard)
    assert kinds(_monomial_verdicts("F2")) == f101
    f101 = kinds(_monomial_verdicts("F101", seed=7))
    assert "unknown" not in {kind for kind, _ in f101.values()}
    assert kinds(_monomial_verdicts("F2", seed=7)) == f101


def _permuted_spec(spec, perm):
    """The presentation with vertex v renamed perm[v]: the labels, the arrow
    ends and the relation path ends move, the arrow order stays."""
    labels = [None] * len(perm)
    for v, label in enumerate(spec.quiver.vertex_labels):
        labels[perm[v]] = label
    arrows = tuple(Arrow(a.label, perm[a.source], perm[a.target]) for a in spec.quiver.arrows)
    relations = tuple(Relation(tuple((c, Path(perm[p.source], perm[p.target], p.arrows))
                                     for c, p in rel.terms)) for rel in spec.relations)
    return AlgebraSpec(spec.field, Quiver(tuple(labels), arrows), relations,
                       spec.degree_cutoff, spec.name)


def test_vertex_permutation_permutes_every_per_vertex_verdict(monkeypatch):
    # renaming the vertices gives an isomorphic algebra: the Cartan matrix is
    # conjugated by the permutation, det C stays, and the pd of each simple
    # and both sides of the self-injective dimension are the same verdicts
    specs = {}
    real_from_quiver = corpus.from_quiver

    def recording_from_quiver(spec):
        a = real_from_quiver(spec)
        specs[a] = spec
        return a

    monkeypatch.setattr(corpus, "from_quiver", recording_from_quiver)
    compared = 0
    for shape in ("NilpotentCyclic", "AcyclicQuiver"):
        spec = CorpusSpec(seed=42, count=30, shape=shape)
        for n in range(30):
            a = generate(spec, n)
            perm = list(range(a.r))
            random.Random(n).shuffle(perm)
            b = from_quiver(_permuted_spec(specs[a], perm))
            assert b.cartan.det == a.cartan.det, a.name
            ca, cb = a.cartan.matrix.data, b.cartan.matrix.data
            assert all(cb[perm[j]][perm[i]] == ca[j][i]
                       for i in range(a.r) for j in range(a.r)), a.name
            per_b = gldim(b, 12).per_simple
            pairs = list(zip(gldim(a, 12).per_simple, [per_b[perm[i]] for i in range(a.r)]))
            pairs += [(self_injective_dimension(x, 12), self_injective_dimension(y, 12))
                      for x, y in ((a, b), (opposite(a), opposite(b)))]
            for p, q in pairs:
                if p.kind != "unknown" and q.kind != "unknown":
                    assert (p.kind, p.d) == (q.kind, q.d), a.name
                    compared += 1
    assert compared > 300, compared
