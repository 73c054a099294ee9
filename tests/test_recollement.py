import collections
import functools
import hashlib
import json
from dataclasses import replace

import pytest

from homkit.algebra import (corner, opposite, quotient_by_idempotent_ideal, tensor,
                            triangular)
from homkit.corpus import CorpusSpec, generate
from homkit.invariants import cartan_matrix, gldim, gorenstein
from homkit.modules import Module, PdResult, pd, regular
from homkit.recollement import (aea_dimension, det_multiplicativity_check,
                                gorenstein_transfer_check, height_label,
                                ladder_estimate, module_Ae, module_eA,
                                smoothness_transfer_check, stratify_search,
                                stratifying_check)


def _simple_bimodule(b, c):
    """The one-dimensional C-B-bimodule where all radicals act as zero.

    Only valid when both factors have a vertex 0; the module sits at the
    bimodule weight (0, 0).
    """
    T = tensor(opposite(c), b)
    F = T.field
    action = [[{0: F.one}] if t == 0 else [{}] for t in range(T.dim)]
    return T, Module(T, 1, action, [0])


def test_corner_modules_are_valid(fixture_algebras):
    for name, a in fixture_algebras.items():
        if a.r < 2:
            continue
        cor = corner(a, [0])
        Ae = module_Ae(a, [0], cor)
        eA = module_eA(a, [0], cor)
        assert Ae.validate() == [], name
        assert eA.validate() == [], name
        # dimensions: right/left tag counts
        assert Ae.dim == sum(1 for k in range(a.dim) if a.right[k] == 0)
        assert eA.dim == sum(1 for k in range(a.dim) if a.left[k] == 0)


def test_aea_dimension_values(a2, tp11):
    assert aea_dimension(a2, [0]) == 2
    assert aea_dimension(a2, [1]) == 2
    assert aea_dimension(tp11, [0]) == 3


def test_stratifying_fixture_verdicts(a2, tp11):
    v = stratifying_check(a2, [0], 12)
    assert v.kind == "yes" and (v.tensor_dim, v.aea_dim) == (2, 2)
    v2 = stratifying_check(a2, [1], 12)
    assert v2.kind == "yes"
    v3 = stratifying_check(tp11, [0], 12)
    assert v3.kind == "no"
    assert (v3.tensor_dim, v3.aea_dim) == (4, 3)
    v4 = stratifying_check(tp11, [1], 12)
    assert v4.kind == "no"


def test_stratifying_direct_span_oracle(a2):
    # oracle: brute-force span of all products u*e_s*v against the tensor dim
    F = a2.field
    from homkit.linalg import RowSpace
    S = {0}
    span = RowSpace(F)
    for u in range(a2.dim):
        for s in S:
            ue = a2.mul_coords({u: F.one}, {s: F.one})
            for v in range(a2.dim):
                uev = a2.mul_coords(ue, {v: F.one})
                if uev:
                    span.add(uev)
    assert span.rank == aea_dimension(a2, [0]) == 2


def test_stratifying_verdicts_carry_witnesses(a2, tp11):
    # one-sided error: Yes always has the terminating-resolution witness,
    # No always has a dimension mismatch or an explicit Tor degree
    yes = stratifying_check(a2, [0], 12)
    assert yes.kind == "yes" and yes.resolution_terminated
    no = stratifying_check(tp11, [0], 12)
    assert no.kind == "no"
    assert no.tensor_dim != no.aea_dim or no.first_nonzero_tor is not None


def test_stratifying_check_rejects_bad_subsets(a2):
    with pytest.raises(ValueError):
        stratifying_check(a2, [], 12)
    with pytest.raises(ValueError):
        stratifying_check(a2, [0, 1], 12)


def test_ladder_a2(a2):
    lad = ladder_estimate(a2, [0], 12)
    assert lad.down.describe() == "Finite(0)"
    assert lad.up.describe() == "Finite(0)"
    assert lad.height.startswith(">=4")


def test_ladder_reuses_the_pds_of_the_stratifying_check(a2, loc, one_point, monkeypatch):
    import homkit.recollement as rec
    A = triangular(loc, one_point, _simple_bimodule(loc, one_point)[1])
    # A2: pd(Ae) is finite, so only pd(eA) is left to compute; A: the check
    # needed both
    for alg, missing in ((a2, 1), (A, 0)):
        strat = stratifying_check(alg, [0], 12)
        calls = []
        monkeypatch.setattr(rec, "pd", lambda m, c: calls.append(m) or pd(m, c))
        lad = ladder_estimate(alg, [0], 12, strat=strat)
        monkeypatch.undo()
        assert len(calls) == missing
        assert lad.down is strat.pd_Ae
        assert lad.to_json() == ladder_estimate(alg, [0], 12,
                                                strat=replace(strat, pd_Ae=None)).to_json()


# stratify_search on two NilpotentCyclic instances whose trees hold both a
# det C = 2 split (ladder decided by the determinant) and a det C = 1 split
# with a non-finite simple; recorded when the ladder still ran a full gldim
NILCYC_TREES = {
    8: ("nilcyc-42-8 (dim 9, r 4, det C 2)  split at e=[2]  ladder >=3  det 2 = 1 * 2: pass\n"
        "  quot(nilcyc-42-8,[2]) (dim 7, r 3, det C 1)  split at e=[2]  ladder >=3  "
        "det 1 = 1 * 1: pass\n"
        "    quot(quot(nilcyc-42-8,[2]),[2]) (dim 5, r 2, det C 1)  "
        "[derived-simple candidate (idempotent search only)]\n"
        "    corner(quot(nilcyc-42-8,[2]),[2]) (dim 1, r 1, det C 1)  "
        "[derived-simple candidate (idempotent search only)]\n"
        "  corner(nilcyc-42-8,[2]) (dim 2, r 1, det C 2)  "
        "[derived-simple candidate (idempotent search only)]",
        "382798b20041aa34e92f1a8a03b00d64d79dcb8150d1359b11c8131ed16731a7"),
    6: ("nilcyc-42-6 (dim 9, r 4, det C 2)  split at e=[1]  ladder >=3  det 2 = 2 * 1: pass\n"
        "  quot(nilcyc-42-6,[1]) (dim 7, r 3, det C 2)  split at e=[1]  ladder >=3  "
        "det 2 = 1 * 2: pass\n"
        "    quot(quot(nilcyc-42-6,[1]),[1]) (dim 5, r 2, det C 1)  "
        "[derived-simple candidate (idempotent search only)]\n"
        "    corner(quot(nilcyc-42-6,[1]),[1]) (dim 2, r 1, det C 2)  "
        "[derived-simple candidate (idempotent search only)]\n"
        "  corner(nilcyc-42-6,[1]) (dim 1, r 1, det C 1)  "
        "[derived-simple candidate (idempotent search only)]",
        "5ae928d05c10abc3e023c3adad8e99a6ff1e483c0f3995787228b3ac16ae9f22"),
}


def _nilcyc(index):
    return generate(CorpusSpec(seed=42, count=30, shape="NilpotentCyclic"), index)


@pytest.mark.parametrize("index", sorted(NILCYC_TREES))
def test_stratify_search_runs_no_gldim(index, monkeypatch):
    import homkit.recollement as rec

    def boom(a, cutoff):
        raise AssertionError("stratify_search ran a full gldim")

    monkeypatch.setattr(rec, "gldim", boom)
    # each node's Cartan matrix, each split's quotient and each checked
    # subset's corner are built once
    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("cartan_matrix", "quotient_by_idempotent_ideal", "corner",
                 "stratifying_check"):
        monkeypatch.setattr(rec, name, counting(name, getattr(rec, name)))
    tree = stratify_search(_nilcyc(index), 12)
    nodes = tree.splits() + tree.leaves()
    assert calls == {"cartan_matrix": len(nodes),
                     "quotient_by_idempotent_ideal": len(tree.splits()),
                     "corner": calls["stratifying_check"],
                     "stratifying_check": sum(n.attempted for n in nodes)}
    text, digest = NILCYC_TREES[index]
    assert tree.render() == text
    doc = json.dumps(tree.to_json(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_ladder_resolves_simples_only_while_finite(a2, monkeypatch):
    import homkit.invariants as inv
    calls = []
    monkeypatch.setattr(inv, "pd", lambda m, c: calls.append(m) or pd(m, c))
    root = _nilcyc(8)
    quot = quotient_by_idempotent_ideal(root, [2])
    # det C = 2: the determinant answers, no simple is resolved
    assert cartan_matrix(root).det == 2
    lad = ladder_estimate(root, [2], 12)
    assert calls == [] and not lad.gldim_finite
    # det C = 1 with three non-finite simples: stop after the first
    assert cartan_matrix(quot).det == 1 and quot.r == 3
    lad = ladder_estimate(quot, [2], 12)
    assert [m.weights for m in calls] == [[0]] and not lad.gldim_finite
    assert not pd(calls[0], 12).is_finite
    # finite global dimension: every simple is resolved
    calls.clear()
    assert ladder_estimate(a2, [0], 12).gldim_finite
    assert [m.weights for m in calls] == [[0], [1]]


def test_ladder_requires_stratifying(tp11):
    with pytest.raises(ValueError, match="stratifying"):
        ladder_estimate(tp11, [0], 12)


def test_ladder_down_blocked_instance(loc, one_point):
    # triangular(B, k, S) with S the trivial simple B-module: the B-corner
    # idempotent is stratifying (certified from the eA side), the downward
    # corner module B (+) S has certified-infinite pd, the upward one is
    # projective
    T, m = _simple_bimodule(loc, one_point)
    A = triangular(loc, one_point, m)
    strat = stratifying_check(A, [0], 12)
    assert strat.kind == "yes"
    lad = ladder_estimate(A, [0], 12)
    assert lad.down.is_infinite
    assert lad.up.is_finite
    assert lad.height == ">=2 (up)"


def test_height_label_branches():
    fin = PdResult("finite", d=0)
    inf = PdResult("infinite", first_repeat=1, period=1)
    unk = PdResult("unknown", cutoff=12)
    assert height_label(True, inf, inf).startswith(">=4")
    assert height_label(False, fin, fin) == ">=3"
    assert height_label(False, fin, unk) == ">=2"
    assert height_label(False, unk, fin) == ">=2 (up)"
    assert height_label(False, inf, inf) == "1 (blocked both ways)"
    assert height_label(False, inf, unk) == "1 (down-blocked; up undetermined)"
    assert height_label(False, unk, inf) == ">=1 (up-blocked)"
    assert height_label(False, unk, unk) == ">=1"


def test_det_check_a2(a2):
    rep = det_multiplicativity_check(a2, [0], 12)
    assert rep.applicable and rep.passed
    assert (rep.det_a, rep.det_quotient, rep.det_corner) == (1, 1, 1)


def test_det_check_inapplicable_on_non_stratifying(tp11):
    rep = det_multiplicativity_check(tp11, [0], 12)
    assert not rep.applicable
    assert "not stratifying" in rep.reason
    # diagnostic mode still evaluates the identity
    rep2 = det_multiplicativity_check(tp11, [0], 12, diagnostic=True)
    assert rep2.det_a == 0
    assert rep2.passed == (rep2.det_a == rep2.det_quotient * rep2.det_corner)


def test_stratify_search_a2(a2):
    tree = stratify_search(a2, 12)
    assert not tree.is_leaf
    assert tree.split_vertices == [0]
    leaves = tree.leaves()
    assert len(leaves) == 2
    assert all(n.r == 1 for n in leaves)
    prod = 1
    for n in leaves:
        prod *= n.det
    assert prod == tree.det == 1
    assert sum(n.r for n in leaves) == tree.r


def test_stratify_search_leaves(tp11, loc):
    t1 = stratify_search(tp11, 12)
    assert t1.is_leaf
    assert t1.attempted == 2
    assert "candidate" in t1.leaf_label
    t2 = stratify_search(loc, 12)
    assert t2.is_leaf
    assert t2.attempted == 0  # r = 1: no proper nonempty subsets


def test_stratify_search_tri0(tri0):
    tree = stratify_search(tri0, 12)
    assert not tree.is_leaf
    assert tree.det_check.applicable and tree.det_check.passed
    assert tree.ladder.height.startswith(">=4")


def test_stratify_tree_json_and_render(a2):
    tree = stratify_search(a2, 12)
    doc = tree.to_json()
    assert doc["det"] == "1"
    assert "quotient" in doc and "corner" in doc
    text = tree.render()
    assert "split at" in text and "candidate" in text


def test_gorenstein_transfer_trivial(one_point):
    T, m = _simple_bimodule(one_point, one_point)
    rep = gorenstein_transfer_check(one_point, one_point, m, 12)
    assert rep.biconditional_pd_form == "pass"
    assert rep.biconditional_factors_form == "pass"
    assert rep.overall == "pass"


def test_gorenstein_transfer_selfinjective_factors(loc):
    # M = B as a B-B-bimodule: both pd conditions are Finite(0), so A must
    # be Gorenstein and both biconditionals confirm
    T = tensor(opposite(loc), loc)
    from homkit.invariants import _regular_bimodule
    m = _regular_bimodule(loc)
    rep = gorenstein_transfer_check(loc, loc, m, 12)
    assert rep.pd_mb.describe() == "Finite(0)"
    assert rep.pd_mc.describe() == "Finite(0)"
    assert rep.g_a.verdict == "Gorenstein"
    assert rep.biconditional_pd_form == "pass"
    assert rep.biconditional_factors_form == "pass"


def test_gorenstein_transfer_infinite_pd(loc, one_point):
    # the trivial simple B-module has certified-infinite pd over B = k[x]/x^2
    T, m = _simple_bimodule(loc, one_point)
    rep = gorenstein_transfer_check(loc, one_point, m, 12)
    assert rep.pd_mb.is_infinite
    assert rep.g_a.verdict == "NotGorensteinCertified"
    assert rep.biconditional_pd_form == "pass"
    assert rep.biconditional_factors_form.startswith("inapplicable")


def test_smoothness_transfer_trivial(one_point):
    T, m = _simple_bimodule(one_point, one_point)
    rep = smoothness_transfer_check(one_point, one_point, m, 12)
    assert rep.downward == "pass"
    assert rep.upward == "pass"
    assert rep.overall == "pass"


def test_smoothness_transfer_acyclic_factors(a2, one_point):
    T, m = _simple_bimodule(a2, one_point)
    rep = smoothness_transfer_check(a2, one_point, m, 12)
    assert rep.gl_b.is_finite and rep.gl_c.is_finite
    assert rep.downward == "pass" and rep.upward == "pass"


def test_k0_additivity_on_splits(a2, tri0):
    for a in (a2, tri0):
        tree = stratify_search(a, 12)
        for node in tree.splits():
            assert node.quotient_child.r + node.corner_child.r == node.r


def test_tor0_bounds_aea_dimension(a2, tp11):
    # multiplication maps Ae (x) eA onto AeA, so Tor_0 >= dim AeA, with
    # equality exactly in the stratifying cases
    from homkit.modules import tensor_over
    for a, S, stratifies in ((a2, [0], True), (tp11, [0], False)):
        cor = corner(a, S)
        t = tensor_over(module_Ae(a, S, cor), module_eA(a, S, cor)).dim
        d = aea_dimension(a, S)
        assert t >= d
        assert (t == d) == stratifies


def test_ladder_monotone_in_cutoff(a2, loc, one_point):
    # certificates found at a small cutoff never degrade at a larger one
    order = {">=1": 1, ">=2": 2, ">=2 (up)": 2, ">=3": 3}
    lad_small = ladder_estimate(a2, [0], 2)
    lad_big = ladder_estimate(a2, [0], 20)
    assert lad_small.height.startswith(">=4") and lad_big.height.startswith(">=4")
    T, m = _simple_bimodule(loc, one_point)
    A = triangular(loc, one_point, m)
    h_small = ladder_estimate(A, [0], 4).height
    h_big = ladder_estimate(A, [0], 20).height
    assert order.get(h_small, 1) <= order.get(h_big, 4)


def test_injective_dimension_via_dual(loc):
    from homkit.modules import injective_dimension
    res = injective_dimension(regular(loc), 12)
    assert res.describe() == "Finite(0)"  # self-injective


def test_ladder_names_the_dimension_guard():
    # pd of Ae over the local corner at e=[0] (det 3) grows until its cover
    # passes the guard
    doc = stratify_search(_nilcyc(19), 12).to_json()
    assert doc["ladder"]["down_extension"] == "Unknown(dim guard at step 7)"
    assert doc["det_check"] == ("inapplicable (downward extension not established "
                                "(Unknown(dim guard at step 7)))")


@functools.lru_cache(maxsize=None)
def _triples(seed):
    spec = CorpusSpec(seed=seed, count=30, shape="TriangularPair")
    return tuple(generate(spec, i) for i in range(30))


# SHA-256 of the 120 transfer reports below (30 triples x 2 checks x 2
# corpus seeds), recorded while both checks still resolved every simple and
# both sides of A, B and C
TRANSFER_REPORTS_DIGEST = "df018b5a88ff0f9b43e3a324d832e49b9949a8a98830bca93830ad24891187f3"


def _transfer_reports():
    return [check(t.b, t.c, t.m, 12).to_json() for seed in (42, 7) for t in _triples(seed)
            for check in (gorenstein_transfer_check, smoothness_transfer_check)]


def test_transfer_checks_agree_with_full_reports(monkeypatch):
    import homkit.recollement as rec
    reports = _transfer_reports()
    doc = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == TRANSFER_REPORTS_DIGEST
    # the same checks read off the full gldim and gorenstein of A, B and C
    passed = []

    def full(real):
        def wrapper(a, cutoff, **kwargs):
            passed.append(kwargs)
            return real(a, cutoff)
        return wrapper

    monkeypatch.setattr(rec, "gldim", full(gldim))
    monkeypatch.setattr(rec, "gorenstein", full(gorenstein))
    assert _transfer_reports() == reports
    assert passed == [{"verdict_only": True}] * 360


def test_transfer_checks_resolve_only_what_the_verdicts_read(monkeypatch):
    import homkit.invariants as inv
    calls = []

    def counting(m, cutoff):
        res = pd(m, cutoff)
        calls.append((m, res))
        return res

    monkeypatch.setattr(inv, "pd", counting)
    gldim_stops, gorenstein_stops = set(), set()
    for t in _triples(42):
        A = triangular(t.b, t.c, t.m)
        factors = {A.name: ("A", A.r), t.b.name: ("B", t.b.r), t.c.name: ("C", t.c.r)}
        calls.clear()
        smoothness_transfer_check(t.b, t.c, t.m, 12)
        for name, (label, r) in factors.items():
            simples = [(m, res) for m, res in calls if m.algebra.name == name]
            # simples in vertex order, and none after the first infinite one
            assert [m.weights for m, _ in simples] == [[i] for i in range(len(simples))]
            kinds = [res.kind for _, res in simples]
            stop = kinds.index("infinite") + 1 if "infinite" in kinds else r
            assert len(kinds) == stop
            if stop < r:
                gldim_stops.add((t.a.name, label))
        calls.clear()
        gorenstein_transfer_check(t.b, t.c, t.m, 12)
        for name, (label, r) in factors.items():
            # D(A) is resolved over A^op; the left side of A is the right
            # side of A^op, so its injectives are modules over A again
            right = [res for m, res in calls if m.algebra.name == f"op({name})"]
            left = [res for m, res in calls if m.algebra.name == name]
            assert right
            if right[-1].is_infinite:
                assert left == []
                gorenstein_stops.add((t.a.name, label))
            else:
                assert left
    assert ("tri-42-10", "A") in gldim_stops and ("tri-42-0", "A") in gorenstein_stops
    # a verdict-only report presents nothing it did not resolve
    monkeypatch.undo()
    t = _triples(42)[10]
    A = triangular(t.b, t.c, t.m)
    g = gldim(A, 12, verdict_only=True)
    assert A.r == 4 and [p.kind for p in g.per_simple] == ["finite", "finite", "infinite"]
    assert g.describe() == gldim(A, 12).describe()
    t = _triples(42)[0]
    g = gorenstein(triangular(t.b, t.c, t.m), 12, verdict_only=True)
    assert g.verdict == "NotGorensteinCertified" and g.left_id is None
    assert "left_id" not in g.to_json() and g.right_id.is_infinite
