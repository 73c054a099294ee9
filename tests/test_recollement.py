import collections
import functools
import hashlib
import itertools
import json
from types import SimpleNamespace

import pytest

import homkit.algebra as algebra_mod
import homkit.modules as modules_mod
from homkit.algebra import (_tensor_basis, _triangular, corner, from_quiver, opposite,
                            quotient_by_idempotent_ideal, tensor, triangular, validate)
from homkit.corpus import CorpusSpec, generate
from homkit.invariants import TheoremViolation, cartan_matrix, gldim, gorenstein
from _oracles import algebra_map_holds, module_tensor_dim, restrict_along
from homkit.linalg import _vecmat, inverse
from homkit.modules import (Module, PdResult, adapt_weights,
                            bimodule_from_json, bimodule_restrictions, dual, hom_dim,
                            injective, module_from_json, module_to_json, pd, regular)
from homkit.presentation import parse_spec
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
    action = [{0: {0: F.one}} if t == 0 else {} for t in range(T.dim)]
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
    # one-sided error: Yes is given only on a terminating resolution,
    # No always has a dimension mismatch or an explicit Tor degree
    yes = stratifying_check(a2, [0], 12)
    assert yes.kind == "yes"
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
    # A2: pd(Ae) is finite, so the check resolves only Ae and the ladder
    # adds eA; A: the check needed both; either way each is resolved once
    for alg, in_check in ((a2, 1), (A, 2)):
        calls = []
        monkeypatch.setattr(rec, "pd", lambda m, c: calls.append(m) or pd(m, c))
        strat = stratifying_check(alg, [0], 12)
        assert len(calls) == in_check
        lad = ladder_estimate(alg, [0], 12)
        monkeypatch.undo()
        assert len(calls) == in_check + 2
        assert calls[in_check:] == [module_Ae(alg, [0], strat.corner),
                                    module_eA(alg, [0], strat.corner)]
        assert lad.down == strat.pd_Ae


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
    # one determinant per algebra of the tree, and each split's quotient and
    # each checked subset's corner are built once
    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("quotient_by_idempotent_ideal", "corner", "stratifying_check"):
        monkeypatch.setattr(rec, name, counting(name, getattr(rec, name)))
    monkeypatch.setattr(algebra_mod, "det_int", counting("det_int", algebra_mod.det_int))
    tree = stratify_search(_nilcyc(index), 12)
    tree.to_json()
    nodes = tree.splits() + tree.leaves()
    assert calls == {"det_int": len(nodes),
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
    assert height_label(False, fin, inf) == ">=2"
    assert height_label(False, inf, fin) == ">=2 (up)"


# nilcyc-7-16 of the seed-7 NilpotentCyclic corpus, written as a presentation
NILCYC_7_16_QA = """field F101
quiver { vertices: 1, 2  arrows: c0: 2 -> 1, c1: 2 -> 1, c2: 2 -> 2 }
relations { c2*c0, c2*c1, c2*c2 }
"""


@pytest.mark.parametrize("source", ["corpus", "qa"])
def test_height_3_split_of_nilcyc_7_16_does_not_carry_gorenstein(source):
    # A = kQ/J^2 with two arrows into a sink and a loop at the other vertex;
    # e is the sink, so eAe = k and A/AeA = k[x]/x^2, both self-injective.
    # Both corner pds are 0, so the label reads >=3, yet id A_A is infinite:
    # the label reads no pd over A/AeA and does not certify the transfer
    if source == "corpus":
        a = generate(CorpusSpec(seed=7, count=30, shape="NilpotentCyclic"), 16)
    else:
        a = from_quiver(parse_spec(NILCYC_7_16_QA, name="nilcyc-7-16"))
    assert (a.name, a.dim, a.r) == ("nilcyc-7-16", 5, 2)
    tree = stratify_search(a, 12)
    assert tree.split_vertices == [0]
    assert (tree.ladder.height, tree.ladder.gldim_finite) == (">=3", False)
    assert (tree.ladder.down.kind, tree.ladder.up.kind) == ("finite", "finite")
    assert gorenstein(a, 12).verdict == "NotGorensteinCertified"
    for piece in (tree.quotient_child, tree.corner_child):
        assert piece.is_leaf
        assert gorenstein(piece.algebra, 12).describe() == "Gorenstein(0,0)"


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
    assert all(n.algebra.r == 1 for n in leaves)
    prod = 1
    for n in leaves:
        prod *= n.det
    assert prod == tree.det == 1
    assert sum(n.algebra.r for n in leaves) == tree.algebra.r


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
    assert rep.outcomes["pd_form"] == "pass"
    assert rep.outcomes["factors_form"] == "pass"
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
    assert rep.parts[0].verdict == "Gorenstein"
    assert rep.outcomes["pd_form"] == "pass"
    assert rep.outcomes["factors_form"] == "pass"


def test_gorenstein_transfer_infinite_pd(loc, one_point):
    # the trivial simple B-module has certified-infinite pd over B = k[x]/x^2
    T, m = _simple_bimodule(loc, one_point)
    rep = gorenstein_transfer_check(loc, one_point, m, 12)
    assert rep.pd_mb.is_infinite
    assert rep.parts[0].verdict == "NotGorensteinCertified"
    assert rep.outcomes["pd_form"] == "pass"
    assert rep.outcomes["factors_form"].startswith("inapplicable")


def test_smoothness_transfer_trivial(one_point):
    T, m = _simple_bimodule(one_point, one_point)
    rep = smoothness_transfer_check(one_point, one_point, m, 12)
    assert rep.outcomes["downward"] == "pass"
    assert rep.outcomes["upward"] == "pass"
    assert rep.overall == "pass"


def test_smoothness_transfer_acyclic_factors(a2, one_point):
    T, m = _simple_bimodule(a2, one_point)
    rep = smoothness_transfer_check(a2, one_point, m, 12)
    assert rep.parts[1].is_finite and rep.parts[2].is_finite
    assert rep.outcomes["downward"] == "pass" and rep.outcomes["upward"] == "pass"


_TRUTH = {"finite": True, "infinite": False, "unknown": None}
_GORENSTEIN_VERDICT = {"finite": "Gorenstein", "infinite": "NotGorensteinCertified",
                       "unknown": "Unknown"}


def _and(*xs):
    """Kleene conjunction: False wins, then None."""
    return False if False in xs else None if None in xs else True


def _or(*xs):
    return True if True in xs else None if None in xs else False


def _same(x, y):
    if x is None or y is None:
        return "undetermined"
    return "pass" if x == y else "fail"


def _gorenstein_oracle(a, b, c, pb, pc):
    """(pd_form, factors_form), or the label of the first form that fails:
    with B and C Gorenstein, A is Gorenstein iff both pds are finite; with
    both pds finite, A is Gorenstein iff B and C are."""
    bc, pds = _and(b, c), _and(pb, pc)
    pd_form = {True: _same(a, pds), None: "undetermined",
               False: "inapplicable (B or C certified not Gorenstein)"}[bc]
    factors_form = {True: _same(a, bc), None: "undetermined",
                    False: "inapplicable (a pd condition is certified infinite)"}[pds]
    for label, outcome in (("pd-form", pd_form), ("factors-form", factors_form)):
        if outcome == "fail":
            return label
    return pd_form, factors_form


def _smoothness_oracle(a, b, c, pb, pc):
    """(downward, upward), or the direction that fails: A smooth implies B
    and C smooth; B and C smooth and one pd finite imply A smooth."""
    if a is True and _and(b, c) is False:
        return "downward"
    downward = {True: "pass" if _and(b, c) else "undetermined", None: "undetermined",
                False: "inapplicable (A not smooth)"}[a]
    premise = _and(b, c, _or(pb, pc))
    if premise is True:
        if a is False:
            return "upward"
        upward = "pass" if a else "undetermined"
    elif premise is None:
        upward = "undetermined"
    elif _and(b, c) is False:
        upward = "inapplicable (B or C not smooth)"
    else:
        upward = "inapplicable (both pd conditions certified infinite)"
    return downward, upward


@pytest.mark.parametrize("check, oracle, forms", [
    (gorenstein_transfer_check, _gorenstein_oracle,
     ("pd_form", "factors_form")),
    (smoothness_transfer_check, _smoothness_oracle, ("downward", "upward")),
], ids=["gorenstein", "smoothness"])
def test_transfer_checks_match_the_branch_table(monkeypatch, check, oracle, forms):
    # every kind of A, B, C, pd M_B and pd _CM, against a three-valued
    # oracle; the reports carry both the verdict text and the kind
    import homkit.recollement as rec

    def report(kind):
        return SimpleNamespace(kind=kind, verdict=_GORENSTEIN_VERDICT[kind])

    def pd_result(kind):
        return SimpleNamespace(kind=kind, is_finite=kind == "finite",
                               is_infinite=kind == "infinite", describe=lambda: kind)

    kinds = list(_TRUTH)
    for combo in itertools.product(kinds, repeat=5):
        ka, kb, kc, kpb, kpc = combo
        inputs = (SimpleNamespace(name="A"), [report(k) for k in (ka, kb, kc)],
                  pd_result(kpb), pd_result(kpc))
        monkeypatch.setattr(rec, "_transfer_inputs", lambda *args: inputs)
        expected = oracle(*(_TRUTH[k] for k in combo))
        if isinstance(expected, str):
            with pytest.raises(TheoremViolation, match=expected):
                check(None, None, None, 12)
            continue
        rep = check(None, None, None, 12)
        assert tuple(rep.outcomes[f] for f in forms) == expected, combo
        overall = ("undetermined" if "undetermined" in expected
                   else "pass" if "pass" in expected else "vacuous")
        assert rep.overall == overall, combo


def test_k0_additivity_on_splits(a2, tri0):
    for a in (a2, tri0):
        tree = stratify_search(a, 12)
        for node in tree.splits():
            assert node.quotient_child.algebra.r + node.corner_child.algebra.r == node.algebra.r


def test_tor0_bounds_aea_dimension(a2, tp11):
    # multiplication maps Ae (x) eA onto AeA, so Tor_0 >= dim AeA, with
    # equality exactly in the stratifying cases
    for a, S, stratifies in ((a2, [0], True), (tp11, [0], False)):
        cor = corner(a, S)
        Ae, eA = module_Ae(a, S, cor), module_eA(a, S, cor)
        t = hom_dim(Ae, dual(eA))
        assert t == module_tensor_dim(Ae, eA)
        d = aea_dimension(a, S)
        assert t >= d
        assert (t == d) == stratifies


def test_tensor_dim_matches_the_balanced_tensor_oracle(fixture_algebras, seed42_pools):
    # dim Ae (x)_{eAe} eA three ways: the Hom system against D(eA) and, in
    # reverse, against D(Ae), and the stratifying check's own reading, each
    # against the oracle's quotient of the pure tensors
    pairs = 0
    for a in [*fixture_algebras.values(), *seed42_pools["NilpotentCyclic"]]:
        for k in range(1, a.r):
            for S in map(list, itertools.combinations(range(a.r), k)):
                cor = corner(a, S)
                Ae, eA = module_Ae(a, S, cor), module_eA(a, S, cor)
                want = module_tensor_dim(Ae, eA)
                assert hom_dim(Ae, dual(eA)) == want, (a.name, S)
                assert hom_dim(eA, dual(Ae)) == want, (a.name, S)
                assert stratifying_check(a, S, 12).tensor_dim == want, (a.name, S)
                pairs += 1
    assert pairs == 642


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


def test_ladder_names_the_dimension_guard(monkeypatch):
    # pd of Ae over the local corner at e=[0] (det 3) grows, and its syzygy
    # 1 splits off syzygy 2; without that test its cover would pass the
    # guard at step 8
    doc = stratify_search(_nilcyc(19), 12).to_json()
    assert doc["ladder"]["down_extension"] == "InfiniteCertified(summand repeat at 2, period 1)"
    assert doc["det_check"] == ("inapplicable (downward extension not established "
                                "(InfiniteCertified(summand repeat at 2, period 1)))")
    # a guard that the cover of syzygy 2 passes stops it first, and says so
    monkeypatch.setattr(modules_mod, "DIM_GUARD", 16)
    doc = stratify_search(_nilcyc(19), 12).to_json()
    assert doc["ladder"]["down_extension"] == "Unknown(dim guard at step 2)"
    assert doc["det_check"] == ("inapplicable (downward extension not established "
                                "(Unknown(dim guard at step 2)))")


@functools.lru_cache(maxsize=None)
def _triples(seed):
    spec = CorpusSpec(seed=seed, count=30, shape="TriangularPair")
    return tuple(generate(spec, i) for i in range(30))


def test_bimodule_sides_are_the_restrictions_along_checked_maps():
    # bimodule_restrictions and triangular sum the side actions directly;
    # the oracle gets there through the two maps B -> T and C^op -> T,
    # checks on plain lists that they are algebra maps, and restricts the
    # dense action, which adapt_weights then puts in a weight-adapted basis
    def sparse(mats):
        return [{s: {t: v for t, v in enumerate(row) if v}
                 for s, row in enumerate(mat) if any(row)} for mat in mats]

    for inst in _triples(42):
        b, c, m = inst.b, inst.c, inst.m
        T = m.algebra
        pidx = {p: k for k, p in enumerate(_tensor_basis(opposite(c), b)[0])}

        def dense(coords):
            return [coords.get(t, 0) for t in range(T.dim)]

        right = [dense({pidx[(i, y)]: 1 for i in range(c.r)}) for y in range(b.dim)]
        left = [dense({pidx[(x, j)]: 1 for j in range(b.r)}) for x in range(c.dim)]
        assert algebra_map_holds(b, T, right), inst.a.name
        assert algebra_map_holds(opposite(c), T, left), inst.a.name
        oracle = (adapt_weights(b, m.dim, sparse(restrict_along(right, m))),
                  adapt_weights(opposite(c), m.dim, sparse(restrict_along(left, m))))
        assert bimodule_restrictions(b, c, m) == oracle, inst.a.name
        assert validate(triangular(b, c, m)).ok, inst.a.name


# SHA-256 of the 120 transfer reports below (30 triples x 2 checks x 2
# corpus seeds), recorded while both checks still resolved every simple and
# both sides of A, B and C, and re-recorded when the dimension guard went
# from 512 to 1024: then only tri-42-14's gorenstein-transfer report changed,
# A from Unknown to Gorenstein and pd_form, factors_form and overall from
# undetermined to pass
TRANSFER_REPORTS_DIGEST = "104660fb24d86f62e34ddaeff30b79a27a1511e5ca54ecb7f5d5505164dc231b"


def _transfer_reports(bimodule=lambda t: t.m, seeds=(42, 7)):
    return [check(t.b, t.c, bimodule(t), 12).to_json() for seed in seeds for t in _triples(seed)
            for check in (gorenstein_transfer_check, smoothness_transfer_check)]


def _file_doc(m):
    """m as the homkit-module/1 document of a file that references T."""
    return json.loads(json.dumps(module_to_json(m, algebra_ref="tensor(op(C),B)")))


def test_side_actions_read_off_the_file_are_those_of_the_module():
    # bimodule_from_json reads M_B and _CM off the document by its side
    # actions, with no T; they are the restrictions of the module over T that
    # module_from_json reads, so A is equal too, and the 120 reports read off
    # them are those of TRANSFER_REPORTS_DIGEST
    sides = {}
    for seed in (42, 7):
        for t in _triples(seed):
            doc = _file_doc(t.m)
            m = module_from_json(doc, tensor(opposite(t.c), t.b))
            got = sides[t.a.name] = bimodule_from_json(doc, t.b, t.c)
            assert got == bimodule_restrictions(t.b, t.c, m), t.a.name
            assert _triangular(t.b, t.c, *got) == triangular(t.b, t.c, m), t.a.name
    doc = json.dumps(_transfer_reports(lambda t: sides[t.a.name]), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == TRANSFER_REPORTS_DIGEST


def test_side_actions_read_off_a_basis_not_adapted_to_the_idempotents(monkeypatch):
    # M written in the basis b_s + b_(s+1) (b_s for the last s): its idempotent
    # projectors are no longer diagonal, so the reader changes the basis as
    # adapt_weights does, through the same code, and the reports are unchanged
    changed = []
    real = modules_mod._weight_basis

    def recording(*args):
        weights, change = real(*args)
        changed.append(change is not None)
        return weights, change

    monkeypatch.setattr(modules_mod, "_weight_basis", recording)
    sides = {}
    for t in _triples(42):
        F, d = t.m.field, t.m.dim
        mix = [{s: F.one, s + 1: F.one} if s + 1 < d else {s: F.one} for s in range(d)]
        unmix = dict(enumerate(inverse(F, mix, d)))
        mats = [{s: row for s, v in enumerate(mix)
                 if (row := _vecmat(F, _vecmat(F, v, mat), unmix))}
                for mat in t.m.action]
        # module_to_json writes the matrices only, so the weights do not matter
        doc = _file_doc(Module(t.m.algebra, d, mats, t.m.weights))
        changed.clear()
        got = sides[t.a.name] = bimodule_from_json(doc, t.b, t.c)
        assert changed == [d > 1 and len(set(t.m.weights)) > 1], t.a.name
        m = module_from_json(doc, tensor(opposite(t.c), t.b))
        assert got == bimodule_restrictions(t.b, t.c, m), t.a.name
    assert _transfer_reports(lambda t: sides[t.a.name], (42,)) == _transfer_reports(seeds=(42,))


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
    injectives = {}  # id -> module, for every D(e_i A) that invariants builds

    def counting(m, cutoff):
        res = pd(m, cutoff)
        calls.append((m, res))
        return res

    def tagging(a, i):
        out = injective(a, i)
        injectives[id(out)] = out
        return out

    monkeypatch.setattr(inv, "pd", counting)
    monkeypatch.setattr(inv, "injective", tagging)
    gldim_stops, gorenstein_stops, gldim_answers = set(), set(), set()
    for t in _triples(42):
        A = triangular(t.b, t.c, t.m)
        factors = {A.name: ("A", A.r), t.b.name: ("B", t.b.r), t.c.name: ("C", t.c.r)}
        calls.clear()
        smoothness_transfer_check(t.b, t.c, t.m, 12)
        finite_gldim = set()
        for name, (label, r) in factors.items():
            simples = [(m, res) for m, res in calls if m.algebra.name == name]
            # simples in vertex order, and none after the first infinite one
            assert [m.weights for m, _ in simples] == [[i] for i in range(len(simples))]
            kinds = [res.kind for _, res in simples]
            stop = kinds.index("infinite") + 1 if "infinite" in kinds else r
            assert len(kinds) == stop
            if stop < r:
                gldim_stops.add((t.a.name, label))
            if kinds == ["finite"] * r:
                finite_gldim.add(name)
        calls.clear()
        injectives.clear()
        rep = gorenstein_transfer_check(t.b, t.c, t.m, 12)
        for (name, (label, r)), g in zip(factors.items(), rep.parts):
            # D(A) is resolved over A^op; the left side of A is the right
            # side of A^op, so its injectives are modules over A again
            right = [res for m, res in calls if m.algebra.name == f"op({name})"]
            left = [res for m, res in calls
                    if m.algebra.name == name and id(m) in injectives]
            simples = [res for m, res in calls
                       if m.algebra.name == name and id(m) not in injectives]
            assert (g.gldim_report is not None) == (name in finite_gldim), (t.a.name, label)
            if name in finite_gldim:
                # a finite global dimension answers: every simple is
                # resolved to Finite, and no injective on either side
                assert [res.kind for res in simples] == ["finite"] * r
                assert right == [] and left == []
                gldim_answers.add((t.a.name, label))
                continue
            # in this pool det C = +-1 only where the global dimension is
            # finite, so the det gate resolves no simple of the others
            assert simples == []
            assert right
            if right[-1].is_infinite:
                assert left == []
                gorenstein_stops.add((t.a.name, label))
            else:
                assert left
    assert ("tri-42-10", "A") in gldim_stops and ("tri-42-0", "A") in gorenstein_stops
    assert ("tri-42-7", "B") in gldim_answers
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
