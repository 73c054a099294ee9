"""Acceptance suite.

One test per numbered criterion; every identity is exact (integer or field
equality), so there are no tolerances anywhere.  Each test prints a one-line
PASS summary (visible with ``pytest -s``).  The two corpus-heavy criteria
carry a wall-clock budget of 60 seconds apiece.
"""

import time
from dataclasses import replace

import pytest

from _oracles import (det_cofactor, dense_matmul, identity_matrix, iso_witness_holds,
                      split_witness_holds)
from homkit.algebra import from_quiver, opposite
from homkit.corpus import CorpusSpec, gen_acyclic, gen_nilpotent_cyclic, generate
from homkit.invariants import (cartan_matrix, eilenberg_check, euler_matrix,
                               gldim, gorenstein, two_point_criterion)
from homkit.modules import dual, hom_dim, pd, projective, regular, simple, syzygy
from homkit.presentation import spec_of_fixture
from homkit.recollement import (gorenstein_transfer_check,
                                smoothness_transfer_check, stratify_search)

FIXES = ["FIX-A2", "FIX-TP1(1)", "FIX-TP1(2)", "FIX-TP2", "FIX-LOC", "FIX-TRI0"]
CUTOFF = 12


def _hom_cartan(a):
    """The Cartan matrix from the Hom solver: c_ij = dim Hom(P_i, P_j)."""
    projs = [projective(a, i) for i in range(a.r)]
    return [[hom_dim(p, q) for q in projs] for p in projs]


@pytest.fixture(scope="module")
def fixture_set():
    return {name: from_quiver(spec_of_fixture(name)) for name in FIXES}


@pytest.fixture(scope="module")
def tri_corpus():
    spec = CorpusSpec(seed=42, count=50, shape="TriangularPair")
    return [generate(spec, i) for i in range(spec.count)]


@pytest.fixture(scope="module")
def nilcyc_corpus():
    spec = CorpusSpec(seed=42, count=30, shape="NilpotentCyclic")
    return [gen_nilpotent_cyclic(spec, i) for i in range(spec.count)]


@pytest.fixture(scope="module")
def nilcyc_trees(nilcyc_corpus):
    return [stratify_search(a, CUTOFF) for a in nilcyc_corpus]


@pytest.fixture(scope="module")
def fixture_trees(fixture_set):
    return {name: stratify_search(a, CUTOFF) for name, a in fixture_set.items()}


def test_criterion_1_det_multiplicativity_triangular(tri_corpus):
    t0 = time.monotonic()
    passes = 0
    for inst in tri_corpus:
        assert inst.a.dim <= 60
        da = cartan_matrix(inst.a).det
        db = cartan_matrix(inst.b).det
        dc = cartan_matrix(inst.c).det
        assert da == db * dc, inst.a.name
        passes += 1
    elapsed = time.monotonic() - t0
    assert passes == 50
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: det C(A) = det C(B)*det C(C) on 50/50 "
          f"triangular instances in {elapsed:.1f}s")


def test_criterion_1_hom_cartan_oracle_triangular(tri_corpus):
    # the same identity, with the Cartan matrices counted by the Hom solver
    # and the determinants taken by cofactor expansion, so neither
    # cartan_matrix nor det_int decides it
    t0 = time.monotonic()
    for inst in tri_corpus:
        dets = []
        for x in (inst.a, inst.b, inst.c):
            c = _hom_cartan(x)
            assert c == cartan_matrix(x).matrix.data, x.name
            dets.append(det_cofactor(c))
        assert dets[0] == dets[1] * dets[2], inst.a.name
    elapsed = time.monotonic() - t0
    assert len(tri_corpus) == 50
    print(f"\nACCEPTANCE 1 (Hom oracle) PASS: C_hom = C and det C_hom(A) = "
          f"det C_hom(B)*det C_hom(C) on 50/50 triangular instances in {elapsed:.1f}s")


def test_criterion_2_det_multiplicativity_stratifying(fixture_trees, nilcyc_trees):
    checked = 0
    full_trees = 0
    trees = list(fixture_trees.values()) + nilcyc_trees
    for tree in trees:
        splits = tree.splits()
        all_established = bool(splits)
        for node in splits:
            if node.det_check.applicable:
                assert node.det_check.passed
                checked += 1
            else:
                all_established = False
        if splits and all_established:
            prod = 1
            for leaf in tree.leaves():
                prod *= leaf.det
            assert prod == tree.det
            full_trees += 1
    print(f"\nACCEPTANCE 2 PASS: determinant identity on {checked} established "
          f"splits; leaf-product identity on {full_trees} fully-extended trees")


def test_criterion_3_k0_additivity(fixture_trees, nilcyc_trees):
    splits = 0
    for tree in list(fixture_trees.values()) + nilcyc_trees:
        for node in tree.splits():
            assert node.quotient_child.algebra.r + node.corner_child.algebra.r == node.algebra.r
            splits += 1
    print(f"\nACCEPTANCE 3 PASS: K0 additivity r = r' + r'' on {splits}/{splits} splits")


def test_criterion_4_eilenberg_acyclic_corpus():
    spec = CorpusSpec(seed=42, count=50, shape="AcyclicQuiver")
    t0 = time.monotonic()
    plus_one = 0
    for i in range(spec.count):
        a = gen_acyclic(spec, i)
        rep = eilenberg_check(a, CUTOFF)  # raises TheoremViolation on |det| != 1
        assert rep.applicable, f"instance {i} has undetermined gldim"
        assert rep.det in (1, -1)
        if rep.det == 1:
            plus_one += 1
    elapsed = time.monotonic() - t0
    assert plus_one == 50, f"determinant conjecture tally {plus_one}/50"
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: 50/50 acyclic instances with finite gldim, "
          f"det = +1 on {plus_one}/50, in {elapsed:.1f}s")


def test_criterion_5_two_point_fixtures(fixture_set):
    expected = {
        "FIX-TP1(1)": [[1, 1], [1, 1]],
        "FIX-TP1(2)": [[2, 2], [2, 2]],
        "FIX-TP2": [[2, 2], [2, 2]],
    }
    for name, mat in expected.items():
        a = fixture_set[name]
        rep = cartan_matrix(a)
        assert rep.matrix.data == mat, name
        assert rep.det == 0
        tp = two_point_criterion(a)
        assert tp.applicable and tp.flagged, name
    print("\nACCEPTANCE 5 PASS: two-point fixtures have the frozen Cartan "
          "matrices, det 0, and the derived-simplicity flag")


@pytest.fixture(scope="module")
def transfer_corpus():
    spec = CorpusSpec(seed=42, count=30, shape="TriangularPair")
    return [generate(spec, i) for i in range(30)]


def test_criterion_6_gorenstein_transfer(transfer_corpus):
    undetermined = 0
    for inst in transfer_corpus:
        rep = gorenstein_transfer_check(inst.b, inst.c, inst.m, CUTOFF)
        # a certified disagreement raises TheoremViolation inside the check
        if rep.overall == "undetermined":
            undetermined += 1
    rate = undetermined / len(transfer_corpus)
    print(f"\nACCEPTANCE 6 PASS: Gorenstein transfer on 30 instances, zero "
          f"certified failures, undetermined rate {rate:.0%}")


def test_criterion_7_smoothness_transfer(transfer_corpus):
    undetermined = 0
    for inst in transfer_corpus:
        rep = smoothness_transfer_check(inst.b, inst.c, inst.m, CUTOFF)
        if rep.overall == "undetermined":
            undetermined += 1
    rate = undetermined / len(transfer_corpus)
    print(f"\nACCEPTANCE 7 PASS: smoothness transfer on 30 instances, zero "
          f"certified failures, undetermined rate {rate:.0%}")


def test_criterion_8_cartan_oracle_equivalence(fixture_set):
    acyclic = CorpusSpec(seed=8, count=20, shape="AcyclicQuiver")
    nilcyc = CorpusSpec(seed=8, count=15, shape="NilpotentCyclic")
    tri = CorpusSpec(seed=8, count=15, shape="TriangularPair")
    algebras = list(fixture_set.values())
    algebras += [gen_acyclic(acyclic, i) for i in range(20)]
    algebras += [gen_nilpotent_cyclic(nilcyc, i) for i in range(15)]
    algebras += [generate(tri, i).a for i in range(15)]
    pairs = 0
    for a in algebras:
        assert cartan_matrix(a).matrix.data == _hom_cartan(a), a.name
        pairs += a.r * a.r
    print(f"\nACCEPTANCE 8 PASS: corner counting = Hom-solver dimension on "
          f"{pairs} (i,j) pairs across {len(algebras)} algebras")


def test_criterion_9_euler_cartan_inverse(fixture_set):
    # convention pinned on the two-vertex one-arrow algebra
    a2 = fixture_set["FIX-A2"]
    E = euler_matrix(a2, CUTOFF)
    assert E.data == [[1, -1], [0, 1]]
    spec = CorpusSpec(seed=9, count=25, shape="AcyclicQuiver")
    algebras = list(fixture_set.values()) + [gen_acyclic(spec, i) for i in range(25)]
    checked = 0
    for a in algebras:
        if not gldim(a, CUTOFF).is_finite:
            continue
        E = euler_matrix(a, CUTOFF)
        C = cartan_matrix(a).matrix
        assert dense_matmul(E.data, C.transpose().data) == identity_matrix(a.r), a.name
        checked += 1
    assert checked >= 26  # every acyclic instance plus the finite-gldim fixtures
    print(f"\nACCEPTANCE 9 PASS: E * C^T = I exactly on {checked} finite-gldim "
          f"instances (convention pinned on the one-arrow fixture)")


def test_criterion_10_structural_invariants(fixture_set, tri_corpus, nilcyc_corpus):
    algebras = list(fixture_set.values()) + [i.a for i in tri_corpus] + nilcyc_corpus
    for a in algebras:
        rep = cartan_matrix(a)
        assert sum(x for row in rep.matrix.data for x in row) == a.dim, a.name
        assert cartan_matrix(opposite(a)).matrix == rep.matrix.transpose(), a.name
    sym_checked = 0
    small = list(fixture_set.values())
    small += [x for inst in tri_corpus[:10] for x in (inst.b, inst.c)]
    for a in small:
        g = gorenstein(a, CUTOFF)
        gop = gorenstein(opposite(a), CUTOFF)
        assert g.verdict == gop.verdict, a.name
        assert g.right_id.describe() == gop.left_id.describe(), a.name
        assert g.left_id.describe() == gop.right_id.describe(), a.name
        sym_checked += 1
    print(f"\nACCEPTANCE 10 PASS: C(A^op) = C(A)^T and sum c_ij = dim A on "
          f"{len(algebras)} algebras; Gorenstein op-symmetry on {sym_checked}")


def _gorenstein_by_gldim_holds(a, rep):
    """True iff a Gorenstein report read off the global dimension holds: its
    ``GldimReport`` has one Finite(d) per simple, each re-verified by
    literal syzygies (the d-th is non-zero and the (d+1)-st is zero), and
    the largest d is the value and both self-injective dimensions."""
    g = rep.gldim_report
    if rep.verdict != "Gorenstein" or len(g.per_simple) != a.r:
        return False
    for i, res in enumerate(g.per_simple):
        if not res.is_finite:
            return False
        cur = simple(a, i)
        for _ in range(res.d):
            cur = syzygy(cur)
        if cur.dim == 0 or syzygy(cur).dim != 0:
            return False
    d = max(res.d for res in g.per_simple)
    return (g.value == d and rep.right_id.is_finite and rep.left_id.is_finite
            and rep.right_id.d == rep.left_id.d == d)


def test_criterion_11_certificate_soundness(fixture_set, nilcyc_corpus, transfer_corpus):
    results = []
    for a in list(fixture_set.values()) + nilcyc_corpus[:10]:
        for i in range(a.r):
            results.append((simple(a, i), pd(simple(a, i), CUTOFF)))
        da = dual(regular(a))
        results.append((da, pd(da, CUTOFF)))
    finite = infinite = split = unknown = 0
    for mod, res in results:
        if res.is_finite:
            finite += 1
            assert res.syzygy_dims[-1] == 0
            # literal re-computation of the zero syzygy
            cur = mod
            for _ in range(res.d + 1):
                cur = syzygy(cur)
            assert cur.dim == 0
            if res.d >= 0 and mod.dim:
                prev = mod
                for _ in range(res.d):
                    prev = syzygy(prev)
                assert prev.dim > 0 or res.d == 0
        elif res.is_infinite:
            infinite += 1
            m, n = res.witness_modules
            assert (m.dim, n.dim) == (res.syzygy_dims[res.first_repeat - res.period],
                                      res.syzygy_dims[res.first_repeat])
            # by dense products that share no code with homkit: both maps
            # intertwine and the inclusion followed by the retraction is
            # the identity; between equal dimensions that is an iso
            w = res.witness
            assert split_witness_holds(m, n, w.inclusion, w.retraction)
            if m.dim < n.dim:
                split += 1
            else:
                assert iso_witness_holds(m, n, w.inclusion, w.retraction)
        else:
            # Unknown carries no certificate (e.g. the two-point loop fixture,
            # whose syzygy dimensions grow without any repeat)
            unknown += 1
    assert finite > 0 and infinite > split > 0
    # Gorenstein verdicts read off a finite global dimension, and the same
    # reports with a tampered d: of one simple, or of one side
    by_gldim = 0
    for a in [*fixture_set.values(), *nilcyc_corpus,
              *(x for inst in transfer_corpus for x in (inst.a, inst.b, inst.c))]:
        rep = gorenstein(a, CUTOFF)
        if rep.gldim_report is None:
            continue
        by_gldim += 1
        assert _gorenstein_by_gldim_holds(a, rep), a.name
        g = rep.gldim_report
        first = replace(g.per_simple[0], d=g.per_simple[0].d + 1)
        tampered = [replace(rep, gldim_report=replace(g, per_simple=[first, *g.per_simple[1:]])),
                    replace(rep, right_id=replace(rep.right_id, d=rep.right_id.d + 1)),
                    replace(rep, left_id=replace(rep.left_id, d=rep.left_id.d + 1))]
        for bad in tampered:
            assert not _gorenstein_by_gldim_holds(a, bad), a.name
    assert by_gldim >= 7
    print(f"\nACCEPTANCE 11 PASS: {finite} Finite certificates re-verified by "
          f"literal zero syzygies, {infinite} InfiniteCertified witnesses "
          f"({split} of them split summands) re-verified by matrix multiplication "
          f"(100% of certificates; {unknown} Unknown results carry none); "
          f"{by_gldim} Gorenstein-by-gldim reports re-verified simple by simple, "
          f"each with three tampered copies rejected")
