import pytest

from homkit.algebra import validate
from homkit.corpus import (MAX_VERTICES, CorpusSpec, gen_acyclic, gen_nilpotent_cyclic,
                           gen_triangular_pair, generate)
from homkit.invariants import cartan_matrix, gldim


def test_corpus_spec_bounds():
    with pytest.raises(ValueError):
        CorpusSpec(seed=1, count=5, shape="Nope")
    with pytest.raises(ValueError):
        CorpusSpec(seed=1, count=5, shape="AcyclicQuiver", dim_bound=100)
    # below the smallest algebra a shape can build, generation would never end
    for shape, low in (("AcyclicQuiver", 3), ("NilpotentCyclic", 2), ("TriangularPair", 5)):
        with pytest.raises(ValueError, match=f"{low}..60 for {shape}"):
            CorpusSpec(seed=1, count=5, shape=shape, dim_bound=low - 1)
        CorpusSpec(seed=1, count=5, shape=shape, dim_bound=low)


def test_generation_is_deterministic():
    spec = CorpusSpec(seed=7, count=3, shape="AcyclicQuiver")
    a1 = gen_acyclic(spec, 1)
    a2 = gen_acyclic(spec, 1)
    assert a1 == a2
    spec_t = CorpusSpec(seed=7, count=3, shape="TriangularPair")
    t1 = gen_triangular_pair(spec_t, 2)
    t2 = gen_triangular_pair(spec_t, 2)
    assert t1.a == t2.a and t1.m.action == t2.m.action


def test_instances_depend_on_index_and_seed():
    spec = CorpusSpec(seed=7, count=3, shape="AcyclicQuiver")
    assert gen_acyclic(spec, 0) != gen_acyclic(spec, 1) or \
        gen_acyclic(spec, 0).dim != gen_acyclic(spec, 2).dim
    other = CorpusSpec(seed=8, count=3, shape="AcyclicQuiver")
    assert any(gen_acyclic(spec, i) != gen_acyclic(other, i) for i in range(3))


def test_acyclic_instances_validate_and_have_finite_gldim():
    spec = CorpusSpec(seed=11, count=6, shape="AcyclicQuiver")
    for i in range(6):
        a = gen_acyclic(spec, i)
        assert a.dim <= spec.dim_bound
        assert a.r <= MAX_VERTICES
        assert validate(a).ok, i
        assert gldim(a, 12).is_finite, i


def test_nilpotent_cyclic_instances():
    spec = CorpusSpec(seed=11, count=6, shape="NilpotentCyclic")
    for i in range(6):
        a = gen_nilpotent_cyclic(spec, i)
        assert validate(a).ok
        assert a.dim <= spec.dim_bound
        # the arrow ideal is nilpotent of index <= L <= 3
        assert validate(a).nilpotency_index <= 3


def test_triangular_pair_instances():
    spec = CorpusSpec(seed=11, count=4, shape="TriangularPair")
    for i in range(4):
        inst = generate(spec, i)
        assert inst.a.dim == inst.b.dim + inst.c.dim + inst.m.dim
        assert inst.a.dim <= spec.dim_bound
        assert validate(inst.a).ok, i
        assert inst.a.r == inst.b.r + inst.c.r
        ca, cb, cc = (cartan_matrix(x).det for x in (inst.a, inst.b, inst.c))
        assert ca == cb * cc


def test_triangular_cartan_block_structure():
    spec = CorpusSpec(seed=3, count=2, shape="TriangularPair")
    for i in range(2):
        inst = generate(spec, i)
        C = cartan_matrix(inst.a).matrix.data
        CB = cartan_matrix(inst.b).matrix.data
        CC = cartan_matrix(inst.c).matrix.data
        rb = inst.b.r
        for x in range(rb):
            for y in range(rb):
                assert C[x][y] == CB[x][y]
        for x in range(inst.c.r):
            for y in range(inst.c.r):
                assert C[rb + x][rb + y] == CC[x][y]
        # lower-left block (left tag in B, right tag in C) is zero
        for x in range(inst.c.r):
            for y in range(rb):
                assert C[rb + x][y] == 0


def test_corpus_over_q():
    spec = CorpusSpec(seed=5, count=2, shape="TriangularPair", field_name="Q")
    inst = generate(spec, 0)
    assert inst.a.field.p is None
    assert validate(inst.a).ok


def test_count_zero_empty_report():
    from homkit.cli import run_corpus
    spec = CorpusSpec(seed=5, count=0, shape="AcyclicQuiver")
    rep = run_corpus(spec, 12)
    assert rep["instances"] == []
    assert rep["aggregate"] == {"pass": 0, "fail": 0, "undetermined": 0}


def test_ideal_quotient_dimension_split_on_random_algebras():
    from itertools import combinations
    from homkit.algebra import quotient_by_idempotent_ideal
    from homkit.recollement import aea_dimension
    spec = CorpusSpec(seed=13, count=4, shape="NilpotentCyclic")
    for i in range(4):
        a = gen_nilpotent_cyclic(spec, i)
        for size in range(1, a.r):
            for S in combinations(range(a.r), size):
                q = quotient_by_idempotent_ideal(a, list(S))
                assert aea_dimension(a, list(S)) + q.dim == a.dim, (i, S)
