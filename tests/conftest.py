import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from homkit.algebra import from_quiver
from homkit.presentation import parse_spec, spec_of_fixture

FIXTURE_NAMES = ["FIX-A2", "FIX-TP1(1)", "FIX-TP1(2)", "FIX-TP2", "FIX-LOC", "FIX-TRI0"]


@pytest.fixture(scope="session")
def seed42_pools():
    """The seed-42 corpus pools of the benchmark: 30 NilpotentCyclic
    algebras and 30 TriangularPair instances."""
    from homkit import corpus
    return {shape: [corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape=shape), i)
                    for i in range(30)]
            for shape in ("NilpotentCyclic", "TriangularPair")}


@pytest.fixture(scope="session")
def fixture_algebras():
    return {name: from_quiver(spec_of_fixture(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def a2(fixture_algebras):
    return fixture_algebras["FIX-A2"]


@pytest.fixture(scope="session")
def tp11(fixture_algebras):
    return fixture_algebras["FIX-TP1(1)"]


@pytest.fixture(scope="session")
def tp12(fixture_algebras):
    return fixture_algebras["FIX-TP1(2)"]


@pytest.fixture(scope="session")
def tp2(fixture_algebras):
    return fixture_algebras["FIX-TP2"]


@pytest.fixture(scope="session")
def loc(fixture_algebras):
    return fixture_algebras["FIX-LOC"]


@pytest.fixture(scope="session")
def tri0(fixture_algebras):
    return fixture_algebras["FIX-TRI0"]


@pytest.fixture(scope="session")
def one_point():
    return from_quiver(parse_spec("field Q quiver { vertices: 1 arrows: }", name="k"))


@pytest.fixture(scope="session")
def semisimple3():
    return from_quiver(parse_spec("field Q quiver { vertices: 1, 2, 3 arrows: }",
                                  name="k^3"))
