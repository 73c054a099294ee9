"""Seeded random corpora for the property suites.

Three instance shapes, each making one family of exact checks
unconditionally testable:

* AcyclicQuiver: arrows only go up a fixed vertex order and relations are
  monomial, so the global dimension is always finite and the determinant
  assertion det C = +-1 applies to every instance.
* NilpotentCyclic: truncated path algebras of random quivers with cycles
  allowed (every path of one fixed length L in {2, 3} is a relation, so
  the arrow ideal is nilpotent and the algebra finite-dimensional); the
  main feedstock for the stratification search.
* TriangularPair: two small algebras plus a random bimodule (a quotient of
  a random projective over tensor(op(C), B), so validity holds by
  construction), realising the triangular two-recollement.

All randomness flows from one 64-bit seed; instance i draws from an
independent stream derived from (seed, i), so corpora are reproducible and
instances can be evaluated in parallel in any order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Algebra, _triangular, from_quiver, opposite, tensor
from .linalg import Field
from .modules import (Module, _unchecked_restrictions, direct_sum, projective, quotient_module,
                      spanned_submodule)
from .presentation import Arrow, AlgebraSpec, Path, Quiver, Relation, enumerate_paths

SHAPES = ("AcyclicQuiver", "NilpotentCyclic", "TriangularPair")

# the most vertices, arrows and relations a corpus quiver draws
MAX_VERTICES = 6
MAX_ARROWS = 10
MAX_RELATIONS = 8
DIM_BOUND = 60
# the smallest algebra each generator can build, so the smallest dim_bound
# it can meet: two vertices and one arrow; one vertex with a loop and L = 2;
# two dimension-2 factors plus a one-dimensional bimodule
MIN_DIM_BOUND = {"AcyclicQuiver": 3, "NilpotentCyclic": 2, "TriangularPair": 5}


@dataclass(frozen=True)
class CorpusSpec:
    seed: int
    count: int
    shape: str
    field_name: str = "F101"
    dim_bound: int = DIM_BOUND

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown corpus shape {self.shape!r}")
        if not (0 <= self.count):
            raise ValueError("count must be >= 0")
        low = MIN_DIM_BOUND[self.shape]
        if not (low <= self.dim_bound <= DIM_BOUND):
            raise ValueError(f"dim_bound must be in {low}..{DIM_BOUND} for "
                             f"{self.shape}, got {self.dim_bound}")

    @property
    def field(self) -> Field:
        return Field.from_name(self.field_name)


def instance_rng(spec: CorpusSpec, index: int) -> random.Random:
    return random.Random((spec.seed & 0xFFFFFFFFFFFFFFFF) * 1_000_003 + index)


def _acyclic_spec_once(rng: random.Random, field: Field, max_vertices: int,
                       max_arrows: int, max_relations: int, name: str) -> AlgebraSpec:
    v = rng.randint(2, max_vertices)
    narr = rng.randint(1, max_arrows)
    arrows = []
    for k in range(narr):
        s = rng.randrange(v - 1)
        t = rng.randint(s + 1, v - 1)
        arrows.append(Arrow(f"a{k}", s, t))
    quiver = Quiver(tuple(str(i + 1) for i in range(v)), tuple(arrows))
    paths = enumerate_paths(quiver, 3)
    candidates = paths[2] + paths[3]
    rels = []
    if candidates and max_relations:
        nrel = rng.randint(0, max_relations)
        chosen = set()
        for _ in range(nrel):
            p = candidates[rng.randrange(len(candidates))]
            if p.arrows in chosen:
                continue
            chosen.add(p.arrows)
            rels.append(Relation(((field.one, p),)))
    return AlgebraSpec(field, quiver, tuple(rels), name=name)


def gen_acyclic(spec: CorpusSpec, index: int) -> Algebra:
    rng = instance_rng(spec, index)
    while True:
        s = _acyclic_spec_once(rng, spec.field, MAX_VERTICES, MAX_ARROWS, MAX_RELATIONS,
                               f"acyclic-{spec.seed}-{index}")
        a = from_quiver(s)
        if a.dim <= spec.dim_bound:
            return a


def gen_nilpotent_cyclic(spec: CorpusSpec, index: int) -> Algebra:
    """A truncated path algebra of a random quiver (cycles allowed): all
    paths of one fixed length L in {2, 3} are relations, which forces the
    arrow ideal nilpotent and the algebra finite-dimensional."""
    rng = instance_rng(spec, index)
    field = spec.field
    while True:
        v = rng.randint(1, MAX_VERTICES)
        narr = rng.randint(1, MAX_ARROWS)
        arrows = tuple(Arrow(f"c{k}", rng.randrange(v), rng.randrange(v))
                       for k in range(narr))
        L = rng.choice((2, 3))
        quiver = Quiver(tuple(str(i + 1) for i in range(v)), arrows)
        truncating = enumerate_paths(quiver, L)[L]
        if not truncating or len(truncating) > MAX_RELATIONS:
            continue
        rels = tuple(Relation(((field.one, p),)) for p in truncating)
        s = AlgebraSpec(field, quiver, rels, name=f"nilcyc-{spec.seed}-{index}")
        a = from_quiver(s)
        if a.dim <= spec.dim_bound:
            return a


def _small_algebra(rng: random.Random, field: Field, name: str) -> Algebra:
    """A small factor for triangular pairs: acyclic or serial, dim <= ~10."""
    while True:
        if rng.random() < 0.5:
            s = _acyclic_spec_once(rng, field, 3, 4, 3, name)
            a = from_quiver(s)
        else:
            v = rng.randint(1, 3)
            L = rng.choice((2, 3))
            arrows = tuple(Arrow(f"c{i}", i, (i + 1) % v) for i in range(v))
            quiver = Quiver(tuple(str(i + 1) for i in range(v)), arrows)
            rels = tuple(Relation(((field.one, Path(st, (st + L) % v,
                                                    tuple((st + k) % v for k in range(L)))),))
                         for st in range(v))
            a = from_quiver(AlgebraSpec(field, quiver, rels, name=name))
        if a.dim <= 10:
            return a


def _random_bimodule(rng: random.Random, b: Algebra, c: Algebra,
                     dim_bound: int) -> Module:
    """A random C-B-bimodule: a quotient of a random projective over
    T = tensor(op(C), B) by the submodule generated by random radical
    elements.  Valid by construction; only the size is resampled."""
    T = tensor(opposite(c), b)
    F = T.field
    while True:
        nproj = rng.randint(1, 3)
        verts = [rng.randrange(T.r) for _ in range(nproj)]
        parts = [projective(T, i) for i in verts]
        P = direct_sum(T, parts)
        if P.dim == 0:
            continue
        # positions of P whose underlying algebra basis element is radical;
        # projective(T, i) lists the algebra basis with left tag i in order
        radical_pos = []
        pos = 0
        for i, part in zip(verts, parts):
            for s, k in enumerate(T.paths[i]):
                if k >= T.r:
                    radical_pos.append(pos + s)
            pos += part.dim
        gens = []
        # a third of the instances keep the full projective; the rest
        # quotient by one or two generated submodules
        for _ in range(rng.choice((0, 1, 1, 2))):
            if not radical_pos:
                break
            anchor = radical_pos[rng.randrange(len(radical_pos))]
            w = P.weights[anchor]
            vec = {anchor: F.of_int(rng.randint(1, 5))}
            for t in radical_pos:
                if t != anchor and P.weights[t] == w and rng.random() < 0.5:
                    vec[t] = F.of_int(rng.randint(1, 5))
            gens.append({t: x for t, x in vec.items() if x != 0})
        if gens:
            _, incl = spanned_submodule(P, gens)
            m = quotient_module(P, incl) if incl else P
        else:
            m = P
        if 0 < m.dim <= dim_bound:
            return m


@dataclass
class TriangularInstance:
    b: Algebra
    c: Algebra
    m: Module
    a: Algebra


def gen_triangular_pair(spec: CorpusSpec, index: int) -> TriangularInstance:
    rng = instance_rng(spec, index)
    while True:
        b = _small_algebra(rng, spec.field, f"B-{spec.seed}-{index}")
        c = _small_algebra(rng, spec.field, f"C-{spec.seed}-{index}")
        m_bound = spec.dim_bound - b.dim - c.dim
        if m_bound < 1:
            continue
        m = _random_bimodule(rng, b, c, m_bound)
        a = _triangular(b, c, *_unchecked_restrictions(b, c, m))
        a.name = f"tri-{spec.seed}-{index}"
        if a.dim <= spec.dim_bound:
            return TriangularInstance(b, c, m, a)


def generate(spec: CorpusSpec, index: int):
    if spec.shape == "AcyclicQuiver":
        return gen_acyclic(spec, index)
    if spec.shape == "NilpotentCyclic":
        return gen_nilpotent_cyclic(spec, index)
    return gen_triangular_pair(spec, index)
