import copy
import json
import random

import pytest

from homkit import corpus
from homkit.algebra import (_PATH_GUARD, Algebra, NotFiniteDimensionalError, _WindowedClosure,
                            algebra_from_json, algebra_to_json, corner, enveloping,
                            from_quiver, opposite, quotient_by_idempotent_ideal, tensor,
                            triangular, validate)
from homkit.modules import Module
from homkit.presentation import parse_spec, spec_of_fixture
from homkit.recollement import aea_dimension
from _oracles import (cartan_counts_from_words, dense_rank, dense_rref,
                      monomial_normal_words, radical_generators)


def test_fixture_dimensions_and_bases(fixture_algebras):
    a2 = fixture_algebras["FIX-A2"]
    assert (a2.dim, a2.r) == (3, 2)
    assert a2.labels == ["e1", "e2", "a"]
    assert a2.radical_basis == [2]
    tp11 = fixture_algebras["FIX-TP1(1)"]
    assert tp11.dim == 4
    assert set(tp11.labels) == {"e1", "e2", "alpha", "beta"}
    tp2 = fixture_algebras["FIX-TP2"]
    assert tp2.dim == 8
    assert set(tp2.labels) == {"e1", "e2", "alpha", "beta", "gamma", "delta",
                               "gamma*alpha", "delta*beta"}
    loc = fixture_algebras["FIX-LOC"]
    assert (loc.dim, loc.r) == (2, 1)


def test_tp1_dims_match_word_oracle():
    # independent oracle: words avoiding the forbidden subwords (ab)^n, (ba)^n
    for n in (1, 2, 3):
        a = from_quiver(spec_of_fixture(f"FIX-TP1({n})"))
        arrows = [(0, 1), (1, 0)]
        forb = [tuple([0, 1] * n), tuple([1, 0] * n)]
        words = monomial_normal_words(2, arrows, forb, 2 * n + 1)
        expected_dim = sum(len(level) for level in words)
        assert a.dim == expected_dim == 4 * n
        cart = cartan_counts_from_words(2, words)
        assert cart == [[n, n], [n, n]]


def test_all_fixtures_validate(fixture_algebras):
    for name, a in fixture_algebras.items():
        rep = validate(a)
        assert rep.ok, (name, rep.failures)


def test_tp2_nilpotency_index(fixture_algebras):
    assert validate(fixture_algebras["FIX-TP2"]).nilpotency_index == 3


def test_validate_catches_perturbed_table(tp2):
    bad = Algebra(tp2.field, tp2.vertex_labels, tp2.labels, tp2.left, tp2.right,
                  copy.deepcopy(tp2.mult), tp2.r, name="perturbed")
    ai = tp2.labels.index("alpha")
    bi = tp2.labels.index("beta")
    gi = tp2.labels.index("gamma")
    bad.mult[ai][bi] = {gi: tp2.field.one}
    rep = validate(bad)
    assert not rep.ok
    assert any("associativity" in f for f in rep.failures)


def test_not_finite_dimensional_error():
    with pytest.raises(NotFiniteDimensionalError, match="degree_cutoff"):
        from_quiver(parse_spec("field Q quiver { vertices: 1 arrows: x: 1 -> 1 }",
                               degree_cutoff=8))


def test_graded_closure_stops_at_the_path_guard():
    # the free algebra on two loops has 2^d words in degree d and no
    # relation to stop it: the graded closure gives up at the same guard as
    # the windowed one, long before the degree cutoff
    free2 = parse_spec("field Q quiver { vertices: 1 arrows: x: 1 -> 1, y: 1 -> 1 }")
    with pytest.raises(NotFiniteDimensionalError, match=f"exceeded {_PATH_GUARD} words"):
        from_quiver(free2)


def test_exterior_algebra_needs_the_graded_closure():
    # the exterior algebra on four generators: dim 2^4 = 16, and the windowed
    # closure, which enumerates every raw path, rejects it at its path guard
    gens = "xyzw"
    rels = [f"{g}*{g}" for g in gens] + [f"{g}*{h} + {h}*{g}"
                                        for k, g in enumerate(gens) for h in gens[k + 1:]]
    spec = parse_spec("field F101 quiver { vertices: 1 arrows: "
                      + ", ".join(f"{g}: 1 -> 1" for g in gens)
                      + " } relations { " + ", ".join(rels) + " }")
    a = from_quiver(spec)
    assert a.dim == 16 and validate(a).ok
    with pytest.raises(NotFiniteDimensionalError, match="path enumeration"):
        _WindowedClosure(spec).run()


def test_cartan_table_is_computed_once(a2, monkeypatch):
    import homkit.algebra as algebra_mod
    calls = []
    real = algebra_mod.det_int
    monkeypatch.setattr(algebra_mod, "det_int", lambda m: calls.append(m) or real(m))
    assert a2.cartan is a2.cartan
    assert a2.cartan.matrix.data == [[1, 0], [1, 1]] and a2.cartan.det == 1
    assert len(calls) == 1


def test_opposite_involution_and_tags(a2):
    op = opposite(a2)
    assert opposite(op) == a2
    ai = a2.labels.index("a")
    assert (op.left[ai], op.right[ai]) == (a2.right[ai], a2.left[ai])
    # opposite of the one-arrow algebra is the arrow reversed: a is 2 -> 1
    assert (op.left[ai], op.right[ai]) == (1, 0)


def test_opposite_commutative_identical(loc):
    assert opposite(loc).mult == loc.mult


def test_opposite_is_anti_isomorphism(fixture_algebras, seed42_pools):
    algebras = list(fixture_algebras.values()) + seed42_pools["NilpotentCyclic"]
    for inst in seed42_pools["TriangularPair"]:
        algebras += [inst.a, inst.b, inst.c]
    for a in algebras:
        op = opposite(a)
        assert opposite(op) is a, a.name
        assert op.mult == [{y: a.mult[y][x] for y in range(a.dim) if x in a.mult[y]}
                           for x in range(a.dim)], a.name


def test_generators_lift_a_basis_of_rad_mod_rad2(fixture_algebras, seed42_pools):
    # against the dense rad/rad^2 oracle; and the words in the generators
    # span rad A, layer by layer, as the Hom systems and radicals that read
    # them need
    algebras = list(fixture_algebras.values()) + seed42_pools["NilpotentCyclic"]
    for inst in seed42_pools["TriangularPair"]:
        algebras += [inst.a, inst.b, inst.c]
    for a in algebras:
        gens = a.generators
        assert gens == radical_generators(a), a.name
        assert a.generators is gens
        p = a.field.p

        def times(u, g):
            out = [0] * a.dim
            for x, ux in enumerate(u):
                for z, c in a.mult[x].get(g, {}).items() if ux else ():
                    out[z] += ux * c
            return out

        span = layer = [[int(z == g) for z in range(a.dim)] for g in gens]
        while layer:
            layer = dense_rref([times(u, g) for u in layer for g in gens], a.dim, p)[0]
            grown = dense_rref(span + layer, a.dim, p)[0]
            if len(grown) == len(span):
                break
            span = grown
        assert len(span) == a.dim - a.r, a.name


def test_tensor_with_unit(a2, one_point):
    t = tensor(a2, one_point)
    assert t.dim == a2.dim and t.r == a2.r
    assert t.left == a2.left and t.right == a2.right
    assert t.mult == a2.mult  # pair order (x, 0) preserves the basis order


def test_tensor_dimensions(tp11, loc):
    t = tensor(tp11, loc)
    assert t.dim == tp11.dim * loc.dim == 8
    assert t.r == tp11.r * loc.r
    assert validate(t).ok


def test_tensor_field_mismatch(loc):
    other = from_quiver(parse_spec("field F5 quiver { vertices: 1 arrows: }"))
    with pytest.raises(ValueError, match="field"):
        tensor(loc, other)


def test_tensor_associativity_dims(a2, loc, one_point):
    lhs = tensor(tensor(a2, loc), one_point)
    rhs = tensor(a2, tensor(loc, one_point))
    assert lhs.dim == rhs.dim
    assert sorted(zip(lhs.left, lhs.right)) == sorted(zip(rhs.left, rhs.right))


def test_enveloping(a2, loc, one_point):
    assert enveloping(loc).dim == 4
    assert enveloping(one_point).dim == 1
    assert enveloping(a2).r == 4
    assert validate(enveloping(a2)).ok


def test_corner_full_is_identity(tp2):
    c = corner(tp2, [0, 1])
    assert c.mult == tp2.mult and c.labels == tp2.labels


def test_corner_examples(a2, tp2):
    c = corner(a2, [0])
    assert (c.dim, c.r) == (1, 1)
    c2 = corner(tp2, [0])
    assert c2.dim == 2 and c2.labels == ["e1", "gamma"]
    # gamma^2 = 0 in the corner
    gi = c2.labels.index("gamma")
    assert gi not in c2.mult[gi]
    assert validate(c2).ok


def test_corner_empty_rejected(a2):
    with pytest.raises(ValueError):
        corner(a2, [])


def test_quotient_examples(a2, tp11):
    q = quotient_by_idempotent_ideal(a2, [0])
    assert q.dim == 1 and q.labels == ["e2"]
    q2 = quotient_by_idempotent_ideal(tp11, [0])
    assert q2.dim == 1 and q2.labels == ["e2"]
    assert validate(q).ok and validate(q2).ok


def test_quotient_requires_proper_subset(a2):
    with pytest.raises(ValueError):
        quotient_by_idempotent_ideal(a2, [0, 1])
    with pytest.raises(ValueError):
        quotient_by_idempotent_ideal(a2, [])


def test_dim_splits_as_ideal_plus_quotient(fixture_algebras):
    from itertools import combinations
    for name, a in fixture_algebras.items():
        for size in range(1, a.r):
            for S in combinations(range(a.r), size):
                q = quotient_by_idempotent_ideal(a, list(S))
                assert aea_dimension(a, list(S)) + q.dim == a.dim, (name, S)


def test_triangular_unit_case_matches_fixture(one_point, tri0):
    T = tensor(opposite(one_point), one_point)
    F = T.field
    m = Module(T, 1, [{0: {0: F.one}}], [0])
    a = triangular(one_point, one_point, m)
    assert (a.dim, a.r) == (tri0.dim, tri0.r)
    assert a.left == tri0.left and a.right == tri0.right
    assert a.mult == tri0.mult
    assert validate(a).ok


def test_triangular_dim_and_rank_additivity(loc, one_point):
    T = tensor(opposite(one_point), loc)
    F = T.field
    from homkit.modules import regular
    m = regular(T)
    a = triangular(loc, one_point, m)
    assert a.dim == loc.dim + one_point.dim + m.dim
    assert a.r == loc.r + one_point.r
    assert validate(a).ok


def test_json_round_trip(fixture_algebras):
    for name in ("FIX-A2", "FIX-TP2"):
        a = fixture_algebras[name]
        doc = algebra_to_json(a)
        text = json.dumps(doc, sort_keys=True)
        b = algebra_from_json(json.loads(text))
        assert b == a
        assert json.dumps(algebra_to_json(b), sort_keys=True) == text


def test_pool_algebras_pass_the_load_rules(seed42_pools):
    # every algebra of the seed-42 pools, the transfer factors included, is
    # associative, so the loader reads its document back unchanged
    for shape, pool in seed42_pools.items():
        for x in pool:
            for a in ((x.a, x.b, x.c) if shape == "TriangularPair" else (x,)):
                assert algebra_from_json(algebra_to_json(a)) == a, a.name


def test_load_time_product_rule_rejects_what_validate_rejects(seed42_pools):
    # single-entry edits of the radical x radical products of the seed-42
    # pool algebras: the coefficient at z of x * y is doubled or deleted.
    # The edit keeps the tags and the unit products, so only associativity
    # can fail, and the reader, which checks it on A_A against the
    # generators, must reject exactly the tables that validate's sweep over
    # every triple rejects.  All 1112 edits agree; a seeded 90 are checked
    edits = []
    for shape, pool in seed42_pools.items():
        for inst in pool:
            for a in ((inst.a, inst.b, inst.c) if shape == "TriangularPair" else (inst,)):
                edits += [(a, x, y, z, scale) for x in a.radical_basis
                          for y, row in a.mult[x].items() if y >= a.r
                          for z in row for scale in (True, False)]
    assert len(edits) == 1112
    outcomes = []
    for a, x, y, z, scale in random.Random(0).sample(edits, 90):
        F = a.field
        mult = list(a.mult)
        mult[x] = dict(mult[x])
        row = mult[x][y] = dict(mult[x][y])
        if scale:
            row[z] = F.mul(row[z], F.of_int(2))
        else:
            del row[z]
            if not row:
                del mult[x][y]
        b = Algebra(F, a.vertex_labels, a.labels, a.left, a.right, mult, a.r, name=a.name)
        try:
            algebra_from_json(algebra_to_json(b))
            loaded = True
        except ValueError:
            loaded = False
        assert loaded == bool(validate(b)), (a.name, x, y, z, scale)
        outcomes.append(loaded)
    assert True in outcomes and False in outcomes


def test_product_rule_error_names_an_unnamed_algebra():
    # in tri-42-10, (20 * 8) * 4 = 20 * (8 * 4); scaling 8 * 4 breaks it, and
    # a document with no name still gets a message that reads as a sentence
    doc = algebra_to_json(corpus.generate(
        corpus.CorpusSpec(seed=42, count=30, shape="TriangularPair"), 10).a)
    del doc["name"]
    doc["mult"] = [[8, 4, 9, "2"] if e == [8, 4, 9, "1"] else e for e in doc["mult"]]
    with pytest.raises(ValueError) as err:
        algebra_from_json(doc)
    assert str(err.value) == ("'M:0' then 'B:a0' in an unnamed algebra does not act as "
                              "their product")


# inhomogeneous, so realised by the windowed closure
_X3_IS_X4 = """
    field Q
    quiver { vertices: 1  arrows: x: 1 -> 1 }
    relations { (x)^3 - (x)^4, (x)^6 }
"""


def _mult_is_sparse_and_ordered(a):
    """Every ``mult[x]`` has strictly increasing keys in range and no empty row."""
    for row in a.mult:
        keys = list(row)
        if keys != sorted(set(keys)) or not all(0 <= y < a.dim and row[y] for y in keys):
            return False
    return True


def test_structure_constants_are_sparse_rows_on_every_construction(fixture_algebras,
                                                                   seed42_pools):
    inputs = list(fixture_algebras.values()) + seed42_pools["NilpotentCyclic"]
    inputs.append(from_quiver(parse_spec(_X3_IS_X4, name="x^3 = x^4")))
    inputs += [corpus.generate(corpus.CorpusSpec(seed=42, count=30, shape="AcyclicQuiver"), i)
               for i in range(30)]
    built = []
    for inst in seed42_pools["TriangularPair"]:
        inputs += [inst.a, inst.b, inst.c]  # inst.a is triangular(b, c, m)
        built.append(tensor(opposite(inst.c), inst.b))
    built += [enveloping(fixture_algebras["FIX-A2"]), enveloping(fixture_algebras["FIX-TP1(1)"])]
    for a in inputs:
        built += [a, opposite(a)]
        for S in ([0], list(range(1, a.r))) if a.r > 1 else ():
            built += [corner(a, S), quotient_by_idempotent_ideal(a, S)]
    for a in built:
        assert _mult_is_sparse_and_ordered(a), a.name
    # the loader takes the products in any order and stores them in this one
    for n, a in enumerate(inputs):
        doc = algebra_to_json(a)
        triples = list(doc["mult"])
        random.Random(n).shuffle(triples)
        b = algebra_from_json(dict(doc, mult=triples))
        assert b == a and _mult_is_sparse_and_ordered(b), a.name
        assert algebra_to_json(b) == doc, a.name


def test_json_format_header(a2):
    doc = algebra_to_json(a2)
    assert doc["format"] == "homkit-algebra/1"
    with pytest.raises(ValueError, match="format"):
        algebra_from_json({"format": "nope/9"})


def test_from_quiver_with_non_unit_coefficients():
    # 2*p*r = q*s identifies the two square composites up to a scalar
    text = """
        field {f}
        quiver {{ vertices: a, b, c, d
                  arrows: p: a -> b, q: a -> c, r: b -> d, s: c -> d }}
        relations {{ 2*p*r - q*s }}
    """
    for fname in ("Q", "F7"):
        alg = from_quiver(parse_spec(text.format(f=fname)))
        assert alg.dim == 9
        assert validate(alg).ok
        pi = alg.labels.index("p")
        ri = alg.labels.index("r")
        qs = alg.labels.index("q*s")
        # p*r reduces to (1/2) q*s
        prod = alg.mult[pi].get(ri, {})
        half = alg.field.div(alg.field.one, alg.field.of_int(2))
        assert prod == {qs: half}


def test_degreewise_basis_counts_match_rank_oracle():
    # basis count at degree d = (paths of degree d) - rank of the degree-d
    # slice of the relation ideal, computed independently with dense RREF
    from homkit.presentation import compose, enumerate_paths
    for name in ("FIX-TP1(2)", "FIX-TP2"):
        spec = spec_of_fixture(name)
        a = from_quiver(spec)
        q = spec.quiver
        F = spec.field
        maxlen = max(len(w.split("*")) for w in a.labels if "e" != w[0] or "*" in w)
        levels = enumerate_paths(q, maxlen + 1)
        # count normal forms per degree from the algebra basis labels
        arrow_names = {ar.label for ar in q.arrows}
        deg_of = []
        for lbl in a.labels:
            parts = lbl.split("*")
            deg_of.append(0 if parts[0] not in arrow_names else len(parts))
        for d in range(2, maxlen + 2):
            paths_d = levels[d]
            col = {p.arrows: i for i, p in enumerate(paths_d)}
            rows = []
            for rel in spec.relations:
                m = rel.terms[0][1].length
                if m > d:
                    continue
                for pre_level in range(d - m + 1):
                    for pre in levels[pre_level]:
                        for post in levels[d - m - pre_level]:
                            row = [F.zero] * len(paths_d)
                            dead = False
                            for coeff, relpath in rel.terms:
                                full = compose(pre, compose(relpath, post)) \
                                    if compose(relpath, post) else None
                                if full is None:
                                    dead = True
                                    break
                                row[col[full.arrows]] = F.add(row[col[full.arrows]], coeff)
                            if not dead and any(x != 0 for x in row):
                                rows.append(row)
            rank = dense_rank(rows, F.p)
            expected = len(paths_d) - rank
            got = sum(1 for dd in deg_of if dd == d)
            assert got == expected, (name, d)


def test_tensor_structure_constants_associative_under_relabelling(a2, loc, one_point):
    lhs = tensor(tensor(a2, loc), one_point)
    rhs = tensor(a2, tensor(loc, one_point))
    # canonical bijection via labels: x⊗y⊗z matches up to bracketing
    def key(lbl):
        return lbl.replace("⊗", "|")
    lmap = sorted(range(lhs.dim), key=lambda k: key(lhs.labels[k]))
    rmap = sorted(range(rhs.dim), key=lambda k: key(rhs.labels[k]))
    to_r = {lmap[i]: rmap[i] for i in range(lhs.dim)}
    for x in range(lhs.dim):
        for y in range(lhs.dim):
            got = {to_r[z]: c for z, c in lhs.mult[x].get(y, {}).items()}
            assert got == rhs.mult[to_r[x]].get(to_r[y], {}), (x, y)


def test_inhomogeneous_relations_supported():
    # x^2 = x^3 with x^4 = 0 collapses to dim 2; the window algorithm must
    # find the basis {e, x} and a zero product x*x
    s = parse_spec("""
        field Q
        quiver { vertices: 1  arrows: x: 1 -> 1 }
        relations { x*x - x*x*x, (x)^4 }
    """)
    a = from_quiver(s)
    assert a.dim == 2
    xi = a.labels.index("x")
    assert xi not in a.mult[xi]
    assert validate(a).ok


def test_inhomogeneous_non_admissible_errors_out():
    s = parse_spec("""
        field Q
        quiver { vertices: 1  arrows: x: 1 -> 1 }
        relations { x*x - x*x*x }
    """, degree_cutoff=10)
    with pytest.raises(NotFiniteDimensionalError):
        from_quiver(s)


def test_inhomogeneous_multi_degree_window():
    # x^3 = x^4 and x^6 = 0 force x^3 = 0: basis {e, x, x^2}
    a = from_quiver(parse_spec(_X3_IS_X4))
    assert a.dim == 3
    xi = a.labels.index("x")
    xxi = a.labels.index("x*x")
    assert xxi not in a.mult[xi]
    assert xi not in a.mult[xxi]
    assert validate(a).ok


def test_inhomogeneous_two_vertex_window(monkeypatch):
    # inhomogeneous parallel relation between a length-2 and a length-3 loop
    # path at vertex 1; nilpotency is forced by the extra monomials
    s = parse_spec("""
        field Q
        quiver { vertices: 1, 2  arrows: u: 1 -> 2, v: 2 -> 1, w: 1 -> 1 }
        relations { u*v - w*w*w, w*w*w*w, v*u, w*u }
    """)
    ran = []
    run = _WindowedClosure.run
    monkeypatch.setattr(_WindowedClosure, "run", lambda self: ran.append(1) or run(self))
    a = from_quiver(s)
    assert ran == [1]
    assert validate(a).ok, validate(a).failures
    assert a.labels == ["e1", "e2", "u", "v", "w", "v*w", "w*w", "v*w*w", "w*w*w"]
    # u*v is eliminated in favour of w*w*w, which it equals
    assert "u*v" not in a.labels
    u, v, w, ww, www = (a.labels.index(x) for x in ("u", "v", "w", "w*w", "w*w*w"))
    assert a.mult[u][v] == a.mult[w][ww] == {www: 1}
