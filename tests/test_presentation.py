import random

import pytest

from homkit.linalg import Field
from homkit.presentation import (_FIXTURE_TEXTS, Path, SpecError, _tp1_text, compose,
                                 enumerate_paths, parse_spec, print_spec,
                                 spec_of_fixture, trivial_path)
from _oracles import adjacency_path_counts

A2_TEXT = """
field Q
quiver { vertices: 1, 2  arrows: a: 1 -> 2 }
"""

TP1_TEXT = """
field Q
quiver { vertices: 1, 2  arrows: alpha: 1 -> 2, beta: 2 -> 1 }
relations { alpha*beta, beta*alpha }
"""


def test_parse_a2():
    s = parse_spec(A2_TEXT)
    assert s.field == Field.rationals()
    assert len(s.quiver.vertex_labels) == 2
    assert len(s.quiver.arrows) == 1
    assert s.relations == ()


def test_parse_tp1():
    s = parse_spec(TP1_TEXT)
    assert len(s.quiver.arrows) == 2
    assert len(s.relations) == 2
    assert all(len(r.terms) == 1 and r.terms[0][1].length == 2 for r in s.relations)


def test_parse_prime_field_forms():
    assert parse_spec("field F101 quiver { vertices: 1 arrows: }").field == Field.prime(101)
    assert parse_spec("field F 101 quiver { vertices: 1 arrows: }").field == Field.prime(101)


def test_parse_power_sugar():
    s = spec_of_fixture("FIX-TP1(2)")
    assert all(r.terms[0][1].length == 4 for r in s.relations)


def test_parse_coefficients_and_signs():
    s = parse_spec("""
        field Q
        quiver { vertices: u, v
                 arrows: a: u -> v, b: v -> u, c: u -> u }
        relations { 2*a*b - c*c, -a*b + 3*c*c }
    """)
    (c1, p1), (c2, p2) = s.relations[0].terms
    assert (c1, c2) == (Field.rationals().of_int(2), Field.rationals().of_int(-1))
    assert p1.length == p2.length == 2


def test_admissibility_error_trivial_path():
    with pytest.raises(SpecError, match="length"):
        parse_spec("""
            field Q
            quiver { vertices: e1, e2  arrows: a: e1 -> e2, b: e2 -> e1 }
            relations { a*b - e1 }
        """)


def test_length_one_path_rejected():
    with pytest.raises(SpecError, match="length"):
        parse_spec("""
            field Q
            quiver { vertices: 1  arrows: x: 1 -> 1 }
            relations { x }
        """)


def test_non_parallel_relation_rejected():
    with pytest.raises(SpecError, match="parallel"):
        parse_spec("""
            field Q
            quiver { vertices: 1, 2  arrows: a: 1 -> 2, b: 2 -> 1, c: 1 -> 1 }
            relations { a*b - b*a }
        """)


def test_unknown_identifier_has_location():
    with pytest.raises(SpecError) as exc:
        parse_spec("field Q\nquiver { vertices: 1 arrows: }\nrelations { zz*zz }")
    assert "zz" in str(exc.value)
    assert "line 3" in str(exc.value)


def test_syntax_error_has_location():
    with pytest.raises(SpecError, match="line"):
        parse_spec("field Q\nquiver vertices: 1 }")


def test_non_prime_modulus_rejected():
    with pytest.raises(SpecError, match="prime"):
        parse_spec("field F8 quiver { vertices: 1 arrows: }")


def test_noncomposable_path_rejected():
    with pytest.raises(SpecError, match="compose"):
        parse_spec("""
            field Q
            quiver { vertices: 1, 2  arrows: a: 1 -> 2 }
            relations { a*a }
        """)


def test_duplicate_labels_rejected():
    with pytest.raises(SpecError, match="unique"):
        parse_spec("field Q quiver { vertices: 1, 2 arrows: a: 1 -> 2, a: 2 -> 1 }")


def test_compose_unit_and_chain():
    s = parse_spec(TP1_TEXT)
    q = s.quiver
    alpha = Path(0, 1, (0,))
    beta = Path(1, 0, (1,))
    e1 = trivial_path(0)
    assert compose(e1, alpha) == alpha
    assert compose(alpha, trivial_path(1)) == alpha
    ab = compose(alpha, beta)
    assert (ab.source, ab.target, ab.arrows) == (0, 0, (0, 1))
    assert compose(alpha, alpha) is None


def test_compose_associative_on_fixture_paths():
    s = spec_of_fixture("FIX-TP2")
    levels = enumerate_paths(s.quiver, 3)
    paths = [p for lev in levels for p in lev]
    for p in paths:
        for q in paths:
            for r in paths:
                pq = compose(p, q)
                qr = compose(q, r)
                lhs = compose(pq, r) if pq else None
                rhs = compose(p, qr) if qr else None
                assert lhs == rhs


def test_enumerate_paths_examples():
    a2 = spec_of_fixture("FIX-A2").quiver
    levels = enumerate_paths(a2, 2)
    assert [len(l) for l in levels] == [2, 1, 0]
    tp1 = spec_of_fixture("FIX-TP1(1)").quiver
    levels = enumerate_paths(tp1, 2)
    assert [len(l) for l in levels] == [2, 2, 2]
    assert [p.arrows for p in levels[2]] == [(0, 1), (1, 0)]
    assert all(len(lev) == len(enumerate_paths(tp1, 0)[0]) for lev in [levels[0]])


def test_enumerate_paths_counts_match_adjacency_powers():
    for name in ["FIX-A2", "FIX-TP1(1)", "FIX-TP2", "FIX-LOC"]:
        q = spec_of_fixture(name).quiver
        levels = enumerate_paths(q, 4)
        arrows = [(a.source, a.target) for a in q.arrows]
        expected = adjacency_path_counts(q.num_vertices, arrows, 4)
        assert [len(lev) for lev in levels] == expected


def test_enumerate_paths_order_is_length_lex():
    q = spec_of_fixture("FIX-TP2").quiver
    levels = enumerate_paths(q, 2)
    assert [p.arrows for p in levels[2]] == sorted(p.arrows for p in levels[2])


def test_fixture_specs():
    loc = spec_of_fixture("FIX-LOC")
    assert loc.quiver.num_vertices == 1
    assert len(loc.quiver.arrows) == 1
    assert len(loc.relations) == 1
    tp2 = spec_of_fixture("FIX-TP2")
    assert tp2.quiver.num_vertices == 2
    assert len(tp2.quiver.arrows) == 4
    assert len(tp2.relations) == 6
    tp1_2 = spec_of_fixture("FIX-TP1-2")
    assert all(r.terms[0][1].length == 4 for r in tp1_2.relations)
    with pytest.raises(SpecError):
        spec_of_fixture("FIX-NOPE")


def test_print_parse_round_trip():
    for name in ["FIX-A2", "FIX-TP1(1)", "FIX-TP1(3)", "FIX-TP2", "FIX-LOC", "FIX-TRI0"]:
        s = spec_of_fixture(name)
        text = print_spec(s)
        s2 = parse_spec(text)
        assert (s2.field, s2.quiver, s2.relations) == (s.field, s.quiver, s.relations)
        # printing is canonical: a second round trip is byte-identical
        assert print_spec(s2) == text


def test_parser_rejects_garbage_gracefully():
    # every malformed input must surface as a SpecError with a location,
    # never as a raw traceback from the parser internals
    bad_inputs = [
        "",
        "field",
        "field Z quiver { vertices: 1 arrows: }",
        "field F\u00b2 quiver { vertices: 1 arrows: }",
        "field Q",
        "field Q quiver",
        "field Q quiver {",
        "field Q quiver { vertices: }",
        "field Q quiver { vertices: 1 }",
        "field Q quiver { vertices: 1 arrows: a }",
        "field Q quiver { vertices: 1 arrows: a: 1 }",
        "field Q quiver { vertices: 1 arrows: a: 1 -> }",
        "field Q quiver { vertices: 1 arrows: a: 1 -> 2 }",
        "field Q quiver { vertices: 1 arrows: } relations",
        "field Q quiver { vertices: 1 arrows: } relations {",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { x* }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { x*x } junk",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { (x*x }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { (x)^0 }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { (x)^\u00b2 }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { 3 }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { + }",
        "field Q quiver { vertices: 1 arrows: x: 1 -> 1 } relations { x*x ~ }",
        # labels are words: neither ',' nor '(' names a vertex, '-' no arrow
        "field Q quiver { vertices: ,, ( arrows: }",
        "field Q quiver { vertices: a arrows: -: a -> a }",
    ]
    for text in bad_inputs:
        with pytest.raises(SpecError) as exc:
            parse_spec(text)
        assert exc.value.line is not None and exc.value.col is not None, text


def test_print_round_trip_with_digit_named_arrows():
    # a leading int is read as a coefficient, so the printer keeps the 1
    # in front of a digit-named first arrow
    s = parse_spec("""
        field Q
        quiver { vertices: a, b  arrows: 1: a -> b, 2: b -> a }
        relations { (1*2)^2, 1*(2*1) }
    """)
    printed = print_spec(s)
    assert printed.endswith("relations { 1*1*2*1*2, 1*2*1 }\n")
    s2 = parse_spec(printed)
    assert (s2.field, s2.quiver, s2.relations) == (s.field, s.quiver, s.relations)
    assert print_spec(s2) == printed


def test_path_power_is_built_at_once_and_bounded_by_the_cutoff():
    loop = "field Q quiver {{ vertices: 1 arrows: x: 1 -> 1, y: 1 -> 1 }} relations {{ {} }}"
    (_, path), = parse_spec(loop.format("(x*y)^15")).relations[0].terms
    assert path.arrows == (0, 1) * 15
    # one copy of the arrows per power, not one composition per factor
    (_, path), = parse_spec(loop.format("(x)^100000"), degree_cutoff=100000).relations[0].terms
    assert path.length == 100000
    # neither closure reads a relation path longer than degree_cutoff
    with pytest.raises(SpecError, match="^line 1, col 79: path power of length 32 "
                                        "exceeds degree_cutoff=30$"):
        parse_spec(loop.format("(x*y)^16"))
    with pytest.raises(SpecError, match="col 77: path power of length 1000000000 exceeds"):
        parse_spec(loop.format("(x)^1000000000"))
    with pytest.raises(SpecError, match="col 69: path power of a non-loop path"):
        parse_spec("field Q quiver { vertices: 1, 2 arrows: a: 1 -> 2 } relations { (a)^2 }")


def test_round_trip_with_coefficients():
    s = parse_spec("""
        field F5
        quiver { vertices: 1, 2  arrows: a: 1 -> 2, b: 2 -> 1, c: 1 -> 1 }
        relations { 2*a*b - c*c + 4*c*c*c*c }
    """)
    s2 = parse_spec(print_spec(s))
    assert (s2.field, s2.quiver, s2.relations) == (s.field, s.quiver, s.relations)


@pytest.mark.parametrize("field", ["Q", "F101"])
def test_round_trip_with_fractional_coefficients(field):
    text = f"""
        field {field}
        quiver {{ vertices: 1  arrows: x: 1 -> 1, y: 1 -> 1 }}
        relations {{ 1/2*x*x - 3/4*y*y + 2*x*y, -3/4*y*x }}
    """
    s = parse_spec(text)
    F = s.field
    half, three_quarters = F.div(F.one, F.of_int(2)), F.div(F.of_int(3), F.of_int(4))
    assert [c for c, _ in s.relations[0].terms] == [half, F.neg(three_quarters), F.of_int(2)]
    assert [c for c, _ in s.relations[1].terms] == [F.neg(three_quarters)]
    printed = print_spec(s)
    s2 = parse_spec(printed)
    assert (s2.field, s2.quiver, s2.relations) == (s.field, s.quiver, s.relations)
    assert print_spec(s2) == printed
    if field == "Q":
        assert "1/2*x*x - 3/4*y*y + 2*x*y" in printed


@pytest.mark.parametrize("field, den", [("Q", "0"), ("F101", "0"), ("F101", "202")])
def test_zero_denominator_is_a_located_error(field, den):
    text = f"field {field}\nquiver {{ vertices: 1  arrows: x: 1 -> 1 }}\nrelations {{ 1/{den}*x*x }}"
    with pytest.raises(SpecError, match=f"line 3, col 15: zero denominator in '1/{den}'"):
        parse_spec(text)


_EDIT_CHARS = "{}:,+-*/()^#\n\t ->_axbyQF0123456789\u00b2\u00e9~!"


def _edited(rng, text):
    """text after one to three single-character inserts, deletes or replaces."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.choice("idr") if i < len(text) else "i"
        keep = text[i + 1:] if op in "dr" else text[i:]
        text = text[:i] + ("" if op == "d" else rng.choice(_EDIT_CHARS)) + keep
    return text


def test_edited_fixtures_fail_located_or_round_trip():
    # every seeded edit of a fixture text either fails with a located
    # SpecError or parses to a spec whose printed text parses back to the
    # same spec and prints byte for byte the same
    rng = random.Random(36)
    texts = list(_FIXTURE_TEXTS.values()) + [_tp1_text(n) for n in (1, 2, 3)]
    parsed = 0
    for _ in range(4000):
        text = _edited(rng, rng.choice(texts))
        try:
            s = parse_spec(text)
        except SpecError as e:
            assert e.line is not None and e.col is not None, (text, str(e))
            continue
        parsed += 1
        printed = print_spec(s)
        s2 = parse_spec(printed)
        assert (s2.field, s2.quiver, s2.relations) == (s.field, s.quiver, s.relations), text
        assert print_spec(s2) == printed, text
    assert parsed > 100
