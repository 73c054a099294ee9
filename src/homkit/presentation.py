"""Quivers with relations: data model, the ``.qa`` text format, and paths.

Path composition is left-to-right throughout the package: ``compose(a, b)``
is "a then b", defined when ``target(a) == source(b)``.  Consequently a
basis element tagged (i, j) starts at vertex i and ends at vertex j, and
e_i * A is the span of paths starting at i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Field, FieldError


class SpecError(ValueError):
    """Raised for invalid presentations (syntax or semantic)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Arrow:
    label: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertex_labels: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        names = list(self.vertex_labels) + [a.label for a in self.arrows]
        if len(set(names)) != len(names):
            raise SpecError("labels must be unique across vertices and arrows")
        n = len(self.vertex_labels)
        for a in self.arrows:
            if not (0 <= a.source < n and 0 <= a.target < n):
                raise SpecError(f"arrow {a.label}: vertex index out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)


@dataclass(frozen=True)
class Path:
    """A path: arrow indices composed left to right. Length 0 means e_source."""

    source: int
    target: int
    arrows: tuple[int, ...] = ()

    @property
    def length(self) -> int:
        return len(self.arrows)


def trivial_path(vertex: int) -> Path:
    return Path(vertex, vertex, ())


def arrow_path(quiver: Quiver, arrow_index: int) -> Path:
    a = quiver.arrows[arrow_index]
    return Path(a.source, a.target, (arrow_index,))


def compose(p: Path, q: Path) -> Path | None:
    """Concatenation "p then q"; None when the endpoints do not match."""
    if p.target != q.source:
        return None
    return Path(p.source, q.target, p.arrows + q.arrows)


@dataclass(frozen=True)
class Relation:
    """A k-linear combination of parallel paths of length >= 2."""

    terms: tuple[tuple[object, Path], ...]  # (coefficient, path)

    @property
    def source(self) -> int:
        return self.terms[0][1].source

    @property
    def target(self) -> int:
        return self.terms[0][1].target

    def validate(self):
        if not self.terms:
            raise SpecError("empty relation")
        s, t = self.source, self.target
        for _, p in self.terms:
            if (p.source, p.target) != (s, t):
                raise SpecError("relation mixes non-parallel paths")
            if p.length < 2:
                raise SpecError(
                    f"relation contains a path of length {p.length}; admissible "
                    "relations only involve paths of length >= 2")


@dataclass(frozen=True)
class AlgebraSpec:
    field: Field
    quiver: Quiver
    relations: tuple[Relation, ...] = ()
    degree_cutoff: int = 30
    name: str = ""

    def __post_init__(self):
        for r in self.relations:
            r.validate()


def enumerate_paths(quiver: Quiver, max_length: int) -> list[list[Path]]:
    """All paths of length <= max_length, grouped by length.

    Order within a length is lexicographic by arrow-index sequence (and for
    length 0, by vertex index), so enumeration is deterministic.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    by_len: list[list[Path]] = [[trivial_path(v) for v in range(quiver.num_vertices)]]
    by_src: dict[int, list[int]] = {}
    for i, a in enumerate(quiver.arrows):
        by_src.setdefault(a.source, []).append(i)
    for _ in range(max_length):
        nxt = []
        for p in by_len[-1]:
            for i in by_src.get(p.target, ()):
                nxt.append(Path(p.source, quiver.arrows[i].target, p.arrows + (i,)))
        nxt.sort(key=lambda p: p.arrows)
        by_len.append(nxt)
    return by_len


# --------------------------------------------------------------------------
# .qa tokenizer / parser
# --------------------------------------------------------------------------

@dataclass
class _Token:
    kind: str  # 'id', 'int', or a punctuation literal
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}:,+-*/()^":
            toks.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "int" if word.isascii() and word.isdigit() else "id"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise SpecError(f"unexpected character {ch!r}", line, col)
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def _err(self, message: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise SpecError(message, t.line, t.col)
        last = self.toks[-1] if self.toks else None
        raise SpecError(message + " (at end of input)",
                        last.line if last else 1, last.col if last else 1)

    def peek(self) -> _Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            self._err("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t is None or t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self._err(f"expected {want!r}")
        return self.next()

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind and (text is None or t.text == text)

def parse_spec(text: str, name: str = "", degree_cutoff: int = 30) -> AlgebraSpec:
    """Parse the .qa DSL into a validated :class:`AlgebraSpec`.

    Grammar (comments run from '#' to end of line)::

        file      := fieldDecl quiverDecl relDecl?
        fieldDecl := "field" ("Q" | "F" integer)
        quiverDecl:= "quiver" "{" "vertices:" idList "arrows:" arrowList? "}"
        arrow     := id ":" id "->" id
        relDecl   := "relations" "{" relList "}"
        rel       := ["-"] term (("+"|"-") term)*
        term      := [coeff "*"] pathExpr
        coeff     := int ["/" int]
        pathExpr  := factor ("*" factor)*
        factor    := id | "(" pathExpr ")" ["^" int]

    A leading integer literal in a term is read as a coefficient, which may
    be a fraction ``a/b`` with b non-zero in the field.  Identifiers in a
    path resolve to arrows first, then to vertices (a vertex id denotes the
    trivial path, which is only legal as a factor, never as a whole relation
    path).
    """
    p = _Parser(_tokenize(text))

    # field
    t = p.next()
    if not (t.kind in ("id", "int") and t.text == "field"):
        raise SpecError("expected 'field'", t.line, t.col)
    t = p.next()
    if t.text == "Q":
        fld = Field.rationals()
    elif t.text == "F":
        m = p.expect("int")
        fld = _prime_field(m, m.text)
    elif t.text.startswith("F") and t.text[1:].isascii() and t.text[1:].isdigit():
        fld = _prime_field(t, t.text[1:])
    else:
        raise SpecError(f"unknown field {t.text!r}", t.line, t.col)

    # quiver
    t = p.next()
    if t.text != "quiver":
        raise SpecError("expected 'quiver'", t.line, t.col)
    p.expect("{")
    kw = p.next()
    if kw.text != "vertices":
        raise SpecError("expected 'vertices:'", kw.line, kw.col)
    p.expect(":")
    vlabels = [p.next().text]
    while p.at(","):
        p.next()
        vlabels.append(p.next().text)
    kw = p.next()
    if kw.text != "arrows":
        raise SpecError("expected 'arrows:'", kw.line, kw.col)
    p.expect(":")
    arrows: list[Arrow] = []
    vset = {v: i for i, v in enumerate(vlabels)}
    if len(vset) != len(vlabels):
        raise SpecError("duplicate vertex label", kw.line, kw.col)

    def parse_arrow():
        nm = p.next()
        p.expect(":")
        s = p.next()
        p.expect("->")
        tgt = p.next()
        for v, tok in ((s.text, s), (tgt.text, tgt)):
            if v not in vset:
                raise SpecError(f"unknown vertex {v!r}", tok.line, tok.col)
        arrows.append(Arrow(nm.text, vset[s.text], vset[tgt.text]))

    if not p.at("}"):
        parse_arrow()
        while p.at(","):
            p.next()
            parse_arrow()
    p.expect("}")
    try:
        quiver = Quiver(tuple(vlabels), tuple(arrows))
    except SpecError as e:
        raise SpecError(str(e), t.line, t.col) from None

    aidx = {a.label: i for i, a in enumerate(arrows)}

    def parse_factor() -> Path:
        if p.at("("):
            p.next()
            inner = parse_path_expr()
            p.expect(")")
            if p.at("^"):
                p.next()
                e = p.expect("int")
                n = int(e.text)
                if n < 1:
                    raise SpecError("power must be >= 1", e.line, e.col)
                total = inner
                for _ in range(n - 1):
                    nxt = compose(total, inner)
                    if nxt is None:
                        raise SpecError("path power of a non-loop path", e.line, e.col)
                    total = nxt
                return total
            return inner
        t = p.next()
        if t.kind not in ("id", "int"):
            raise SpecError("expected path factor", t.line, t.col)
        if t.text in aidx:
            return arrow_path(quiver, aidx[t.text])
        if t.text in vset:
            return trivial_path(vset[t.text])
        raise SpecError(f"unknown identifier {t.text!r}", t.line, t.col)

    def parse_path_expr() -> Path:
        path = parse_factor()
        while p.at("*"):
            p.next()
            nxt_tok = p.peek()
            nxt = parse_factor()
            comp = compose(path, nxt)
            if comp is None:
                raise SpecError("paths do not compose (endpoint mismatch)",
                                nxt_tok.line, nxt_tok.col)
            path = comp
        return path

    def parse_term(sign: int):
        coeff = fld.of_int(sign)
        t = p.peek()
        # A leading integer literal is always a coefficient and must be
        # followed by '*'.  (Digit-named vertices therefore cannot start a
        # path term; admissible relations never need that anyway.)
        if t is not None and t.kind == "int":
            p.next()
            scalar = t.text
            if p.at("/"):
                p.next()
                den = p.expect("int")
                scalar += "/" + den.text
                if fld.of_int(int(den.text)) == 0:
                    raise SpecError(f"zero denominator in {scalar!r}", den.line, den.col)
            p.expect("*")
            coeff = fld.mul(coeff, fld.parse(scalar))
        path = parse_path_expr()
        return coeff, path

    relations: list[Relation] = []
    if p.peek() is not None:
        t = p.next()
        if t.text != "relations":
            raise SpecError("expected 'relations'", t.line, t.col)
        p.expect("{")

        def parse_rel():
            terms = []
            sign = 1
            if p.at("-"):
                p.next()
                sign = -1
            terms.append(parse_term(sign))
            while p.at("+") or p.at("-"):
                s = 1 if p.next().text == "+" else -1
                terms.append(parse_term(s))
            rel = Relation(tuple(terms))
            try:
                rel.validate()
            except SpecError as e:
                tok = p.toks[p.pos - 1]
                raise SpecError(str(e), tok.line, tok.col) from None
            relations.append(rel)

        # the relations block, when present, must not be empty (drop the
        # whole block instead)
        parse_rel()
        while p.at(","):
            p.next()
            parse_rel()
        p.expect("}")

    if p.peek() is not None:
        p._err("trailing input")

    return AlgebraSpec(fld, quiver, tuple(relations), degree_cutoff=degree_cutoff, name=name)


def _prime_field(tok: _Token, digits: str) -> Field:
    """F_p for the modulus written in ``digits``, an error located at tok."""
    try:
        return Field.prime(int(digits))
    except FieldError as e:
        raise SpecError(str(e), tok.line, tok.col) from None


def print_spec(spec: AlgebraSpec) -> str:
    """Canonical .qa text; parse(print_spec(s)) reproduces s."""
    q = spec.quiver
    lines = [f"field {spec.field.name()}"]
    arrows = ", ".join(f"{a.label}: {q.vertex_labels[a.source]} -> {q.vertex_labels[a.target]}"
                       for a in q.arrows)
    lines.append("quiver { vertices: " + ", ".join(q.vertex_labels)
                 + "  arrows: " + arrows + " }")
    if spec.relations:
        rel_texts = []
        for rel in spec.relations:
            parts = []
            for k, (c, path) in enumerate(rel.terms):
                word = "*".join(q.arrows[i].label for i in path.arrows)
                cstr = str(c)
                if cstr == "1":
                    term = word
                    sign = "+"
                elif cstr == "-1":
                    term = word
                    sign = "-"
                else:
                    if cstr.startswith("-"):
                        sign = "-"
                        cstr = cstr[1:]
                    else:
                        sign = "+"
                    term = f"{cstr}*{word}"
                if k == 0:
                    parts.append(term if sign == "+" else "-" + term)
                else:
                    parts.append(f" {sign} {term}")
            rel_texts.append("".join(parts))
        lines.append("relations { " + ", ".join(rel_texts) + " }")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# named fixtures
# --------------------------------------------------------------------------

_FIXTURE_TEXTS: dict[str, str] = {
    "FIX-A2": """
        field Q
        quiver { vertices: 1, 2  arrows: a: 1 -> 2 }
    """,
    "FIX-TP2": """
        field Q
        quiver { vertices: 1, 2
                 arrows: alpha: 1 -> 2, beta: 2 -> 1, gamma: 1 -> 1, delta: 2 -> 2 }
        relations { alpha*beta, beta*alpha, gamma*gamma, delta*delta,
                    gamma*alpha - alpha*delta, delta*beta - beta*gamma }
    """,
    "FIX-LOC": """
        field Q
        quiver { vertices: 1  arrows: x: 1 -> 1 }
        relations { x*x }
    """,
    "FIX-TRI0": """
        field Q
        quiver { vertices: 1, 2  arrows: m: 2 -> 1 }
    """,
}


def _tp1_text(n: int) -> str:
    return f"""
        field Q
        quiver {{ vertices: 1, 2  arrows: alpha: 1 -> 2, beta: 2 -> 1 }}
        relations {{ (alpha*beta)^{n}, (beta*alpha)^{n} }}
    """


def spec_of_fixture(name: str) -> AlgebraSpec:
    """Return the named fixture presentation (FIX-A2, FIX-TP1(n), FIX-TP2,
    FIX-LOC, FIX-TRI0).  FIX-TP1 takes its power either as ``FIX-TP1(2)``
    or ``FIX-TP1-2``.
    """
    key = name.strip()
    if key.endswith(".qa"):
        key = key[:-3]
    norm = key.upper()
    if norm.startswith("FIX-TP1") and len(norm) > len("FIX-TP1"):
        rest = norm[len("FIX-TP1"):]
        rest = rest.strip("()-")
        if not (rest.isascii() and rest.isdigit()) or int(rest) < 1:
            raise SpecError(f"bad FIX-TP1 parameter in {name!r}")
        n = int(rest)
        return parse_spec(_tp1_text(n), name=f"FIX-TP1({n})")
    if norm in _FIXTURE_TEXTS:
        return parse_spec(_FIXTURE_TEXTS[norm], name=norm)
    raise SpecError(f"unknown fixture {name!r}")
