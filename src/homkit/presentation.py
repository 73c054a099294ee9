"""Quivers with relations: data model, the ``.qa`` text format, and paths.

Path composition is left-to-right throughout the package: ``compose(a, b)``
is "a then b", defined when ``target(a) == source(b)``.  Consequently a
basis element tagged (i, j) starts at vertex i and ends at vertex j, and
e_i * A is the span of paths starting at i.
"""

from __future__ import annotations

import re
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


# A newline, a blank run, a comment, a punctuation literal, a word (\w is
# exactly isalnum() or '_'), or any other character, which is an error.
_TOKEN = re.compile(r"(?P<nl>\n)|[ \t\r]+|#[^\n]*|(?P<punct>->|[{}:,+\-*/()^])"
                    r"|(?P<word>\w+)|(?P<bad>.)", re.S)


def _is_int(word: str) -> bool:
    return word.isascii() and word.isdigit()


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise SpecError(f"unexpected character {word!r}", line, col)
        elif kind == "word":
            toks.append(_Token("int" if _is_int(word) else "id", word, line, col))
        elif kind == "punct":
            toks.append(_Token(word, word, line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def _err(self, message: str):
        """Raise at the next token, or past the last one at end of input."""
        if self.pos >= len(self.toks):
            message += " (at end of input)"
        t = self.toks[min(self.pos, len(self.toks) - 1)] if self.toks else _Token("", "", 1, 1)
        raise SpecError(message, t.line, t.col)

    def peek(self) -> _Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            self._err("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        if not self.at(kind):
            self._err(f"expected {kind!r}")
        return self.next()

    def at(self, kind: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind

    def label(self, what: str) -> _Token:
        """The next token, which must be a word (an id or an int)."""
        t = self.next()
        if t.kind not in ("id", "int"):
            raise SpecError(f"expected {what}", t.line, t.col)
        return t

    def keyword(self, word: str, message: str) -> _Token:
        t = self.next()
        if t.text != word:
            raise SpecError(message, t.line, t.col)
        return t

    def items(self, parse_one) -> list:
        """One or more ``parse_one()`` results separated by commas."""
        out = [parse_one()]
        while self.at(","):
            self.next()
            out.append(parse_one())
        return out


def parse_spec(text: str, name: str = "", degree_cutoff: int = 30) -> AlgebraSpec:
    """Parse the .qa DSL into a validated :class:`AlgebraSpec`.

    Grammar (comments run from '#' to end of line)::

        file      := fieldDecl quiverDecl relDecl?
        fieldDecl := "field" ("Q" | "F" integer)
        quiverDecl:= "quiver" "{" "vertices:" labelList "arrows:" arrowList? "}"
        arrow     := label ":" label "->" label
        relDecl   := "relations" "{" relList "}"
        rel       := ["-"] term (("+"|"-") term)*
        term      := [coeff "*"] pathExpr
        coeff     := int ["/" int]
        pathExpr  := factor ("*" factor)*
        factor    := label | "(" pathExpr ")" ["^" int]

    A label is a word of letters, digits and '_'.  A leading integer literal
    in a term is read as a coefficient, which may be a fraction ``a/b`` with
    b non-zero in the field.  Labels in a path resolve to arrows first, then
    to vertices (a vertex denotes the trivial path, which is only legal as a
    factor, never as a whole relation path).  A power longer than
    ``degree_cutoff`` is an error: no closure reads a relation path that long.
    """
    p = _Parser(_tokenize(text))

    p.keyword("field", "expected 'field'")
    t = p.next()
    if t.text == "Q":
        fld = Field.rationals()
    elif t.text == "F":
        m = p.expect("int")
        fld = _prime_field(m, m.text)
    elif t.text.startswith("F") and _is_int(t.text[1:]):
        fld = _prime_field(t, t.text[1:])
    else:
        raise SpecError(f"unknown field {t.text!r}", t.line, t.col)

    quiver_tok = p.keyword("quiver", "expected 'quiver'")
    p.expect("{")
    p.keyword("vertices", "expected 'vertices:'")
    p.expect(":")
    vlabels = p.items(lambda: p.label("vertex label").text)
    kw = p.keyword("arrows", "expected 'arrows:'")
    p.expect(":")
    vset = {v: i for i, v in enumerate(vlabels)}
    if len(vset) != len(vlabels):
        raise SpecError("duplicate vertex label", kw.line, kw.col)

    def parse_arrow() -> Arrow:
        nm = p.label("arrow label")
        p.expect(":")
        s = p.next()
        p.expect("->")
        tgt = p.next()
        for tok in (s, tgt):
            if tok.text not in vset:
                raise SpecError(f"unknown vertex {tok.text!r}", tok.line, tok.col)
        return Arrow(nm.text, vset[s.text], vset[tgt.text])

    arrows = [] if p.at("}") else p.items(parse_arrow)
    p.expect("}")
    try:
        quiver = Quiver(tuple(vlabels), tuple(arrows))
    except SpecError as e:
        raise SpecError(str(e), quiver_tok.line, quiver_tok.col) from None

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
                if n > 1 and inner.source != inner.target:
                    raise SpecError("path power of a non-loop path", e.line, e.col)
                if n * inner.length > degree_cutoff:
                    raise SpecError(f"path power of length {n * inner.length} exceeds "
                                    f"degree_cutoff={degree_cutoff}", e.line, e.col)
                return Path(inner.source, inner.target, inner.arrows * n)
            return inner
        t = p.label("path factor")
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
            path = compose(path, parse_factor())
            if path is None:
                raise SpecError("paths do not compose (endpoint mismatch)",
                                nxt_tok.line, nxt_tok.col)
        return path

    def parse_term(sign: int):
        coeff = fld.of_int(sign)
        # A leading integer literal is always a coefficient and must be
        # followed by '*', so a term whose first arrow is digit-named needs one.
        if p.at("int"):
            scalar = p.next().text
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

    def parse_rel() -> Relation:
        sign = 1
        if p.at("-"):
            p.next()
            sign = -1
        terms = [parse_term(sign)]
        while p.at("+") or p.at("-"):
            terms.append(parse_term(1 if p.next().text == "+" else -1))
        rel = Relation(tuple(terms))
        try:
            rel.validate()
        except SpecError as e:
            tok = p.toks[p.pos - 1]
            raise SpecError(str(e), tok.line, tok.col) from None
        return rel

    relations: list[Relation] = []
    if p.peek() is not None:
        p.keyword("relations", "expected 'relations'")
        p.expect("{")
        # the relations block, when present, must not be empty (drop the
        # whole block instead)
        relations = p.items(parse_rel)
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
            for c, path in rel.terms:
                labels = [q.arrows[i].label for i in path.arrows]
                mag = str(c).removeprefix("-")
                sign = "+" if mag == str(c) else "-"
                # a digit-named first arrow keeps its coefficient 1, which
                # the parser would otherwise read it as
                if mag != "1" or _is_int(labels[0]):
                    labels.insert(0, mag)
                parts.append(f" {sign} " + "*".join(labels) if parts
                             else sign.strip("+") + "*".join(labels))
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
