"""Text format for presentations: tokenizer, parser, printer.

A source file is a sequence of blocks:

    operad Name {
      ops: a, b;
      rel: (x a y) b z = x a (y b z);
    }

Each relation equates two linear combinations of bracketed monomials.
The variables are literally x, y, z and always appear in that order;
only the operation symbols vary. A combination is "0" or a signed sum
of terms, each term an optional rational coefficient, a "*", and a
monomial of one of the two shapes "(x a y) b z" or "x a (y b z)".
Comments run from "#" to the end of the line.

Operation names may be any run of characters that avoids whitespace
and the punctuation "{}();,=+-/:" and does not start with a digit or
"*". The starred names produced by dualization ("a*") are therefore
valid identifiers, which is why the printer always separates symbols
with spaces.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import _Record, _set, span
from .presentations import (
    GeneratorSet,
    Presentation,
    RelVector,
    left_index,
    right_index,
)

__all__ = [
    "Token",
    "Diagnostic",
    "ParseResult",
    "tokenize",
    "parse",
    "parse_relation",
    "format_relation",
    "print_presentation",
]

PUNCT = "{}();,=+-*/:"

# '*' may continue an identifier but cannot start one, so dual names
# round-trip while a free-standing '*' still reads as multiplication
_IDENT_STOP = set("{}();,=+-/:") | {"#"}


class Token(_Record):
    """One lexeme: its kind, its text and its 1-based position."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "column", column)


class Diagnostic(_Record):
    """A positioned message; line and column are 1-based."""

    __slots__ = ("line", "column", "message", "severity")

    def __init__(self, line: int, column: int, message: str, severity: str = "error") -> None:
        _set(self, "line", line)
        _set(self, "column", column)
        _set(self, "message", message)
        _set(self, "severity", severity)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class ParseResult(_Record):
    """The presentations parsed, by name, and every diagnostic raised."""

    __slots__ = ("presentations", "diagnostics")

    def __init__(
        self, presentations: dict[str, Presentation], diagnostics: tuple[Diagnostic, ...]
    ) -> None:
        _set(self, "presentations", presentations)
        _set(self, "diagnostics", diagnostics)

    @property
    def ok(self) -> bool:
        return all(d.severity != "error" for d in self.diagnostics)


def tokenize(text: str) -> tuple[Token, ...]:
    """Split source text into tokens; never fails, ends with an eof token."""
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = column
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch in PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            column += 1
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _IDENT_STOP:
            j += 1
        tokens.append(Token("ident", text[i:j], line, start_col))
        column += j - i
        i = j
    tokens.append(Token("eof", "", line, column))
    return tuple(tokens)


class _Cursor(_Record):
    """Parser position and the diagnostics so far: the one mutable record."""

    __slots__ = ("tokens", "pos", "diagnostics")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, tokens: tuple[Token, ...], pos: int = 0, diagnostics: list[Diagnostic] | None = None
    ) -> None:
        self.tokens = tokens
        self.pos = pos
        self.diagnostics = [] if diagnostics is None else diagnostics

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    def error(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic(tok.line, tok.column, message))

    def expect_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        self.error(f"expected '{text}'")
        return False

    def sync_to_semicolon(self) -> None:
        """Skip past the next ';', stopping before '}' or end of input."""
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (
                tok.kind == "punct" and tok.text == "}"
            ):
                return
            self.advance()
            if tok.kind == "punct" and tok.text == ";":
                return


class _RelationParser:
    """Parses one relation into a vector over a fixed operation list."""

    def __init__(
        self,
        cursor: _Cursor,
        names: tuple[str, ...],
        alias_map: dict[str, str] | None = None,
    ) -> None:
        self.cursor = cursor
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.alias_map = alias_map or {}

    def parse(self) -> RelVector | None:
        k = len(self.names)
        coords = [Fraction(0)] * (2 * k * k)
        left = self._lincomb()
        if left is None or not self.cursor.expect_punct("="):
            return None
        right = self._lincomb()
        if right is None:
            return None
        for coeff, slot in left:
            coords[slot] += coeff
        for coeff, slot in right:
            coords[slot] -= coeff
        return RelVector(tuple(coords))

    def _lincomb(self) -> list[tuple[Fraction, int]] | None:
        cur = self.cursor
        if (
            cur.peek().kind == "int"
            and cur.peek().text == "0"
            and not (
                cur.peek(1).kind == "punct" and cur.peek(1).text in "*/"
            )
        ):
            cur.advance()
            return []
        sign = Fraction(1)
        if cur.at_punct("-"):
            cur.advance()
            sign = Fraction(-1)
        terms: list[tuple[Fraction, int]] = []
        first = self._term()
        if first is None:
            return None
        terms.append((sign * first[0], first[1]))
        while cur.at_punct("+") or cur.at_punct("-"):
            sep = cur.advance()
            nxt = self._term()
            if nxt is None:
                return None
            sep_sign = Fraction(-1 if sep.text == "-" else 1)
            terms.append((sep_sign * nxt[0], nxt[1]))
        return terms

    def _term(self) -> tuple[Fraction, int] | None:
        cur = self.cursor
        coeff = Fraction(1)
        negated = False
        if cur.at_punct("-"):
            cur.advance()
            negated = True
        if cur.peek().kind == "int":
            num = int(cur.advance().text)
            if cur.at_punct("/"):
                cur.advance()
                if cur.peek().kind != "int":
                    cur.error("expected a denominator")
                    return None
                denom = int(cur.advance().text)
                if denom == 0:
                    cur.error("denominator must be positive")
                    return None
                coeff = Fraction(num, denom)
            else:
                coeff = Fraction(num)
            if negated:
                coeff = -coeff
            if not cur.expect_punct("*"):
                return None
        elif negated:
            cur.error("expected a number after '-'")
            return None
        slot = self._monomial()
        if slot is None:
            return None
        return coeff, slot

    def _monomial(self) -> int | None:
        cur = self.cursor
        k = len(self.names)
        if cur.at_punct("("):
            cur.advance()
            if not self._variable("x"):
                return None
            i = self._operation()
            if i is None or not self._variable("y"):
                return None
            if not cur.expect_punct(")"):
                return None
            j = self._operation()
            if j is None or not self._variable("z"):
                return None
            return left_index(k, i, j)
        if cur.peek().kind == "ident":
            if not self._variable("x"):
                return None
            i = self._operation()
            if i is None or not cur.expect_punct("("):
                return None
            if not self._variable("y"):
                return None
            j = self._operation()
            if j is None or not self._variable("z"):
                return None
            if not cur.expect_punct(")"):
                return None
            return right_index(k, i, j)
        cur.error("expected a monomial")
        return None

    def _variable(self, name: str) -> bool:
        cur = self.cursor
        tok = cur.peek()
        if tok.kind == "ident" and tok.text == name:
            cur.advance()
            return True
        cur.error(f"malformed monomial: expected variable {name}", tok)
        return False

    def _operation(self) -> int | None:
        cur = self.cursor
        tok = cur.peek()
        if tok.kind != "ident":
            cur.error("expected an operation name", tok)
            return None
        cur.advance()
        name = tok.text
        if name in self.index:
            return self.index[name]
        alias = self.alias_map.get(name)
        if alias is not None and alias in self.index:
            return self.index[alias]
        cur.error(f"undeclared operation {name}", tok)
        return None


def _parse_operad(
    cur: _Cursor, result: dict[str, Presentation]
) -> None:
    cur.advance()
    name_tok = cur.peek()
    if name_tok.kind != "ident":
        cur.error("expected an operad name")
        _skip_block(cur)
        return
    cur.advance()
    duplicate = name_tok.text in result
    if duplicate:
        cur.error(f"duplicate operad name {name_tok.text}", name_tok)
    if not cur.expect_punct("{"):
        _skip_block(cur)
        return
    if not (cur.at_ident("ops") and _punct_after(cur)):
        cur.error("expected 'ops:'")
        _skip_block(cur)
        return
    cur.advance()
    cur.advance()
    names = _ident_list(cur)
    if names is None:
        _skip_block(cur)
        return
    cur.expect_punct(";")
    k = len(names)
    vectors: list[RelVector] = []
    while True:
        if cur.at_ident("rel"):
            cur.advance()
            if not cur.expect_punct(":"):
                cur.sync_to_semicolon()
                continue
            vector = _RelationParser(cur, names).parse()
            if vector is None:
                cur.sync_to_semicolon()
                continue
            if not cur.expect_punct(";"):
                cur.sync_to_semicolon()
                continue
            vectors.append(vector)
            continue
        if cur.at_punct("}"):
            cur.advance()
            break
        if cur.peek().kind == "eof":
            cur.error("unexpected end of input inside an operad block")
            break
        cur.error("expected 'rel:' or '}'")
        cur.sync_to_semicolon()
        if cur.peek().kind == "eof":
            break
    if duplicate:
        return
    result[name_tok.text] = Presentation(
        GeneratorSet(names),
        span([v.coordinates for v in vectors], 2 * k * k),
    )


def _punct_after(cur: _Cursor) -> bool:
    nxt = cur.peek(1)
    return nxt.kind == "punct" and nxt.text == ":"


def _ident_list(cur: _Cursor) -> tuple[str, ...] | None:
    names: list[str] = []
    while True:
        tok = cur.peek()
        if tok.kind != "ident":
            cur.error("expected an operation name")
            return None
        cur.advance()
        if tok.text in names:
            cur.error(f"duplicate operation name {tok.text}", tok)
        else:
            names.append(tok.text)
        if cur.at_punct(","):
            cur.advance()
            continue
        return tuple(names)


def _skip_block(cur: _Cursor) -> None:
    """Recover after a malformed header: skip to the end of the block."""
    while True:
        tok = cur.peek()
        if tok.kind == "eof":
            return
        if tok.kind == "punct" and tok.text == "}":
            cur.advance()
            return
        if tok.kind == "ident" and tok.text == "operad":
            return
        cur.advance()


def parse(text: str) -> ParseResult:
    """Parse source text into named presentations plus diagnostics.

    Parsing never raises on bad input; every problem becomes a
    positioned Diagnostic and recovery continues at the next ';' or
    block boundary. A presentation is produced for every block whose
    header parsed, spanning exactly the relations that parsed cleanly.
    """
    cur = _Cursor(tokenize(text))
    result: dict[str, Presentation] = {}
    while True:
        tok = cur.peek()
        if tok.kind == "eof":
            break
        if tok.kind == "ident" and tok.text == "operad":
            _parse_operad(cur, result)
            continue
        cur.error("expected 'operad'")
        _skip_to_next_block(cur)
    return ParseResult(result, tuple(cur.diagnostics))


def _skip_to_next_block(cur: _Cursor) -> None:
    while True:
        tok = cur.peek()
        if tok.kind == "eof":
            return
        if tok.kind == "ident" and tok.text == "operad":
            return
        cur.advance()


def parse_relation(
    text: str,
    names: tuple[str, ...],
    alias_map: dict[str, str] | None = None,
) -> tuple[RelVector | None, tuple[Diagnostic, ...]]:
    """Parse a single relation string against a fixed operation list.

    Used for command-line supplied relations, where ASCII aliases for
    the built-in symbols are convenient; alias_map entries apply only
    when the alias target is among the declared names.
    """
    cur = _Cursor(tokenize(text))
    vector = _RelationParser(cur, names, alias_map).parse()
    if vector is not None and cur.peek().kind != "eof":
        cur.error("unexpected trailing input after the relation")
        vector = None
    return vector, tuple(cur.diagnostics)


def _coefficient_prefix(coeff: Fraction) -> str:
    if coeff == 1:
        return ""
    return f"{coeff} * "


def _side_text(terms: list[tuple[Fraction, str]]) -> str:
    if not terms:
        return "0"
    pieces: list[str] = []
    first_coeff, first_mono = terms[0]
    if first_coeff < 0:
        pieces.append(f"-{_coefficient_prefix(-first_coeff)}{first_mono}")
    else:
        pieces.append(f"{_coefficient_prefix(first_coeff)}{first_mono}")
    for coeff, mono in terms[1:]:
        sep = " - " if coeff < 0 else " + "
        pieces.append(f"{sep}{_coefficient_prefix(abs(coeff))}{mono}")
    return "".join(pieces)


def format_relation(vector: RelVector, names: tuple[str, ...]) -> str:
    """Render one relation vector in the source grammar.

    The stored vector is "left side minus right side", so right-block
    coordinates flip sign on the way out. A vector supported only on
    the right block is negated first so the leading term prints
    positively; the spanned subspace is unchanged.
    """
    k = len(names)
    coords = vector.coordinates
    lhs: list[tuple[Fraction, str]] = []
    rhs: list[tuple[Fraction, str]] = []
    for i in range(k):
        for j in range(k):
            c = coords[left_index(k, i, j)]
            if c:
                lhs.append((c, f"(x {names[i]} y) {names[j]} z"))
    for i in range(k):
        for j in range(k):
            c = -coords[right_index(k, i, j)]
            if c:
                rhs.append((c, f"x {names[i]} (y {names[j]} z)"))
    if not lhs and rhs and rhs[0][0] < 0:
        rhs = [(-c, mono) for c, mono in rhs]
    return f"{_side_text(lhs)} = {_side_text(rhs)}"


def _is_valid_name(name: str) -> bool:
    tokens = tokenize(name)
    return (
        len(tokens) == 2
        and tokens[0].kind == "ident"
        and tokens[0].text == name
    )


def print_presentation(p: Presentation, name: str = "P") -> str:
    """Render a presentation as source text.

    Relations come out as the reduced row echelon basis of the
    relation subspace, one per line, so reparsing the output yields a
    presentation with the identical subspace and printing is a fixed
    point after one round.
    """
    if not _is_valid_name(name):
        raise ValueError(f"not a valid operad name: {name!r}")
    for op in p.generators.names:
        if not _is_valid_name(op) or op == "operad":
            raise ValueError(f"operation name does not survive printing: {op!r}")
    lines = [f"operad {name} {{"]
    lines.append(f"  ops: {', '.join(p.generators.names)};")
    for row in p.relation_rows():
        lines.append(f"  rel: {format_relation(row, p.generators.names)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
