"""Text format for presentations: tokenizer, parser, printer.

A source file is a sequence of blocks:

    operad Name {
      ops: a, b;
      rel: (x a y) b z = x a (y b z);
    }

Each relation equates two linear combinations of bracketed monomials.
The variables are literally x, y, z and always appear in that order;
only the operation symbols vary. A combination is "0" or a signed sum
of terms, each term an optional rational coefficient in the ASCII
digits 0-9 ("3" or "1/2"), a "*", and a monomial of one of the two
shapes "(x a y) b z" or "x a (y b z)". Comments run from "#" to the end
of the line.

Operation names may be any run of characters that avoids whitespace
and the punctuation "{}();,=+-/:" and does not start with an ASCII
digit or "*". The starred names produced by dualization ("a*") are
therefore valid identifiers, which is why the printer always separates
symbols with spaces. "operad" cannot name an operation: it opens a
block.
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
        j = i + 1
        if "0" <= ch <= "9":
            kind = "int"
            while j < n and "0" <= text[j] <= "9":
                j += 1
        elif ch in PUNCT:
            kind = "punct"
        else:
            kind = "ident"
            while j < n and not text[j].isspace() and text[j] not in _IDENT_STOP:
                j += 1
        tokens.append(Token(kind, text[i:j], line, column))
        column += j - i
        i = j
    tokens.append(Token("eof", "", line, column))
    return tuple(tokens)


class _Cursor:
    """Parser position over the tokens, and the diagnostics so far."""

    __slots__ = ("tokens", "pos", "diagnostics")

    def __init__(self, tokens: tuple[Token, ...]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str, kind: str = "punct", ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and tok.text == text

    def error(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic(tok.line, tok.column, message))

    def expect(self, text: str) -> bool:
        """Consume the punctuation ``text``, or report that it is missing."""
        if self.at(text):
            self.advance()
            return True
        self.error(f"expected '{text}'")
        return False

    def skip(self, through: str | None, stop: str) -> None:
        """Recover from an error: skip tokens up to and including the
        punctuation ``through``, stopping before the end of input or a
        token whose text is ``stop``.

        Texts alone tell the kinds apart here: '}' and ';' can only be
        punctuation, and 'operad' only an identifier.
        """
        while self.peek().kind != "eof" and self.peek().text != stop:
            if self.advance().text == through:
                return


def _relation(
    cur: _Cursor, names: tuple[str, ...], alias_map: dict[str, str] | None = None
) -> RelVector | None:
    """Parse one relation into a vector over the operations ``names``.

    An alias counts only when its target is declared, and a declared
    name wins over an alias of the same spelling.
    """
    index = {name: i for i, name in enumerate(names)}
    if alias_map:
        aliases = {alias: index[t] for alias, t in alias_map.items() if t in index}
        index = {**aliases, **index}
    k = len(names)
    left = _lincomb(cur, index, k)
    if left is None or not cur.expect("="):
        return None
    right = _lincomb(cur, index, k)
    if right is None:
        return None
    coords: list[int | Fraction] = [0] * (2 * k * k)
    for coeff, slot in left:
        coords[slot] += coeff
    for coeff, slot in right:
        coords[slot] -= coeff
    return RelVector(tuple(coords))


def _lincomb(
    cur: _Cursor, index: dict[str, int], k: int
) -> list[tuple[int | Fraction, int]] | None:
    if cur.at("0", "int") and not (cur.at("*", ahead=1) or cur.at("/", ahead=1)):
        cur.advance()
        return []
    # the sign before each term: an optional leading '-', then '+' or '-'
    sign = cur.advance().text if cur.at("-") else "+"
    terms: list[tuple[int | Fraction, int]] = []
    while True:
        term = _term(cur, index, k)
        if term is None:
            return None
        coeff, slot = term
        terms.append((-coeff if sign == "-" else coeff, slot))
        if not (cur.at("+") or cur.at("-")):
            return terms
        sign = cur.advance().text


def _term(cur: _Cursor, index: dict[str, int], k: int) -> tuple[int | Fraction, int] | None:
    coeff: int | Fraction = 1
    negated = cur.at("-")
    if negated:
        cur.advance()
    if cur.peek().kind == "int":
        num = _number(cur)
        denom = 1
        if num is not None and cur.at("/"):
            cur.advance()
            if cur.peek().kind != "int":
                cur.error("expected a denominator")
                return None
            denom = _number(cur)
            if denom == 0:
                cur.error("denominator must be positive")
                return None
        if num is None or denom is None or not cur.expect("*"):
            return None
        coeff = -num if negated else num
        if denom != 1:
            coeff = Fraction(coeff, denom)
    elif negated:
        cur.error("expected a number after '-'")
        return None
    slot = _monomial(cur, index, k)
    if slot is None:
        return None
    return coeff, slot


def _number(cur: _Cursor) -> int | None:
    tok = cur.advance()
    try:
        return int(tok.text)
    except ValueError:
        # over Python's limit on converting a decimal string to an int
        cur.error("number has too many digits", tok)
        return None


def _monomial(cur: _Cursor, index: dict[str, int], k: int) -> int | None:
    left = cur.at("(")
    if left:
        cur.advance()
    elif cur.peek().kind != "ident":
        cur.error("expected a monomial")
        return None
    # what follows the opening of "(x a y) b z" or "x a (y b z)":
    # variables, '.' for an operation, and punctuation
    ops: list[int] = []
    for part in "x.y).z" if left else "x.(y.z)":
        if part == ".":
            op = _operation(cur, index)
            if op is None:
                return None
            ops.append(op)
        elif part in "xyz":
            if not cur.at(part, "ident"):
                cur.error(f"malformed monomial: expected variable {part}")
                return None
            cur.advance()
        elif not cur.expect(part):
            return None
    return (left_index if left else right_index)(k, *ops)


def _operation(cur: _Cursor, index: dict[str, int]) -> int | None:
    tok = cur.peek()
    if tok.kind != "ident":
        cur.error("expected an operation name")
        return None
    cur.advance()
    if tok.text in index:
        return index[tok.text]
    cur.error(f"undeclared operation {tok.text}", tok)
    return None


def _parse_operad(cur: _Cursor, result: dict[str, Presentation]) -> None:
    cur.advance()
    name_tok = cur.peek()
    names = None
    if name_tok.kind != "ident":
        cur.error("expected an operad name")
    else:
        cur.advance()
        if name_tok.text in result:
            cur.error(f"duplicate operad name {name_tok.text}", name_tok)
        if cur.expect("{"):
            if cur.at("ops", "ident") and cur.at(":", ahead=1):
                cur.advance()
                cur.advance()
                names = _ident_list(cur)
            else:
                cur.error("expected 'ops:'")
    if names is None:
        cur.skip("}", "operad")
        return
    cur.expect(";")
    k = len(names)
    vectors: list[RelVector] = []
    while True:
        if cur.at("rel", "ident"):
            cur.advance()
            if cur.expect(":"):
                vector = _relation(cur, names)
                if vector is not None and cur.expect(";"):
                    vectors.append(vector)
                    continue
            cur.skip(";", "}")
            continue
        if cur.at("}"):
            cur.advance()
            break
        if cur.peek().kind == "eof":
            cur.error("unexpected end of input inside an operad block")
            break
        cur.error("expected 'rel:' or '}'")
        cur.skip(";", "}")
        if cur.peek().kind == "eof":
            break
    if name_tok.text not in result:
        result[name_tok.text] = Presentation(
            GeneratorSet(names),
            span([v.coordinates for v in vectors], 2 * k * k),
        )


def _ident_list(cur: _Cursor) -> tuple[str, ...] | None:
    """Read the operation names; None when there are none to declare."""
    names: list[str] = []
    while True:
        tok = cur.peek()
        if tok.kind != "ident":
            cur.error("expected an operation name")
            return None
        cur.advance()
        if tok.text == "operad":
            # the printer refuses it too: "operad" opens a block
            cur.error("'operad' cannot name an operation", tok)
        elif tok.text in names:
            cur.error(f"duplicate operation name {tok.text}", tok)
        else:
            names.append(tok.text)
        if not cur.at(","):
            return tuple(names) or None
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
    while cur.peek().kind != "eof":
        if cur.at("operad", "ident"):
            _parse_operad(cur, result)
        else:
            cur.error("expected 'operad'")
            cur.skip(None, "operad")
    return ParseResult(result, tuple(cur.diagnostics))


def parse_relation(
    text: str,
    names: tuple[str, ...],
    alias_map: dict[str, str] | None = None,
) -> tuple[RelVector | None, tuple[Diagnostic, ...]]:
    """Parse a single relation string against a fixed operation list.

    Used for command-line supplied relations, where ASCII aliases for
    the built-in symbols are convenient; alias_map entries apply only
    when the alias target is among the declared names. An empty or
    repeated operation list gives no vector and a diagnostic at the
    first token.
    """
    cur = _Cursor(tokenize(text))
    if not names:
        cur.error("no operations to parse the relation against")
        return None, tuple(cur.diagnostics)
    if len(set(names)) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        cur.error(f"duplicate operation name {repeated}")
        return None, tuple(cur.diagnostics)
    vector = _relation(cur, names, alias_map)
    if vector is not None and cur.peek().kind != "eof":
        cur.error("unexpected trailing input after the relation")
        vector = None
    return vector, tuple(cur.diagnostics)


def _coefficient_prefix(coeff: int | Fraction) -> str:
    if coeff == 1:
        return ""
    return f"{coeff} * "


def _side_text(terms: list[tuple[int | Fraction, str]]) -> str:
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
    lhs: list[tuple[int | Fraction, str]] = []
    rhs: list[tuple[int | Fraction, str]] = []
    for i in range(k):
        for j in range(k):
            left, right = coords[left_index(k, i, j)], coords[right_index(k, i, j)]
            if left:
                lhs.append((left, f"(x {names[i]} y) {names[j]} z"))
            if right:
                rhs.append((-right, f"x {names[i]} (y {names[j]} z)"))
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
