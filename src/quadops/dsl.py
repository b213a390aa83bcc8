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

The lexer emits plain ``(kind, text, line, column)`` tuples; ``Token``
records are built only by ``tokenize``, for callers that ask for them.
The reader gathers each relation as a map from coordinate to
coefficient and spans a block's relations as sparse integer rows
(``linalg.span_rows``). The printer writes the nonzero entries of each
canonical row of the relation space, divided by the row's lead, and
never builds a dense vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .linalg import DimensionError, _Record, _divided_by_lead, _scaled_row, _set, span_rows
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

if TYPE_CHECKING:
    # (kind, text, line, column), as a Token holds them
    _Lexeme = tuple[str, str, int, int]


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


def _lex(text: str) -> list[_Lexeme]:
    """Split source text into lexemes; never fails, ends with an eof lexeme."""
    lexemes: list[_Lexeme] = []
    append = lexemes.append
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
        # a space, by far the most common, is told apart before isspace is asked
        if ch == " " or ch.isspace():
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
        append((kind, text[i:j], line, column))
        column += j - i
        i = j
    append(("eof", "", line, column))
    return lexemes


def tokenize(text: str) -> tuple[Token, ...]:
    """Split source text into tokens; never fails, ends with an eof token."""
    return tuple(Token(*lexeme) for lexeme in _lex(text))


class _Cursor:
    """Parser position over the lexemes of a text, and the diagnostics so far."""

    __slots__ = ("tokens", "pos", "diagnostics")

    def __init__(self, text: str) -> None:
        tokens = _lex(text)
        # a second eof, so looking one lexeme past the end needs no bound
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> _Lexeme:
        return self.tokens[self.pos]

    def advance(self) -> _Lexeme:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, text: str, kind: str = "punct", ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        return tok[1] == text and tok[0] == kind

    def error(self, message: str, tok: _Lexeme | None = None) -> None:
        tok = tok or self.peek()
        self.diagnostics.append(Diagnostic(tok[2], tok[3], message))

    def expect(self, text: str) -> bool:
        """Consume the punctuation ``text``, or report that it is missing."""
        if self.at(text):
            self.advance()
            return True
        self.error(f"expected '{text}'")
        return False

    def skip(self, through: str | None, stop: str) -> None:
        """Recover from an error: skip lexemes up to and including the
        punctuation ``through``, stopping before the end of input or a
        lexeme whose text is ``stop``.

        Texts alone tell the kinds apart here: '}' and ';' can only be
        punctuation, and 'operad' only an identifier.
        """
        while self.peek()[0] != "eof" and self.peek()[1] != stop:
            if self.advance()[1] == through:
                return


def _relation(
    cur: _Cursor, names: tuple[str, ...], alias_map: dict[str, str] | None = None
) -> dict[int, int | Fraction] | None:
    """Parse one relation into its coordinates over the operations
    ``names``, left side minus right side, by coordinate; a coefficient
    may have cancelled to zero.

    An alias counts only when its target is declared, and a declared
    name wins over an alias of the same spelling.
    """
    index = {name: i for i, name in enumerate(names)}
    if alias_map:
        aliases = {alias: index[t] for alias, t in alias_map.items() if t in index}
        index = {**aliases, **index}
    k = len(names)
    coords: dict[int, int | Fraction] = {}
    if (
        _lincomb(cur, index, k, coords, False)
        and cur.expect("=")
        and _lincomb(cur, index, k, coords, True)
    ):
        return coords
    return None


def _lincomb(
    cur: _Cursor,
    index: dict[str, int],
    k: int,
    coords: dict[int, int | Fraction],
    negate: bool,
) -> bool:
    """Add one side's terms to ``coords``, each negated when ``negate``;
    False when the side does not parse."""
    if cur.at("0", "int") and not (cur.at("*", ahead=1) or cur.at("/", ahead=1)):
        cur.advance()
        return True
    # the sign before each term: an optional leading '-', then '+' or '-'
    minus = cur.at("-")
    if minus:
        cur.advance()
    while True:
        term = _term(cur, index, k)
        if term is None:
            return False
        coeff, slot = term
        coords[slot] = coords.get(slot, 0) + (-coeff if minus != negate else coeff)
        if cur.at("+"):
            minus = False
        elif cur.at("-"):
            minus = True
        else:
            return True
        cur.advance()


def _term(cur: _Cursor, index: dict[str, int], k: int) -> tuple[int | Fraction, int] | None:
    coeff: int | Fraction = 1
    negated = cur.at("-")
    if negated:
        cur.advance()
    if cur.peek()[0] == "int":
        num = _number(cur)
        denom = 1
        if num is not None and cur.at("/"):
            cur.advance()
            if cur.peek()[0] != "int":
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
        return int(tok[1])
    except ValueError:
        # over Python's limit on converting a decimal string to an int
        cur.error("number has too many digits", tok)
        return None


def _monomial(cur: _Cursor, index: dict[str, int], k: int) -> int | None:
    left = cur.at("(")
    if left:
        cur.advance()
    elif cur.peek()[0] != "ident":
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
    if tok[0] != "ident":
        cur.error("expected an operation name")
        return None
    cur.advance()
    if tok[1] in index:
        return index[tok[1]]
    cur.error(f"undeclared operation {tok[1]}", tok)
    return None


def _parse_operad(cur: _Cursor, result: dict[str, Presentation]) -> None:
    cur.advance()
    name_tok = cur.peek()
    names = None
    if name_tok[0] != "ident":
        cur.error("expected an operad name")
    else:
        cur.advance()
        if name_tok[1] in result:
            cur.error(f"duplicate operad name {name_tok[1]}", name_tok)
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
    rows = []
    while True:
        if cur.at("rel", "ident"):
            cur.advance()
            if cur.expect(":"):
                coords = _relation(cur, names)
                if coords is not None and cur.expect(";"):
                    rows.append(_scaled_row([(c, x) for c, x in coords.items() if x]))
                    continue
            cur.skip(";", "}")
            continue
        if cur.at("}"):
            cur.advance()
            break
        if cur.peek()[0] == "eof":
            cur.error("unexpected end of input inside an operad block")
            break
        cur.error("expected 'rel:' or '}'")
        cur.skip(";", "}")
        if cur.peek()[0] == "eof":
            break
    if name_tok[1] not in result:
        k = len(names)
        result[name_tok[1]] = Presentation(GeneratorSet(names), span_rows(rows, 2 * k * k))


def _ident_list(cur: _Cursor) -> tuple[str, ...] | None:
    """Read the operation names; None when there are none to declare."""
    names: list[str] = []
    while True:
        tok = cur.peek()
        if tok[0] != "ident":
            cur.error("expected an operation name")
            return None
        cur.advance()
        if tok[1] == "operad":
            # the printer refuses it too: "operad" opens a block
            cur.error("'operad' cannot name an operation", tok)
        elif tok[1] in names:
            cur.error(f"duplicate operation name {tok[1]}", tok)
        else:
            names.append(tok[1])
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
    cur = _Cursor(text)
    result: dict[str, Presentation] = {}
    while cur.peek()[0] != "eof":
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
    cur = _Cursor(text)
    if not names:
        cur.error("no operations to parse the relation against")
        return None, tuple(cur.diagnostics)
    if len(set(names)) != len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        cur.error(f"duplicate operation name {repeated}")
        return None, tuple(cur.diagnostics)
    coords = _relation(cur, names, alias_map)
    if coords is None:
        return None, tuple(cur.diagnostics)
    if cur.peek()[0] != "eof":
        cur.error("unexpected trailing input after the relation")
        return None, tuple(cur.diagnostics)
    dense: list[int | Fraction] = [0] * (2 * len(names) ** 2)
    for c, x in coords.items():
        dense[c] = x
    return RelVector(tuple(dense)), tuple(cur.diagnostics)


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


def _format(entries: Iterable[tuple[int, int | Fraction]], names: tuple[str, ...]) -> str:
    """Render a relation from its nonzero ``(coordinate, value)`` pairs, by
    increasing coordinate, over the operations ``names``."""
    k = len(names)
    kk = k * k
    lhs: list[tuple[int | Fraction, str]] = []
    rhs: list[tuple[int | Fraction, str]] = []
    for c, x in entries:
        if c < kk:
            i, j = divmod(c, k)
            lhs.append((x, f"(x {names[i]} y) {names[j]} z"))
        else:
            i, j = divmod(c - kk, k)
            rhs.append((-x, f"x {names[i]} (y {names[j]} z)"))
    if not lhs and rhs and rhs[0][0] < 0:
        rhs = [(-c, mono) for c, mono in rhs]
    return f"{_side_text(lhs)} = {_side_text(rhs)}"


def format_relation(vector: RelVector, names: tuple[str, ...]) -> str:
    """Render one relation vector in the source grammar.

    The stored vector is "left side minus right side", so right-block
    coordinates flip sign on the way out. A vector supported only on
    the right block is negated first so the leading term prints
    positively; the spanned subspace is unchanged. ``names`` must name
    exactly the vector's operations, or DimensionError is raised.
    """
    if len(names) != vector.num_ops:
        raise DimensionError("operation names do not match the relation vector")
    return _format(((c, x) for c, x in enumerate(vector.coordinates) if x), names)


def _is_valid_name(name: str) -> bool:
    lexemes = _lex(name)
    return len(lexemes) == 2 and lexemes[0][0] == "ident" and lexemes[0][1] == name


def _presentation_text(p: Presentation, name: str) -> tuple[str, list[str]]:
    """The text of ``print_presentation`` and the relations on its rel: lines."""
    if not _is_valid_name(name):
        raise ValueError(f"not a valid operad name: {name!r}")
    names = p.generators.names
    for op in names:
        if not _is_valid_name(op) or op == "operad":
            raise ValueError(f"operation name does not survive printing: {op!r}")
    relations = [_format(_divided_by_lead(row), names) for row in p.relations.rows]
    lines = [f"operad {name} {{", f"  ops: {', '.join(names)};"]
    lines.extend(f"  rel: {relation};" for relation in relations)
    lines.append("}")
    return "\n".join(lines) + "\n", relations


def print_presentation(p: Presentation, name: str = "P") -> str:
    """Render a presentation as source text.

    Relations come out as the reduced row echelon basis of the
    relation subspace, one per line, so reparsing the output yields a
    presentation with the identical subspace and printing is a fixed
    point after one round.
    """
    return _presentation_text(p, name)[0]
