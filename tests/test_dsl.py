"""Tests for the text format: tokenizer, parser, printer, round trips."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadops.catalog import ASCII_ALIASES, BUILTIN_NAMES, builtin, catalog
from quadops.dsl import (
    Diagnostic,
    ParseResult,
    format_relation,
    parse,
    parse_relation,
    print_presentation,
    tokenize,
)
from quadops.linalg import DimensionError, span
from quadops.presentations import (
    GeneratorSet,
    Presentation,
    RelVector,
    dual,
    relation_vector,
)

AS_TEXT = "operad As { ops: m; rel: (x m y) m z = x m (y m z); }"


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


class TestTokenizer:
    def test_empty_text(self):
        tokens = tokenize("")
        assert kinds_and_texts(tokens) == [("eof", "")]

    def test_basic_split(self):
        tokens = tokenize("operad E {ops: a;}")
        assert kinds_and_texts(tokens) == [
            ("ident", "operad"),
            ("ident", "E"),
            ("punct", "{"),
            ("ident", "ops"),
            ("punct", ":"),
            ("ident", "a"),
            ("punct", ";"),
            ("punct", "}"),
            ("eof", ""),
        ]

    def test_star_continues_an_identifier(self):
        assert kinds_and_texts(tokenize("∧* m*")) == [
            ("ident", "∧*"),
            ("ident", "m*"),
            ("eof", ""),
        ]

    def test_star_alone_is_punctuation(self):
        assert kinds_and_texts(tokenize("3 * m")) == [
            ("int", "3"),
            ("punct", "*"),
            ("ident", "m"),
            ("eof", ""),
        ]
        assert kinds_and_texts(tokenize("*m")) == [
            ("punct", "*"),
            ("ident", "m"),
            ("eof", ""),
        ]

    def test_numbers_and_signs(self):
        assert kinds_and_texts(tokenize("-3/2")) == [
            ("punct", "-"),
            ("int", "3"),
            ("punct", "/"),
            ("int", "2"),
            ("eof", ""),
        ]

    def test_identifier_may_contain_digits(self):
        assert kinds_and_texts(tokenize("x1 2a")) == [
            ("ident", "x1"),
            ("int", "2"),
            ("ident", "a"),
            ("eof", ""),
        ]

    def test_comments_are_skipped(self):
        tokens = tokenize("a # rest is gone ; { }\nb")
        assert kinds_and_texts(tokens) == [
            ("ident", "a"),
            ("ident", "b"),
            ("eof", ""),
        ]

    def test_positions_are_one_based(self):
        tokens = tokenize("ab cd\n  ef")
        assert [(t.text, t.line, t.column) for t in tokens[:3]] == [
            ("ab", 1, 1),
            ("cd", 1, 4),
            ("ef", 2, 3),
        ]

    # positions the reader corpus never produces: a comment does not move
    # the column, and every whitespace character but "\n" moves it by one
    @pytest.mark.parametrize(
        "text, lexemes",
        [
            ("a # tail", [("ident", "a", 1, 1), ("eof", "", 1, 3)]),
            ("a\r\nb", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)]),
            (
                "a\xa0b\u2003c",
                [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("ident", "c", 1, 5), ("eof", "", 1, 6)],
            ),
            ("a\x0bb", [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)]),
        ],
    )
    def test_positions_outside_the_corpus(self, text, lexemes):
        assert [(t.kind, t.text, t.line, t.column) for t in tokenize(text)] == lexemes


class TestParseHappyPath:
    def test_single_operation_associativity(self):
        result = parse(AS_TEXT)
        assert result.ok
        p = result.presentations["As"]
        assert p.generators.names == ("m",)
        assert p.relations.dimension == 1
        # subspaces compare by coordinates, so the differently named
        # built-in is directly comparable
        assert p.relations == builtin("As").relations

    def test_block_without_relations(self):
        result = parse("operad E { ops: a; }")
        assert result.ok
        p = result.presentations["E"]
        assert p.relations.dimension == 0

    def test_mixed_shapes_on_one_side(self):
        one_sided = parse(
            "operad E { ops: a; rel: (x a y) a z - x a (y a z) = 0; }"
        )
        assert one_sided.ok
        assert (
            one_sided.presentations["E"].relations == builtin("As").relations
        )

    def test_scaled_relation_spans_the_same_line(self):
        result = parse(
            "operad E { ops: a; rel: 2 * (x a y) a z = 2 * x a (y a z); }"
        )
        assert result.ok
        assert result.presentations["E"].relations == builtin("As").relations

    def test_fraction_coefficient_changes_the_line(self):
        result = parse(
            "operad E { ops: a; rel: 1/2 * (x a y) a z = x a (y a z); }"
        )
        assert result.ok
        p = result.presentations["E"]
        assert p.relations.dimension == 1
        assert p.relations != builtin("As").relations

    def test_leading_minus_on_both_sides(self):
        result = parse(
            "operad E { ops: a; rel: -(x a y) a z = -x a (y a z); }"
        )
        assert result.ok
        assert result.presentations["E"].relations == builtin("As").relations

    def test_zero_equals_zero_is_the_zero_relation(self):
        result = parse("operad E { ops: a; rel: 0 = 0; }")
        assert result.ok
        assert result.presentations["E"].relations.dimension == 0

    def test_zero_coefficient_term_parses(self):
        result = parse("operad E { ops: a; rel: 0/2 * (x a y) a z = 0; }")
        assert result.ok
        assert result.presentations["E"].relations.dimension == 0

    def test_negative_coefficient_after_separator(self):
        result = parse(
            "operad E { ops: a; rel: (x a y) a z + -1 * x a (y a z) = 0; }"
        )
        assert result.ok
        assert result.presentations["E"].relations == builtin("As").relations

    def test_multiple_blocks_preserve_order(self):
        result = parse(AS_TEXT + "\noperad F { ops: a, b; }")
        assert result.ok
        assert list(result.presentations) == ["As", "F"]
        assert result.presentations["F"].generators.names == ("a", "b")

    def test_comments_inside_blocks(self):
        result = parse(
            "operad E { # one op\n  ops: a;\n  # no relations\n}"
        )
        assert result.ok
        assert result.presentations["E"].relations.dimension == 0


class TestDiagnostics:
    def test_undeclared_operation_position(self):
        text = "operad E {\n  ops: a;\n  rel: (x q y) a z = 0;\n}"
        result = parse(text)
        assert not result.ok
        (diag,) = result.diagnostics
        assert diag.message == "undeclared operation q"
        assert (diag.line, diag.column) == (3, 11)
        # the failed relation contributes nothing
        assert result.presentations["E"].relations.dimension == 0

    def test_recovery_keeps_later_relations(self):
        text = (
            "operad E { ops: a;\n"
            "  rel: (x q y) a z = 0;\n"
            "  rel: (x a y) a z = x a (y a z);\n"
            "}"
        )
        result = parse(text)
        assert not result.ok
        assert result.presentations["E"].relations == builtin("As").relations

    def test_malformed_monomial_wrong_variable(self):
        result = parse("operad E { ops: a; rel: (x a z) a z = 0; }")
        assert not result.ok
        assert any(
            "malformed monomial: expected variable y" in d.message
            for d in result.diagnostics
        )

    def test_malformed_monomial_wrong_order_on_the_right(self):
        result = parse("operad E { ops: a; rel: x a (z a y) = 0; }")
        assert not result.ok
        assert any(
            "expected variable y" in d.message for d in result.diagnostics
        )

    def test_duplicate_operad_name_keeps_the_first(self):
        result = parse(AS_TEXT + " operad As { ops: q; }")
        assert not result.ok
        assert any(
            "duplicate operad name As" in d.message
            for d in result.diagnostics
        )
        assert result.presentations["As"].generators.names == ("m",)

    def test_duplicate_operation_name(self):
        result = parse("operad E { ops: a, a; }")
        assert not result.ok
        assert any(
            "duplicate operation name a" in d.message
            for d in result.diagnostics
        )
        assert result.presentations["E"].generators.names == ("a",)

    def test_missing_star_after_coefficient(self):
        result = parse("operad E { ops: a; rel: 3 (x a y) a z = 0; }")
        assert not result.ok
        assert any("expected '*'" in d.message for d in result.diagnostics)

    def test_zero_denominator(self):
        result = parse("operad E { ops: a; rel: 1/0 * (x a y) a z = 0; }")
        assert not result.ok
        assert any(
            "denominator must be positive" in d.message
            for d in result.diagnostics
        )

    def test_missing_monomial(self):
        result = parse("operad E { ops: a; rel: 3 * = 0; }")
        assert not result.ok
        assert any(
            "expected a monomial" in d.message for d in result.diagnostics
        )

    def test_junk_before_first_block(self):
        result = parse("junk tokens operad E { ops: a; }")
        assert not result.ok
        assert any(
            "expected 'operad'" in d.message for d in result.diagnostics
        )
        assert "E" in result.presentations

    def test_unexpected_end_of_input(self):
        result = parse("operad E { ops: a;")
        assert not result.ok
        assert any(
            "unexpected end of input" in d.message
            for d in result.diagnostics
        )

    def test_diagnostics_never_raise(self):
        # a pile of malformed fragments must produce diagnostics, not
        # exceptions
        for text in (
            "operad",
            "operad {",
            "operad E",
            "operad E { ops }",
            "operad E { ops: ; }",
            "operad E { ops: a, ; }",
            "operad E { ops: a; rel }",
            "operad E { ops: a; rel: }",
            "operad E { ops: a; rel: (x a y) a z; }",
            "operad E { ops: a; rel: (x a y) a z = x a (y a z) }",
            "operad E { ops: a; rel: 1/ * (x a y) a z = 0; }",
            "operad E { ops: a; rel: - = 0; }",
            "} } ;",
        ):
            result = parse(text)
            assert not result.ok, text

    def test_diagnostic_string_form(self):
        diag = Diagnostic(3, 11, "undeclared operation q")
        assert str(diag) == "3:11: error: undeclared operation q"


class TestParseRelationHelper:
    def test_aliases_resolve_against_arrow_names(self):
        names = builtin("Xplus").generators.names
        vector, diagnostics = parse_relation(
            "(x nw y) se z - (x ne y) se z = 0",
            names,
            dict(ASCII_ALIASES),
        )
        assert diagnostics == ()
        nonzero = {
            i: c for i, c in enumerate(vector.coordinates) if c != 0
        }
        assert nonzero == {3: Fraction(1), 7: Fraction(-1)}

    def test_unicode_names_work_without_aliases(self):
        vector, diagnostics = parse_relation(
            "(x ∧ y) ∨ z + (x ∨ y) ∨ z = x ∨ (y ∨ z)",
            builtin("Dend").generators.names,
        )
        assert diagnostics == ()
        assert vector is not None

    def test_alias_needs_a_matching_target(self):
        vector, diagnostics = parse_relation(
            "(x dot y) dot z = 0", ("a",), dict(ASCII_ALIASES)
        )
        assert vector is None
        assert any(
            "undeclared operation dot" in d.message for d in diagnostics
        )

    @pytest.mark.parametrize(
        "text,names,message",
        (
            ("0 = 0", (), "1:1: error: no operations to parse the relation against"),
            ("", (), "1:1: error: no operations to parse the relation against"),
            ("  (x a y) a z = 0", ("a", "b", "a"), "1:3: error: duplicate operation name a"),
        ),
    )
    def test_operation_list_must_be_nonempty_and_distinct(self, text, names, message):
        vector, diagnostics = parse_relation(text, names)
        assert vector is None
        assert [str(d) for d in diagnostics] == [message]

    def test_trailing_input_is_rejected(self):
        vector, diagnostics = parse_relation(
            "0 = 0 extra", builtin("As").generators.names
        )
        assert vector is None
        assert any("trailing input" in d.message for d in diagnostics)


class TestPrinter:
    def test_single_operation_golden(self):
        text = print_presentation(builtin("As"), "As")
        assert text == (
            "operad As {\n"
            "  ops: ·;\n"
            "  rel: (x · y) · z = x · (y · z);\n"
            "}\n"
        )

    def test_no_relations_prints_no_rel_lines(self):
        p = Presentation(GeneratorSet(("a",)), span([], 2))
        assert print_presentation(p, "E") == (
            "operad E {\n  ops: a;\n}\n"
        )

    def test_fraction_coefficients_survive_normalization(self):
        vector = relation_vector(1, [(Fraction(2), 0, 0)], [(1, 0, 0)])
        p = Presentation(GeneratorSet(("a",)), span([vector.coordinates], 2))
        text = print_presentation(p, "E")
        assert "rel: (x a y) a z = 1/2 * x a (y a z);" in text
        result = parse(text)
        assert result.ok
        assert result.presentations["E"].relations == p.relations

    def test_minus_separator(self):
        coords = [Fraction(0)] * 8
        coords[0] = Fraction(1)
        coords[1] = Fraction(-1)
        line = format_relation(RelVector(tuple(coords)), ("a", "b"))
        assert line == "(x a y) a z - (x a y) b z = 0"

    def test_right_only_rows_lead_positively(self):
        for c in (Fraction(1), Fraction(-1)):
            line = format_relation(RelVector((Fraction(0), c)), ("a",))
            assert line == "0 = x a (y a z)"

    @pytest.mark.parametrize(
        "coords, names",
        [
            # fewer names than operations once printed "0 = 0"
            ((0, 0, 0, 1, 0, 0, 0, -1), ("a",)),
            # more names than operations once raised a bare IndexError
            ((1, -1), ("a", "b")),
        ],
    )
    def test_names_must_match_the_vector(self, coords, names):
        with pytest.raises(DimensionError):
            format_relation(RelVector(coords), names)

    def test_invalid_operad_name_rejected(self):
        with pytest.raises(ValueError):
            print_presentation(builtin("As"), "two words")
        with pytest.raises(ValueError):
            print_presentation(builtin("As"), "3X")

    def test_unprintable_operation_name_rejected(self):
        p = Presentation(GeneratorSet(("a b",)), span([], 2))
        with pytest.raises(ValueError):
            print_presentation(p, "E")


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_reach_a_textual_fixed_point(self, name):
        p = catalog().presentation(name)
        text = print_presentation(p, name)
        result = parse(text)
        assert result.ok
        q = result.presentations[name]
        assert q.generators == p.generators
        assert q.relations == p.relations
        assert print_presentation(q, name) == text

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_duals_round_trip_with_starred_names(self, name):
        d = dual(catalog().presentation(name))
        text = print_presentation(d, "D")
        result = parse(text)
        assert result.ok
        assert result.presentations["D"].relations == d.relations

    @given(
        k=st.integers(min_value=1, max_value=3),
        rows=st.lists(
            st.lists(
                st.fractions(
                    min_value=-3, max_value=3, max_denominator=3
                ),
                min_size=18,
                max_size=18,
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_presentations_round_trip(self, k, rows):
        names = ("a", "b", "c")[:k]
        ambient = 2 * k * k
        p = Presentation(
            GeneratorSet(names),
            span([tuple(row[:ambient]) for row in rows], ambient),
        )
        text = print_presentation(p, "R")
        result = parse(text)
        assert result.ok
        q = result.presentations["R"]
        assert q.relations == p.relations
        assert print_presentation(q, "R") == text


class TestIntegerCoordinates:
    def test_parsed_coefficients_are_ints_where_integral(self):
        vector, diags = parse_relation(
            "1/2 * (x a y) a z = 3 * x a (y a z) - 4/2 * x b (y a z)", ("a", "b")
        )
        assert diags == ()
        assert vector.coordinates[0] == Fraction(1, 2)
        assert type(vector.coordinates[0]) is Fraction
        assert all(type(x) is int for x in vector.coordinates[1:])
        assert vector.coordinates[4] == -3 and vector.coordinates[6] == 2

    @given(
        k=st.integers(min_value=1, max_value=2),
        values=st.lists(
            st.one_of(
                st.integers(min_value=-4, max_value=4),
                st.fractions(min_value=-4, max_value=4, max_denominator=4),
            ),
            min_size=8,
            max_size=8,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_mixed_relations_print_parse_print(self, k, values):
        names = ("a", "b")[:k]
        coords = tuple(x.numerator if x.denominator == 1 else x for x in values[: 2 * k * k])
        text = format_relation(RelVector(coords), names)
        vector, diags = parse_relation(text, names)
        assert diags == ()
        # a relation on the right block alone may print negated
        assert vector.coordinates in (coords, tuple(-x for x in coords))
        assert [type(x) for x in vector.coordinates] == [type(x) for x in coords]
        assert format_relation(vector, names) == text


_NAMES = ("a", "b", "c")


def _side_text(terms) -> str:
    if not terms:
        return "0"
    pieces = []
    for n, (sign, num, den, left, i, j) in enumerate(terms):
        coeff = "" if num == den == 1 else f"{num} * " if den == 1 else f"{num}/{den} * "
        mono = f"(x {i} y) {j} z" if left else f"x {i} (y {j} z)"
        if n:
            pieces.append(f" {sign} {coeff}{mono}")
        else:
            pieces.append(f"{'-' if sign == '-' else ''}{coeff}{mono}")
    return "".join(pieces)


@st.composite
def relation_texts(draw, k):
    """A relation over the first ``k`` of _NAMES with p/q coefficients
    (unreduced ones too), maybe a term that cancels, maybe right-shaped
    monomials alone."""
    names = _NAMES[:k]
    term = st.tuples(
        st.sampled_from("+-"),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.booleans() if draw(st.booleans()) else st.just(False),
        st.sampled_from(names),
        st.sampled_from(names),
    )
    lhs = draw(st.lists(term, max_size=3))
    rhs = draw(st.lists(term, max_size=3))
    cancel = draw(st.sampled_from((None, "same side", "across")))
    if cancel:
        t = draw(term)
        if cancel == "same side":
            lhs += [t, ("-" if t[0] == "+" else "+",) + t[1:]]
        else:
            lhs.append(t)
            rhs.append(t)
    return f"{_side_text(lhs)} = {_side_text(rhs)}"


class TestSparseAgainstDense:
    """The reader and printer work on sparse rows; the dense vectors of
    parse_relation, linalg.span and format_relation are the reference."""

    @given(k=st.integers(min_value=1, max_value=3), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_reader_spans_what_the_dense_reference_spans(self, k, data):
        names = _NAMES[:k]
        relations = data.draw(st.lists(relation_texts(k), max_size=4))
        text = f"operad R {{ ops: {', '.join(names)};"
        text += "".join(f" rel: {r};" for r in relations) + " }"
        result = parse(text)
        assert result.ok
        vectors = []
        for relation in relations:
            vector, diags = parse_relation(relation, names)
            assert diags == ()
            vectors.append(vector.coordinates)
        assert result.presentations["R"].relations == span(vectors, 2 * k * k)

    @given(
        k=st.integers(min_value=1, max_value=3),
        rows=st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=18, max_size=18),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_printer_writes_what_format_relation_writes(self, k, rows):
        names = _NAMES[:k]
        ambient = 2 * k * k
        p = Presentation(GeneratorSet(names), span([row[:ambient] for row in rows], ambient))
        # only spaces with a canonical entry that its row's lead does not divide
        assume(any(x % row[0][1] for row in p.relations.rows for _, x in row))
        lines = [
            line[len("  rel: "):-1]
            for line in print_presentation(p, "R").splitlines()
            if line.startswith("  rel: ")
        ]
        assert lines == [format_relation(r, names) for r in p.relation_rows()]


# A seeded corpus of near-valid and broken source texts and relations. Its
# digest pins everything the reader reports: tokens, diagnostics (message
# and position), the presentations parsed and parse_relation's results.

# operation lists; the last declares a name twice
_NAME_POOLS = (
    ("a", "b", "c"), ("∧", "∨"), ("m",), ("a*", "b*"), ("nw", "ne", "sw", "se"), ("a", "b", "a"),
)
_ALIAS_MAPS = (None, dict(ASCII_ALIASES), {"p": "a", "a": "b", "q": "undeclared"})
_NOISE = (
    "operad", "ops", "rel", "x", "y", "z", "a", "m", "∧*", "nw", "dot", "E",
    "0", "1", "12", "007", "3", "1/0", "-", "+", "*", "/", "=", "(", ")", "{", "}",
    ":", ";", ",", "#note\n", "\n", "é", "?", "",
)
_COEFFICIENTS = ("", "", "", "", "2 *", "1/3 *", "0 *", "-5/2 *", "10/4 *")


def _relation_pieces(rng, names):
    def side():
        if rng.random() < 0.15:
            return ["0"]
        pieces = ["-"] if rng.random() < 0.2 else []
        for t in range(rng.randint(1, 3)):
            if t:
                pieces.append(rng.choice("+-"))
            pieces.extend(rng.choice(_COEFFICIENTS).split())
            i, j = rng.choice(names), rng.choice(names)
            if rng.random() < 0.5:
                pieces.extend(["(", "x", i, "y", ")", j, "z"])
            else:
                pieces.extend(["x", i, "(", "y", j, "z", ")"])
        return pieces

    return side() + ["="] + side()


def _mutate(rng, pieces):
    pieces = list(pieces)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randrange(len(pieces) + 1)
        move = rng.randrange(3)
        if move == 0 and at < len(pieces):
            del pieces[at]
        elif move == 1 and at < len(pieces):
            pieces[at] = rng.choice(_NOISE)
        else:
            pieces.insert(at, rng.choice(_NOISE))
    return rng.choice((" ", " ", " ", "\n", "\n", "  ", "\t", "")).join(pieces)


def _source_text(rng):
    blocks = []
    for _ in range(rng.choice((1, 1, 2))):
        names = rng.choice(_NAME_POOLS)
        pieces = ["operad", rng.choice(("E", "F", "My")), "{", "ops", ":"]
        for i, name in enumerate(names):
            pieces.extend([","] * bool(i) + [name])
        pieces.append(";")
        for _ in range(rng.randint(0, 3)):
            pieces.extend(["rel", ":", *_relation_pieces(rng, names), ";"])
        pieces.append("}")
        blocks.append(_mutate(rng, pieces))
    return "\n".join(blocks)


def reader_corpus(seed: int, count: int):
    """``count`` (source text, (relation text, names, alias map)) pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        names = rng.choice(_NAME_POOLS)
        relation = _mutate(rng, _relation_pieces(rng, names))
        yield _source_text(rng), (relation, names, rng.choice(_ALIAS_MAPS))


def left_out_of_the_pin(text: str) -> bool:
    """True for a text with a non-ASCII digit, a number over Python's
    4,300-digit int conversion limit, or ``operad`` where an operation list
    expects a name. The reader once raised on the first two and accepted
    the third; the pin was taken before that changed, and
    test_reader_never_raises and the CLI tests cover these inputs."""
    if any(ch.isdigit() and ch not in "0123456789" for ch in text):
        return True
    if re.search(r"[0-9]{4301}", text):
        return True
    tokens = tokenize(text)
    return any(
        tok.kind == "ident" and tok.text == "operad" and prev.kind == "punct" and prev.text in ":,"
        for prev, tok in zip(tokens, tokens[1:])
    )


def reader_outcome(text, relation) -> tuple:
    """Everything the reader reports on one corpus entry, as plain values."""

    def diagnostics(diags):
        return tuple((d.line, d.column, d.message, d.severity) for d in diags)

    def row(vector):
        return None if vector is None else tuple(str(c) for c in vector.coordinates)

    result = parse(text)
    vector, relation_diags = parse_relation(*relation)
    return (
        tuple((t.kind, t.text, t.line, t.column) for t in tokenize(text)),
        diagnostics(result.diagnostics),
        tuple(
            (name, p.generators.names, tuple(row(r) for r in p.relation_rows()))
            for name, p in result.presentations.items()
        ),
        (row(vector), diagnostics(relation_diags)),
    )


READER_PIN = "27dd07ab12ff901486dbbe547c6e8e8d71af915610f8704b4e95dfa3f360399d"


def test_reader_corpus_is_pinned():
    digest = hashlib.sha256()
    kept = 0
    for text, relation in reader_corpus(seed=12, count=2500):
        if left_out_of_the_pin(text) or left_out_of_the_pin(relation[0]):
            continue
        kept += 1
        digest.update(repr(reader_outcome(text, relation)).encode())
    assert kept >= 2000
    assert digest.hexdigest() == READER_PIN


@given(text=st.text(), names=st.lists(st.sampled_from(("a", "b", "∧", "nw", ""))).map(tuple))
@example(text="operad E { ops: a; rel: ² * (x a y) a z = 0; }", names=("a", "b"))
@example(text="operad E { ops: a; rel: " + "7" * 5000 + " * (x a y) a z = 0; }", names=("a", "b"))
@example(text="operad E { ops: operad; }", names=("a", "b"))
@example(text="0 = 0", names=())
@example(text="(x a y) a z = 0", names=("a", "b", "a"))
@settings(max_examples=300, deadline=None)
def test_reader_never_raises(text, names):
    tokenize(text)
    parse_relation(text, ("a", "b"), dict(ASCII_ALIASES))
    # operation lists may be empty, repeat a name or hold an empty one
    parse_relation(text, names, dict(ASCII_ALIASES))
    # whatever the reader accepts, the printer can write back
    for name, p in parse(text).presentations.items():
        print_presentation(p, name)
