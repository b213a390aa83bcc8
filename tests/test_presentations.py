"""Tests for presentations: duality, squares, quotients, maps, relabelings.

Dimension claims are cross-checked against sympy's rank as an independent
oracle before being asserted as frozen numbers.
"""

import gc
import itertools
import re
import subprocess
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import quadops.presentations
from quadops.catalog import (
    BUILTIN_NAMES,
    as_relations,
    builtin,
    builtin_map,
    builtin_map_pairs,
    catalog,
    dend_relations,
    line_relation,
    sixteenth_vector,
    spanning_relations,
    tableau_vectors,
)
from quadops.linalg import (
    DimensionError,
    Matrix,
    Subspace,
    _exact,
    _exact_tuple,
    complement_under_form,
    reduce_row,
    rref,
    span,
    span_rows,
    sparse_row,
)
from quadops.presentations import (
    GeneratorMap,
    GeneratorSet,
    Presentation,
    RelVector,
    SignedRelabeling,
    apply_relabeling,
    compose_maps,
    dual,
    find_relabeling_iso,
    is_morphism,
    left_index,
    pairing_form,
    pairing_terms,
    pairing_value,
    push_relation,
    quotient,
    relation_vector,
    right_index,
    square,
    _forget_relation_facts,
    _pair_projections,
    _quotient_relations,
    _relabeling_iso,
    _square_relations,
)
from quadops.series import PowerSeries, dim_series, gk_defect
from quadops.verify import MIDDLE_SWAP, extra_relation_directions, scan_grid


def sympy_dual_relations(p: Presentation):
    """Oracle: the span of sympy's nullspace of B D, where B holds the
    relation rows and D = diag(+1, ..., -1, ...) is the pairing."""
    n = p.ambient_dim
    signs = [1] * (n // 2) + [-1] * (n // 2)
    rows = [
        [sympy.Rational(x.numerator, x.denominator) * s for x, s in zip(r.coordinates, signs)]
        for r in p.relation_rows()
    ]
    flat = [x for row in rows for x in row]
    null = sympy.Matrix(len(rows), n, flat).nullspace()
    vectors = [[Fraction(int(x.p), int(x.q)) for x in v] for v in null]
    return span(vectors, n)


def sympy_in_span(rows, vector) -> bool:
    """Oracle: membership means appending the vector keeps the rank."""
    m = sympy.Matrix([list(r) for r in rows])
    extended = sympy.Matrix([list(r) for r in rows] + [list(vector)])
    return m.rank() == extended.rank()


def exhaustive_relabeling_iso(p: Presentation, q: Presentation):
    """Oracle: the unpruned search, every signed relabeling in lexicographic
    order (permutations first, then sign patterns with all +1 first), each
    checked by reducing every moved relation row against q."""
    k = p.num_ops
    if q.num_ops != k:
        raise DimensionError("presentations have different numbers of operations")
    if p.relations.dimension != q.relations.dimension:
        return None
    k2 = k * k
    target = q.relations.echelon()
    for perm in itertools.permutations(range(k)):
        pairs = [perm[i] * k + perm[j] for i in range(k) for j in range(k)]
        imap = pairs + [k2 + c for c in pairs]
        for signs in itertools.product((1, -1), repeat=k):
            pair_signs = [signs[i] * signs[j] for i in range(k) for j in range(k)]
            if all(
                reduce_row(target, {imap[c]: x * pair_signs[c % k2] for c, x in row}) is None
                for row in p.relations.rows
            ):
                return SignedRelabeling(perm, signs)
    return None


def sympy_pair_projections(p: Presentation) -> tuple:
    """Oracle: sympy's RREF of the relation rows restricted to the two
    coordinates of each pair (i, j): 0 for rank 0, 2 for rank 2, and for
    rank 1 the RREF row scaled to a primitive integer vector."""
    k = p.num_ops
    rows = p.relation_rows()
    out = []
    for i in range(k):
        for j in range(k):
            cols = (left_index(k, i, j), right_index(k, i, j))
            entries = [
                sympy.Rational(r.coordinates[c].numerator, r.coordinates[c].denominator)
                for r in rows
                for c in cols
            ]
            reduced, pivots = sympy.Matrix(len(rows), 2, entries).rref() if rows else (None, ())
            if len(pivots) != 1:
                out.append(len(pivots))
                continue
            line = reduced.row(0)
            scale = sympy.ilcm(*(x.q for x in line))
            ints = [int(x * scale) for x in line]
            g = sympy.igcd(*ints)
            out.append(tuple(x // g for x in ints))
    return tuple(out)


def all_pairs_associative(k: int, lead: int = 1) -> Presentation:
    """The k-operation presentation with all k^2 relations
    (x i y) j z = x i (y j z), the one for pair (0, 0) with coefficient
    ``lead`` on its left side. Every pair projects to a rank-one line,
    so ranks cannot tell two values of ``lead`` apart."""
    vectors = [
        relation_vector(k, [(lead if (i, j) == (0, 0) else 1, i, j)], [(1, i, j)]).coordinates
        for i in range(k)
        for j in range(k)
    ]
    return Presentation(GeneratorSet(tuple(f"o{i}" for i in range(k))), span(vectors, 2 * k * k))


def scan_quotients(radius: int):
    """The quotients of the fifteen-relation square swept by the scan."""
    base = builtin("DendSquareDias")
    left_dir, right_dir = extra_relation_directions()
    for a, b in scan_grid(radius):
        extra = RelVector(
            tuple(
                a * x + b * y
                for x, y in zip(left_dir.coordinates, right_dir.coordinates)
            )
        )
        yield quotient(base, [extra])


@st.composite
def signed_relabelings(draw, k: int):
    perm = tuple(draw(st.permutations(range(k))))
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k)))
    return SignedRelabeling(perm, signs)


@st.composite
def relabeled_four_operation_pairs(draw):
    """A signed relabeling q of p, a 4-operation built-in, its dual or a
    scan-line quotient, paired with p or with p's dual in either order:
    against p a hit, against its dual a hit only when p is self-dual."""
    family = draw(st.sampled_from(("builtin", "dual", "scan")))
    if family == "scan":
        a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
        p = quotient(builtin("DendSquareDias"), [line_relation(a, b)])
    else:
        p = builtin(draw(st.sampled_from(("DendSquareDias", "Xplus", "Xminus"))))
        p = dual(p) if family == "dual" else p
    q = apply_relabeling(draw(signed_relabelings(4)), p)
    other = draw(st.sampled_from((p, dual(p))))
    return (q, other) if draw(st.booleans()) else (other, q)


@st.composite
def presentations(draw, max_ops: int = 2, min_ops: int = 1):
    k = draw(st.integers(min_value=min_ops, max_value=max_ops))
    ambient = 2 * k * k
    nvecs = draw(st.integers(min_value=0, max_value=3))
    vecs = [
        [
            Fraction(draw(st.integers(min_value=-2, max_value=2)))
            for _ in range(ambient)
        ]
        for _ in range(nvecs)
    ]
    names = tuple("abcd"[:k])
    return Presentation(GeneratorSet(names), span(vecs, ambient))


# values that are neither an int nor a Fraction, refused wherever numbers are held
INEXACT = (0.5, -0.5, 0.0, Decimal("0.5"), Decimal(1), "1", None)


def clear_relation_memos():
    """Forget every complement, quotient and recorded origin."""
    _forget_relation_facts()


def origin(space):
    """The origin ``quotient`` recorded on a space, or None."""
    return space._facts.get("origin")


def counted_complements(monkeypatch):
    """The spaces ``presentations`` complements by elimination from now on."""
    calls = []
    monkeypatch.setattr(
        quadops.presentations,
        "complement_under_form",
        lambda s, form: calls.append(s) or complement_under_form(s, form),
    )
    return calls


def direct_dual(relations):
    """The complement by elimination, never read off an origin."""
    return complement_under_form(relations, pairing_form(isqrt(relations.ambient_dim // 2)))


def unit_chain(length: int) -> tuple[Presentation, Presentation]:
    """A 24-operation free presentation and the quotient of it by the
    first ``length`` unit relations, asked one quotient at a time."""
    names = tuple(f"o{i}" for i in range(24))
    first = p = Presentation(GeneratorSet(names), span([], 1152))
    for c in range(length):
        p = quotient(p, [RelVector(tuple(int(j == c) for j in range(1152)))])
    return first, p


def counted_spaces(monkeypatch) -> list:
    """The rows of every ``Subspace`` constructed from now on."""
    built = []
    new = Subspace.__new__
    monkeypatch.setattr(
        Subspace,
        "__new__",
        staticmethod(lambda cls, n, rows: built.append(rows) or new(cls, n, rows)),
    )
    return built


def assert_dual_cut_into_one_space(monkeypatch, base: Presentation, q: Presentation):
    """With base's dual known, q's dual builds one new ``Subspace``, itself,
    and it is the complement by elimination."""
    dual(base)
    built = counted_spaces(monkeypatch)
    cut = dual(q).relations
    assert built == [cut.rows]
    assert cut == direct_dual(q.relations)


@st.composite
def extra_relations(draw, p: Presentation, min_size: int = 1, max_size: int = 3):
    """Extra relations for p, each zero, in p's span, a repeat of an
    earlier one or free."""
    n = p.ambient_dim
    basis = [r.coordinates for r in p.relation_rows()]
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    extras: list[RelVector] = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(("zero", "in span", "free", "repeat")))
        if kind == "zero" or (kind == "in span" and not basis):
            coords = (0,) * n
        elif kind == "in span":
            scales = draw(st.lists(coefficient, min_size=len(basis), max_size=len(basis)))
            coords = tuple(sum(c * row[i] for c, row in zip(scales, basis)) for i in range(n))
        elif kind == "free" or not extras:
            coords = tuple(draw(st.lists(coefficient, min_size=n, max_size=n)))
        else:
            coords = draw(st.sampled_from(extras)).coordinates
        extras.append(RelVector(coords))
    return extras


class TestCoordinates:
    def test_left_right_index(self):
        assert left_index(2, 1, 0) == 2
        assert right_index(2, 1, 0) == 6
        assert left_index(4, 1, 3) == 7
        assert right_index(4, 0, 2) == 18

    def test_relation_vector_is_left_minus_right(self):
        v = relation_vector(1, [(1, 0, 0)], [(1, 0, 0)])
        assert v.coordinates == (Fraction(1), Fraction(-1))

    def test_relation_vector_accumulates(self):
        v = relation_vector(2, [(1, 0, 0), (2, 0, 0)], [(1, 1, 1)])
        assert v.coordinates[0] == 3
        assert v.coordinates[7] == -1

    def test_bad_lengths_rejected(self):
        with pytest.raises(DimensionError):
            RelVector((Fraction(1),) * 6)
        with pytest.raises(DimensionError):
            RelVector(())

    @pytest.mark.parametrize("bad", INEXACT, ids=repr)
    def test_inexact_coordinates_rejected(self, bad):
        # the same TypeError linalg raises for a float matrix entry
        with pytest.raises(TypeError, match=re.escape(f"expected an integer or Fraction, got {bad!r}")):
            RelVector((1, bad))

    @pytest.mark.parametrize("bad", INEXACT, ids=repr)
    def test_inexact_matrix_entries_rejected(self, bad):
        # a float map would otherwise compose to a float composite
        message = re.escape(f"expected an integer or Fraction, got {bad!r}")
        with pytest.raises(TypeError, match=message):
            Matrix(1, 2, (1, bad))
        with pytest.raises(TypeError, match=message):
            Matrix.from_rows([[1], [bad]])

    def test_integral_fractions_stored_as_ints(self):
        coords = RelVector((Fraction(2), Fraction(1, 2))).coordinates
        assert coords == (2, Fraction(1, 2))
        assert type(coords[0]) is int
        assert type(coords[1]) is Fraction

    def test_exact_coordinates_accepted(self):
        assert RelVector((Fraction(1, 2), -1)).coordinates == (Fraction(1, 2), -1)
        assert RelVector((True, 0)).coordinates == (1, 0)

    def test_generator_set_validation(self):
        with pytest.raises(ValueError):
            GeneratorSet(())
        with pytest.raises(TypeError):
            GeneratorSet((1, 2))
        with pytest.raises(TypeError):
            GeneratorSet(("a", None))
        with pytest.raises(ValueError):
            GeneratorSet(("a", "a"))
        with pytest.raises(ValueError):
            GeneratorSet(("a", ""))

    @pytest.mark.parametrize("text", ["ab", "a", ""])
    def test_generator_set_refuses_a_string(self, text):
        # a string would be taken as a sequence of one-character names
        with pytest.raises(TypeError, match="sequence of strings"):
            GeneratorSet(text)

    def test_presentation_ambient_check(self):
        with pytest.raises(DimensionError):
            Presentation(GeneratorSet(("a",)), span([], 4))


class TestPairingAndDual:
    def test_pairing_signs(self):
        e = lambda i: RelVector(
            tuple(Fraction(1 if j == i else 0) for j in range(8))
        )
        assert pairing_value(e(0), e(0)) == 1
        assert pairing_value(e(4), e(4)) == -1
        assert pairing_value(e(0), e(4)) == 0

    def test_pairing_terms_on_common_support(self):
        # left-comb coordinates (the first half) keep the product's sign,
        # right-comb coordinates flip it; disjoint support gives no term
        v = RelVector(tuple(Fraction(x) for x in (1, 2, 0, 3, 1, 0, 2, -2)))
        w = RelVector(tuple(Fraction(x) for x in (2, -1, 5, 0, 3, 4, 1, 0)))
        assert list(pairing_terms(v, w)) == [2, -2, -3, -2]
        assert pairing_value(v, w) == -5

    def test_pairing_form_golden(self):
        assert pairing_form(1) == (1, -1)
        assert pairing_form(2) == (1, 1, 1, 1, -1, -1, -1, -1)

    def test_pairing_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pairing_value(
                RelVector((Fraction(1), Fraction(0))),
                RelVector((Fraction(1),) * 8),
            )

    def test_dual_names_get_starred(self):
        d = dual(builtin("Dend"))
        assert d.generators.names == ("∧*", "∨*")

    def test_dual_dimension_is_complementary(self):
        for name in ("As", "Dend", "Dias"):
            p = builtin(name)
            assert dual(p).relations.dimension == (
                p.ambient_dim - p.relations.dimension
            )

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dual_matches_sympy_nullspace_for_builtins(self, name):
        p = builtin(name)
        assert dual(p).relations == sympy_dual_relations(p)

    @given(presentations())
    @settings(deadline=None)
    def test_dual_matches_sympy_nullspace(self, p):
        assert dual(p).relations == sympy_dual_relations(p)

    @given(presentations())
    @settings(deadline=None)
    def test_dual_is_an_involution(self, p):
        assert dual(dual(p)).relations == p.relations

    @given(presentations())
    @settings(deadline=None)
    def test_dual_annihilates_under_pairing(self, p):
        d = dual(p)
        for u in p.relation_rows():
            for w in d.relation_rows():
                assert pairing_value(u, w) == 0


class TestDualMemo:
    """The complement of a relation space is kept on the space
    (its ``dual`` entry in ``Subspace._facts``) once computed."""

    def test_complement_lives_as_long_as_its_space(self, monkeypatch):
        calls = counted_complements(monkeypatch)
        clear_relation_memos()
        # distinct one-operation presentations: the lines through (1, b)
        lines = [span([[1, b]], 2) for b in range(1000, 1136)]
        duals = [dual(Presentation(GeneratorSet(("a",)), line)).relations for line in lines]
        assert calls == lines
        # every complement is kept, however many were asked after it
        again = [dual(Presentation(GeneratorSet(("b",)), line)).relations for line in lines]
        assert all(d is e for d, e in zip(duals, again))
        assert len(calls) == len(lines)
        assert all(line._facts["dual"] is d for line, d in zip(lines, duals))
        # and is collected with its space
        refs = [weakref.ref(d) for d in duals]
        del duals, again
        assert all(ref() is not None for ref in refs)
        calls.clear()
        del lines
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_names_are_not_part_of_the_key(self, monkeypatch):
        p = builtin("Dend")
        q = Presentation(GeneratorSet(("a", "b")), p.relations)
        calls = counted_complements(monkeypatch)
        clear_relation_memos()
        dp, dq = dual(p), dual(q)
        assert dp.generators.names == ("∧*", "∨*")
        assert dq.generators.names == ("a*", "b*")
        assert dp.relations is dq.relations
        assert calls == [p.relations]

    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "As"])
    def test_double_dual_computes_both_complements(self, monkeypatch, name):
        # the complement of R is kept on R only: were R kept on C alongside,
        # the second dual would be read off and the double-dual checks
        # would hold by construction
        p = builtin(name)
        calls = counted_complements(monkeypatch)
        clear_relation_memos()
        d = dual(p).relations
        assert origin(d) is None and "dual" not in d._facts
        assert dual(dual(p)).relations == p.relations
        assert calls == [p.relations, d]

    def test_one_operation_dual_is_the_same_space(self, monkeypatch):
        # As's relation space is its own complement, so its double dual
        # asks the same question twice
        p = builtin("As")
        calls = counted_complements(monkeypatch)
        clear_relation_memos()
        assert dual(dual(p)).relations == p.relations
        assert p.relations._facts["dual"] is p.relations
        assert calls == [p.relations]


class TestRelabelingMemo:
    """``find_relabeling_iso`` memoizes its search per ordered pair of
    canonical relation spaces (``_relabeling_iso``)."""

    def test_memo_is_bounded(self):
        maxsize = _relabeling_iso.cache_info().maxsize
        assert maxsize == 128
        _relabeling_iso.cache_clear()
        # distinct one-operation presentations: the lines through (1, b)
        for b in range(maxsize + 1):
            p = Presentation(GeneratorSet(("a",)), span([[1, b]], 2))
            assert find_relabeling_iso(p, p) == SignedRelabeling((0,), (1,))
        info = _relabeling_iso.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 1, maxsize)

    def test_names_are_not_part_of_the_key(self):
        p, target = dual(builtin("Xplus")), builtin("Xplus")
        renamed = Presentation(GeneratorSet(("a", "b", "c", "d")), p.relations)
        _relabeling_iso.cache_clear()
        witness = find_relabeling_iso(p, target)
        assert witness is not None
        assert find_relabeling_iso(renamed, target) == witness
        info = _relabeling_iso.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_warm_and_cleared_searches_agree(self):
        def questions():
            for q in scan_quotients(4):
                yield q, dual(q)
            for name in BUILTIN_NAMES:
                p = builtin(name)
                yield p, dual(p)
                yield p, p

        cleared = []
        for p, q in questions():
            _relabeling_iso.cache_clear()
            cleared.append(find_relabeling_iso(p, q))
        # 16 self-dual scan points; As, Xplus and Xminus against their
        # duals; every built-in against itself
        assert sum(w is not None for w in cleared) == 16 + 3 + 6
        _relabeling_iso.cache_clear()
        assert [find_relabeling_iso(p, q) for p, q in questions()] == cleared
        filled = _relabeling_iso.cache_info()
        # the quotients and duals are built anew, so every hit matches
        # equal spaces held by other objects
        assert [find_relabeling_iso(p, q) for p, q in questions()] == cleared
        info = _relabeling_iso.cache_info()
        assert info.misses == filled.misses
        assert info.hits - filled.hits == filled.hits + filled.misses

    def test_size_mismatch_raises_before_the_memo_is_asked(self):
        _relabeling_iso.cache_clear()
        with pytest.raises(DimensionError):
            find_relabeling_iso(builtin("Dend"), builtin("Xplus"))
        info = _relabeling_iso.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def one_operation_lines(count: int):
    """Distinct one-operation presentations: the lines through (1, b)."""
    return [Presentation(GeneratorSet(("a",)), span([[1, b]], 2)) for b in range(count)]


def renamed(p: Presentation) -> Presentation:
    """p with its operations renamed a, b, c, ..."""
    return Presentation(GeneratorSet(tuple("abcd"[: p.num_ops])), p.relations)


def damaged(name: str) -> Presentation:
    """A built-in with its first spanning relation deleted."""
    return catalog().without_relation(name, 0).presentation(name)


def scaled(phi: GeneratorMap, c: Fraction) -> GeneratorMap:
    """The map phi with every entry multiplied by c."""
    m = phi.matrix
    return GeneratorMap(
        phi.source, phi.target, Matrix(m.rows, m.cols, tuple(c * x for x in m.entries))
    )


class TestSquareMemo:
    """``square`` memoizes its relation space per ordered pair of
    canonical relation spaces (``_square_relations``)."""

    def test_memo_is_bounded(self):
        maxsize = _square_relations.cache_info().maxsize
        assert maxsize == 128
        _square_relations.cache_clear()
        for p in one_operation_lines(maxsize + 1):
            assert square(p, builtin("As")).relations == p.relations
        info = _square_relations.cache_info()
        assert (info.misses, info.currsize) == (maxsize + 1, maxsize)

    def test_names_are_not_part_of_the_key(self):
        p, q = builtin("Dend"), builtin("Dias")
        _square_relations.cache_clear()
        original = square(p, q)
        copy = square(renamed(p), renamed(q))
        assert original.generators.names == ("∧.⊣", "∧.⊢", "∨.⊣", "∨.⊢")
        assert copy.generators.names == ("a.a", "a.b", "b.a", "b.b")
        assert copy.relations == original.relations == builtin("DendSquareDias").relations
        info = _square_relations.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_damaged_space_misses(self):
        p = builtin("Dend")
        _square_relations.cache_clear()
        whole = square(p, builtin("Dias")).relations
        part = square(p, damaged("Dias")).relations
        info = _square_relations.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        assert whole == builtin("DendSquareDias").relations
        assert part.dimension < whole.dimension


class TestApplyRelabelingMemo:
    """``apply_relabeling`` keeps no memo: the battery keeps its records in
    ``verify._checked``. These tests pin what its removed memo relied on:
    equal spaces are moved alike, whatever the names."""

    def test_names_are_not_part_of_the_key(self):
        p = builtin("Dend")
        swap = SignedRelabeling((1, 0), (1, -1))
        original = apply_relabeling(swap, p)
        copy = apply_relabeling(swap, renamed(p))
        assert original.generators.names == ("∨", "∧")
        assert copy.generators.names == ("b", "a")
        assert copy.relations == original.relations != p.relations

    def test_damaged_space_misses(self):
        p = builtin("Xplus")
        whole = apply_relabeling(MIDDLE_SWAP, p).relations
        part = apply_relabeling(MIDDLE_SWAP, damaged("Xplus")).relations
        assert part.dimension == whole.dimension - 1
        # the self-duality witness carries the space onto the dual's
        assert whole == dual(p).relations

    def test_size_mismatch_raises_before_the_memo_is_asked(self):
        with pytest.raises(DimensionError):
            apply_relabeling(MIDDLE_SWAP, builtin("Dend"))


class TestMorphismMemo:
    """``is_morphism`` keeps no memo: the battery keeps its records in
    ``verify._checked``. These tests pin what its removed memo relied on:
    equal spaces and proportional maps get one answer, whatever the names."""

    def test_names_are_not_part_of_the_key(self):
        source, target = builtin("Dias"), builtin("Xplus")
        phi = builtin_map("Dias", "Xplus")
        a, b = renamed(source), renamed(target)
        copy = GeneratorMap(a.generators, b.generators, phi.matrix)
        assert is_morphism(phi, source, target)
        assert is_morphism(copy, a, b)

    def test_damaged_space_misses(self):
        phi = builtin_map("Xplus", "Dend")
        target = damaged("Dend")
        assert is_morphism(phi, builtin("Xplus"), builtin("Dend"))
        answer = is_morphism(phi, builtin("Xplus"), target)
        rows = target.relations.rational_rows()
        assert answer == all(
            sympy_in_span(rows, push_relation(phi, rel).coordinates)
            for rel in builtin("Xplus").relation_rows()
        )
        assert not answer

    def test_endpoint_mismatch_raises_before_the_memo_is_asked(self):
        phi = builtin_map("As", "Dend")
        with pytest.raises(DimensionError):
            is_morphism(phi, builtin("Dias"), builtin("Dend"))
        with pytest.raises(DimensionError):
            is_morphism(phi, builtin("As"), builtin("Dias"))

    def test_a_multiple_of_the_map_shares_the_entry(self):
        # scaling the map by c scales every pushed relation by c^2
        phi = builtin_map("Dias", "Xplus")
        half = scaled(phi, Fraction(1, 2))
        assert half != phi
        assert is_morphism(phi, builtin("Dias"), builtin("Xplus"))
        assert is_morphism(half, builtin("Dias"), builtin("Xplus"))

    def test_different_maps_never_share_an_answer(self):
        source, target = builtin("Dias"), builtin("Xplus")
        top_row = GeneratorMap(
            source.generators,
            target.generators,
            Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]]),
        )
        assert is_morphism(builtin_map("Dias", "Xplus"), source, target)
        assert not is_morphism(top_row, source, target)
        assert is_morphism(builtin_map("Dias", "Xplus"), source, target)


class TestSquare:
    def test_one_operation_identity_relations(self):
        left = square(builtin("As"), builtin("Dend"))
        assert left.relations == builtin("Dend").relations
        assert left.generators.names == ("·.∧", "·.∨")

    @given(presentations())
    @settings(deadline=None)
    def test_one_operation_unit_on_random_inputs(self, p):
        assert square(builtin("As"), p).relations == p.relations
        assert square(p, builtin("As")).relations == p.relations

    def test_transpose_symmetry(self):
        forward = square(builtin("Dend"), builtin("Dias"))
        backward = square(builtin("Dias"), builtin("Dend"))
        transpose = SignedRelabeling((0, 2, 1, 3), (1, 1, 1, 1))
        assert apply_relabeling(transpose, forward).relations == backward.relations

    def test_associativity_under_index_flattening(self):
        p, q, r = builtin("Dend"), builtin("Dias"), builtin("As")
        lhs = square(square(p, q), r)
        rhs = square(p, square(q, r))
        assert lhs.relations == rhs.relations

    @given(presentations(max_ops=2), presentations(max_ops=2))
    @settings(deadline=None, max_examples=25)
    def test_square_dimension_at_most_product(self, p, q):
        # products of basis vectors can collapse (a left-only vector times a
        # right-only vector is zero), so only an upper bound holds in general
        assert square(p, q).relations.dimension <= (
            p.relations.dimension * q.relations.dimension
        )


class TestQuotient:
    def test_quotient_by_own_relation_changes_nothing(self):
        p = builtin("Dend")
        assert quotient(p, [dend_relations()[0]]).relations == p.relations

    def test_quotient_grows_dimension(self):
        p = builtin("Dend")
        extra = relation_vector(2, [(1, 0, 0)], [])
        q = quotient(p, [extra])
        assert q.relations.dimension == 4
        assert q.generators == p.generators

    def test_quotient_wrong_ambient(self):
        with pytest.raises(DimensionError):
            quotient(builtin("Dend"), [relation_vector(1, [(1, 0, 0)], [])])

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_matches_the_span_of_all_rows(self, data):
        p = data.draw(presentations(max_ops=3))
        n = p.ambient_dim
        basis = [r.coordinates for r in p.relation_rows()]
        coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        extras: list[RelVector] = []
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(("zero", "in span", "free", "repeat")))
            if kind == "zero" or (kind == "in span" and not basis):
                coords = (0,) * n
            elif kind == "in span":
                scales = data.draw(st.lists(coefficient, min_size=len(basis), max_size=len(basis)))
                coords = tuple(sum(c * row[i] for c, row in zip(scales, basis)) for i in range(n))
            elif kind == "free" or not extras:
                coords = tuple(data.draw(st.lists(coefficient, min_size=n, max_size=n)))
            else:
                coords = data.draw(st.sampled_from(extras)).coordinates
            extras.append(RelVector(coords))
        rows = [dict(row) for row in p.relations.rows]
        rows += [sparse_row(rv.coordinates) for rv in extras]
        expected = span_rows(rows, n)
        q = quotient(p, extras)
        assert q.relations == expected
        assert q.generators == p.generators
        if expected == p.relations:
            # nothing added: p's own relation space comes back
            assert q.relations is p.relations

    def test_rows_cleared_at_a_new_lead_stay_primitive(self):
        # (2, 0, 0, 1, 0, 1, 0, 0) minus the extra (0, 0, 0, 1, 0, -1, 0, 0)
        # is (2, 0, 0, 0, 0, 2, 0, 0), which must be divided by 2 again
        p = Presentation(GeneratorSet(("a", "b")), span([[2, 0, 0, 1, 0, 1, 0, 0]], 8))
        extra = RelVector((0, 0, 0, 1, 0, -1, 0, 0))
        assert quotient(p, [extra]).relations.rows == (((0, 1), (5, 1)), ((3, 1), (5, -1)))

    def test_a_quotient_by_several_rows_builds_one_space(self, monkeypatch):
        # the second direction lies in the span of the first two rows, so
        # two of the three grow the space, into one new Subspace
        base = builtin("DendSquareDias")
        left_dir, right_dir = extra_relation_directions()
        clear_relation_memos()
        built = counted_spaces(monkeypatch)
        q = quotient(base, [left_dir, line_relation(1, 2), right_dir]).relations
        assert built == [q.rows]
        assert q.dimension == base.relations.dimension + 2

    @given(presentations(max_ops=3))
    @settings(deadline=None, max_examples=20)
    def test_wrong_length_extra_leaves_p_unchanged(self, p):
        before = (p.generators, p.relations.rows)
        good = RelVector((1,) + (0,) * (p.ambient_dim - 1))
        wrong = RelVector((1,) * (2 * (p.num_ops + 1) ** 2))
        with pytest.raises(DimensionError):
            quotient(p, [good, wrong])
        assert (p.generators, p.relations.rows) == before


class TestQuotientMemo:
    """``quotient`` memoizes its relation space per canonical base space
    and tuple of primitive extra rows (``_quotient_relations``)."""

    def test_a_multiple_of_the_extra_relation_is_a_hit(self):
        base = builtin("DendSquareDias")
        x = line_relation(1, 2)
        clear_relation_memos()
        q = quotient(base, [x])
        doubled = RelVector(tuple(2 * c for c in x.coordinates))
        assert quotient(base, [doubled]).relations is q.relations
        info = _quotient_relations.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_zero_rows_are_not_part_of_the_key(self):
        base = builtin("DendSquareDias")
        x, zero = line_relation(-3, 1), RelVector((0,) * 32)
        clear_relation_memos()
        q = quotient(base, [x])
        assert quotient(base, [zero, x, zero]).relations is q.relations
        # nothing but zeros: p's own space, and the memo is not asked
        assert quotient(base, [zero]).relations is base.relations
        info = _quotient_relations.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_relation_in_the_span_gives_back_p_own_space(self):
        p = builtin("Dend")
        other = Presentation(p.generators, span([r.coordinates for r in dend_relations()], 8))
        # spaces are interned: the span built apart is p's own object
        assert other.relations == p.relations and other.relations is p.relations
        clear_relation_memos()
        assert quotient(other, [dend_relations()[0]]).relations is other.relations
        assert quotient(p, [dend_relations()[0]]).relations is p.relations
        assert _quotient_relations.cache_info().hits == 1
        # nothing was added, so nothing was recorded
        assert origin(p.relations) is None


def primitive_row(v: RelVector):
    """A relation as its primitive integer row with a positive lead."""
    row = sparse_row(v.coordinates)
    scale = gcd(*row.values()) * (1 if next(iter(row.values())) > 0 else -1)
    return tuple((c, x // scale) for c, x in row.items())


class TestOriginRecord:
    """How each quotient was made is recorded on the space it grew
    (its ``origin`` entry in ``Subspace._facts``), and lives as long as
    that space."""

    def test_record_lives_as_long_as_its_space(self):
        p = Presentation(GeneratorSet(("a",)), span([], 2))
        clear_relation_memos()
        # distinct one-operation quotients: the lines through (1, b), more
        # than the quotient memo holds
        lines = [quotient(p, [RelVector((1, b))]).relations for b in range(136)]
        assert _quotient_relations.cache_info().currsize == 128
        assert all(origin(line) == (p.relations, (line.rows[0],)) for line in lines)
        assert all(origin(line)[0] is p.relations for line in lines)
        # the base keeps no quotient alive: dropping the quotients and the
        # memo collects them
        refs = [weakref.ref(line) for line in lines]
        del lines
        _quotient_relations.cache_clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_hot_quotient_keeps_its_record(self):
        # asked between every two others: its memo entry and its record
        # both stay, and so do the records of the others, though far more
        # than the memo holds were made after them
        base = builtin("DendSquareDias")
        clear_relation_memos()
        hot = quotient(base, [line_relation(1, 1)]).relations
        others = [(a, b) for a in range(1, 20) for b in range(2, 20) if gcd(a, b) == 1][:140]
        assert len(others) == 140
        spaces = []
        for a, b in others:
            spaces.append(quotient(base, [line_relation(a, b)]).relations)
            assert quotient(base, [line_relation(1, 1)]).relations is hot
        assert _quotient_relations.cache_info().currsize == 128
        assert origin(hot)[0] is base.relations
        assert all(origin(q)[0] is base.relations for q in spaces)

    def test_only_the_rows_that_grew_the_space_are_recorded(self):
        base = builtin("DendSquareDias")
        x = line_relation(1, 2)
        doubled = RelVector(tuple(2 * c for c in x.coordinates))
        inside = tableau_vectors()[3]
        clear_relation_memos()
        q = quotient(base, [inside, x, doubled, line_relation(2, 4)]).relations
        assert origin(q) == (base.relations, (primitive_row(x),))

    def test_a_chain_of_quotients_records_its_first_base(self):
        base = builtin("DendSquareDias")
        left_dir, right_dir = extra_relation_directions()
        clear_relation_memos()
        middle = quotient(base, [left_dir]).relations
        top = quotient(Presentation(base.generators, middle), [right_dir]).relations
        assert origin(middle) == (base.relations, (primitive_row(left_dir),))
        assert origin(top) == (base.relations, (primitive_row(left_dir), primitive_row(right_dir)))
        assert origin(top)[0] is base.relations

    def test_a_long_chain_of_quotients_takes_its_dual(self, monkeypatch):
        # one unit relation at a time, more quotients than the interpreter
        # has frames: every origin names the first space, so the dual is
        # cut from its complement without following a chain, and by all
        # 1,100 rows into one new space
        first, p = unit_chain(1100)
        assert origin(p.relations)[0] is first.relations and len(origin(p.relations)[1]) == 1100
        assert_dual_cut_into_one_space(monkeypatch, first, p)

    def test_the_first_record_stays(self):
        # the same space grown again, in the other order, keeps its first origin
        base = builtin("DendSquareDias")
        left_dir, right_dir = extra_relation_directions()
        clear_relation_memos()
        both = quotient(base, [left_dir, right_dir]).relations
        first = origin(both)
        assert first == (base.relations, (primitive_row(left_dir), primitive_row(right_dir)))
        other = quotient(base, [right_dir])
        assert quotient(other, [left_dir]).relations is both
        assert origin(both) is first

    def test_a_dropped_quotient_frees_its_base(self):
        # a base that only its quotient's record holds lives as long as the
        # quotient, whatever was computed about the two
        p = Presentation(GeneratorSet(("a", "b")), span([[1, 2, 0, 0, 0, 0, 0, 5]], 8))
        q = quotient(p, [RelVector((0, 1, 0, 0, 0, 0, 3, 0))])
        assert dual(q).relations == direct_dual(q.relations)
        base = weakref.ref(p.relations)
        assert base()._facts["dual"] is not None and origin(q.relations)[0] is base()
        _quotient_relations.cache_clear()
        del p
        gc.collect()
        assert base() is not None
        grown = weakref.ref(q.relations)
        del q
        gc.collect()
        assert base() is None and grown() is None

    def test_a_space_with_no_origin_is_eliminated(self, monkeypatch):
        calls = counted_complements(monkeypatch)
        p = builtin("Xplus")
        clear_relation_memos()
        dual(p)
        assert calls == [p.relations]


@pytest.fixture
def fresh_builtins():
    """``builtin``'s cache emptied before the test and after it, so the
    test makes its built-ins and no later test is served one of them."""
    builtin.cache_clear()
    yield
    builtin.cache_clear()


# In a fresh process: the dimensions of the spaces that dual(Xplus) and
# dual(Xminus) complement by elimination, with or without an ideal first.
DUAL_PROBE = """
import sys
sys.path.insert(0, {src!r})
import quadops.presentations as presentations
from quadops.catalog import builtin
from quadops.expansion import component_dim
from quadops.linalg import complement_under_form
dims = []
def complement(s, form):
    dims.append(s.dimension)
    return complement_under_form(s, form)
presentations.complement_under_form = complement
if sys.argv[1] == "ideal-first":
    component_dim(builtin("Xplus"), 4)
presentations.dual(builtin("Xplus"))
presentations.dual(builtin("Xminus"))
print(dims)
"""


# In a fresh process: the dimensions dual(Xplus) and dual(Xminus) complement
# by elimination, and the base Xplus's weight-5 ideal grows from, after 200
# unrelated growing quotients.
HISTORY_PROBE = """
import sys
sys.path.insert(0, {src!r})
import quadops.expansion as expansion
import quadops.presentations as presentations
from quadops.catalog import builtin
from quadops.linalg import complement_under_form, span
from quadops.presentations import GeneratorSet, Presentation, RelVector, quotient
xplus, xminus = builtin("Xplus"), builtin("Xminus")
line = Presentation(GeneratorSet(("a",)), span([], 2))
grown = [quotient(line, [RelVector((1, b))]) for b in range(200)]
dims = []
def complement(s, form):
    dims.append(s.dimension)
    return complement_under_form(s, form)
presentations.complement_under_form = complement
presentations.dual(xplus)
presentations.dual(xminus)
bases = []
base_echelon = expansion._base_echelon
def recorded(relations, n):
    bases.append((relations.dimension, n))
    return base_echelon(relations, n)
expansion._base_echelon = recorded
expansion.weight_component(xplus, 5)
print(dims, bases)
"""


class TestCatalogOrigins:
    """``catalog.builtin`` records Xplus and Xminus through ``quotient``,
    the only writer of an origin, as DendSquareDias and the last
    relation of their literal lists."""

    @pytest.mark.parametrize("name,sign", (("Xplus", 1), ("Xminus", -1)))
    def test_builtins_are_recorded_when_made(self, fresh_builtins, name, sign):
        clear_relation_memos()
        space = builtin(name).relations
        square_space = builtin("DendSquareDias").relations
        assert origin(space) == (square_space, (primitive_row(sixteenth_vector(sign)),))
        assert origin(space)[0] is square_space

    def test_other_builtins_ask_no_quotient(self, fresh_builtins):
        clear_relation_memos()
        for name in ("As", "Dend", "Dias", "DendSquareDias"):
            assert origin(builtin(name).relations) is None
        assert _quotient_relations.cache_info().misses == 0

    @pytest.mark.parametrize(
        "literal",
        (
            # the span is Xplus, but the last relation adds nothing to the square
            lambda: (sixteenth_vector(1),) + tableau_vectors(),
            # the square plus the last relation is Xplus, but the span is not
            lambda: tableau_vectors()[1:] + (sixteenth_vector(1),),
        ),
        ids=("sixteenth-first", "tableau-row-missing"),
    )
    def test_a_wrong_literal_list_gets_no_record(self, fresh_builtins, monkeypatch, literal):
        real = spanning_relations
        # the package's ``catalog`` is the function, so take the module
        monkeypatch.setattr(
            sys.modules["quadops.catalog"],
            "spanning_relations",
            lambda name: literal() if name == "Xplus" else real(name),
        )
        clear_relation_memos()
        assert origin(builtin("Xplus").relations) is None

    @pytest.mark.parametrize("order", ("dual-first", "ideal-first"))
    def test_the_dual_of_a_fresh_builtin_is_cut_from_the_square(self, order):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-I", "-c", DUAL_PROBE.format(src=src), order],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # the square's complement once; both duals are cut from it
        assert proc.stdout == "[15]\n"

    def test_records_outlive_unrelated_quotients(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-I", "-c", HISTORY_PROBE.format(src=src)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # both duals cut from the square's complement, and the ideal grown
        # from the square's weight-5 echelon, as in a process that made
        # no other quotient
        assert proc.stdout == "[15] [(15, 5)]\n"


class TestDerivedDuals:
    """A dual read off a recorded origin is the canonical space that
    ``complement_under_form`` gives."""

    def test_scan_quotients(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            quadops.presentations,
            "complement_under_form",
            lambda s, form: calls.append(s) or complement_under_form(s, form),
        )
        clear_relation_memos()
        for q in scan_quotients(4):
            assert dual(q).relations == direct_dual(q.relations)
        # only the square's complement is eliminated; every quotient's is cut from it
        assert calls == [builtin("DendSquareDias").relations]

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_drawn_quotients(self, data):
        p = data.draw(presentations(max_ops=3))
        extras = data.draw(extra_relations(p))
        clear_relation_memos()
        q = quotient(p, extras)
        assert dual(q).relations == direct_dual(q.relations)
        assert dual(p).relations == direct_dual(p.relations)

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_quotients_of_quotients(self, data):
        clear_relation_memos()
        chain = [data.draw(presentations(max_ops=3))]
        for _ in range(2):
            chain.append(quotient(chain[-1], data.draw(extra_relations(chain[-1]))))
        # each quotient records the first space as its base, so each dual
        # is cut from the first one's
        assert all(origin(q.relations) is None or origin(q.relations)[0] is chain[0].relations for q in chain)
        for q in reversed(chain):
            assert dual(q).relations == direct_dual(q.relations)

    @pytest.mark.parametrize("length", [1, 2])
    def test_short_unit_chains(self, monkeypatch, length):
        assert_dual_cut_into_one_space(monkeypatch, *unit_chain(length))

    def test_both_directions_cut_into_one_new_space(self, monkeypatch):
        base = builtin("DendSquareDias")
        clear_relation_memos()
        q = quotient(base, list(extra_relation_directions()))
        assert len(origin(q.relations)[1]) == 2
        assert_dual_cut_into_one_space(monkeypatch, base, q)

    def test_the_two_directions_one_at_a_time(self):
        base = builtin("DendSquareDias")
        left_dir, right_dir = extra_relation_directions()
        clear_relation_memos()
        twice = quotient(quotient(base, [left_dir]), [right_dir])
        once = quotient(base, [left_dir, right_dir])
        assert twice.relations == once.relations
        assert dual(twice).relations == direct_dual(twice.relations)
        assert dual(once).relations == dual(twice).relations

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_double_dual_of_builtins(self, name):
        p = builtin(name)
        clear_relation_memos()
        assert dual(dual(p)).relations == p.relations

    @pytest.mark.parametrize("sign", [1, -1])
    def test_double_dual_of_the_constructed_pair(self, sign):
        # the sixteen-relation pair as the square's quotient: its dual is cut
        constructed = square(builtin("Dend"), builtin("Dias"))
        clear_relation_memos()
        q = quotient(constructed, [sixteenth_vector(sign)])
        assert q.relations == builtin("Xplus" if sign == 1 else "Xminus").relations
        assert dual(q).relations == direct_dual(q.relations)
        assert dual(dual(q)).relations == q.relations

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_double_dual_of_drawn_quotients(self, data):
        p = data.draw(presentations(max_ops=3))
        q = quotient(p, data.draw(extra_relations(p)))
        clear_relation_memos()
        assert dual(dual(q)).relations == q.relations


class TestMaps:
    def test_map_shape_validated(self):
        with pytest.raises(DimensionError):
            GeneratorMap(
                GeneratorSet(("a",)),
                GeneratorSet(("b", "c")),
                Matrix.from_rows([[1], [1]]),
            )

    def test_push_associativity_through_sum_of_halves(self):
        phi = builtin_map("As", "Dend")
        pushed = push_relation(phi, as_relations()[0])
        total = [Fraction(0)] * 8
        for rel in dend_relations():
            total = [x + y for x, y in zip(total, rel.coordinates)]
        assert pushed.coordinates == tuple(total)

    def test_push_is_linear(self):
        phi = builtin_map("Dias", "Xplus")
        u = relation_vector(2, [(1, 0, 0)], [(1, 1, 1)])
        v = relation_vector(2, [(2, 1, 0)], [(1, 0, 1)])
        w = RelVector(
            tuple(a + 3 * b for a, b in zip(u.coordinates, v.coordinates))
        )
        pu = push_relation(phi, u).coordinates
        pv = push_relation(phi, v).coordinates
        pw = push_relation(phi, w).coordinates
        assert pw == tuple(a + 3 * b for a, b in zip(pu, pv))

    def test_push_wrong_source(self):
        with pytest.raises(DimensionError):
            push_relation(builtin_map("As", "Dend"), dend_relations()[0])

    def test_standard_maps_are_morphisms(self):
        for source, target in builtin_map_pairs():
            phi = builtin_map(source, target)
            assert is_morphism(phi, builtin(source), builtin(target)), (
                source,
                target,
            )

    def test_standard_maps_against_span_oracle(self):
        for source, target in builtin_map_pairs():
            phi = builtin_map(source, target)
            rows = builtin(target).relations.rational_rows()
            for rel in builtin(source).relation_rows():
                image = push_relation(phi, rel)
                assert sympy_in_span(rows, image.coordinates)

    def test_projection_onto_top_row_is_not_a_morphism(self):
        phi = GeneratorMap(
            builtin("Dias").generators,
            builtin("Xplus").generators,
            Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]]),
        )
        assert not is_morphism(phi, builtin("Dias"), builtin("Xplus"))
        rows = builtin("Xplus").relations.rational_rows()
        bad = [
            rel
            for rel in builtin("Dias").relation_rows()
            if not sympy_in_span(rows, push_relation(phi, rel).coordinates)
        ]
        assert bad

    def test_is_morphism_endpoint_checks(self):
        phi = builtin_map("As", "Dend")
        with pytest.raises(DimensionError):
            is_morphism(phi, builtin("Dias"), builtin("Dend"))
        with pytest.raises(DimensionError):
            is_morphism(phi, builtin("As"), builtin("Dias"))

    def test_compose_golden(self):
        through_sum = compose_maps(
            builtin_map("Dias", "Xplus"), builtin_map("Xplus", "Dend")
        )
        through_single = compose_maps(
            builtin_map("Dias", "As"), builtin_map("As", "Dend")
        )
        expected = Matrix.from_rows([[1, 1], [1, 1]])
        assert through_sum.matrix == expected
        assert through_single.matrix == expected
        assert through_sum.source == builtin("Dias").generators
        assert through_sum.target == builtin("Dend").generators

    def test_compose_mismatch(self):
        with pytest.raises(DimensionError):
            compose_maps(builtin_map("As", "Dend"), builtin_map("Dias", "As"))

    def test_composite_carries_the_renamed_names(self):
        f, g = builtin_map("Dias", "Xplus"), builtin_map("Xplus", "Dend")
        a, b, c = (renamed(builtin(n)).generators for n in ("Dias", "Xplus", "Dend"))
        original = compose_maps(f, g)
        copy = compose_maps(GeneratorMap(a, b, f.matrix), GeneratorMap(b, c, g.matrix))
        assert (original.source, original.target) == (f.source, g.target)
        assert (copy.source, copy.target) == (a, c)
        assert copy.matrix == original.matrix

    def test_composite_of_a_scaled_map_is_scaled(self):
        f, g = builtin_map("Dias", "Xplus"), builtin_map("Xplus", "Dend")
        once = compose_maps(f, g).matrix
        twice = compose_maps(scaled(f, Fraction(2)), g).matrix
        assert twice.entries == tuple(2 * x for x in once.entries)
        assert all(type(x) is int for x in twice.entries)
        half = compose_maps(scaled(f, Fraction(1, 2)), g).matrix
        assert half.entries == tuple(Fraction(x, 2) for x in once.entries)


class TestRelabeling:
    def test_identity_fixes_everything(self):
        p = builtin("Dend")
        same = apply_relabeling(SignedRelabeling((0, 1), (1, 1)), p)
        assert same.relations == p.relations
        assert same.generators == p.generators

    def test_swap_moves_names_and_relations(self):
        p = builtin("Dend")
        swapped = apply_relabeling(SignedRelabeling((1, 0), (1, 1)), p)
        assert swapped.generators.names == ("∨", "∧")
        assert swapped.relations != p.relations

    def test_relabeling_validation(self):
        with pytest.raises(ValueError):
            SignedRelabeling((0, 0), (1, 1))
        with pytest.raises(ValueError):
            SignedRelabeling((0, 1), (1, 2))
        with pytest.raises(DimensionError):
            apply_relabeling(SignedRelabeling((0,), (1,)), builtin("Dend"))
        # every entry and sign must be an int; bool is refused too
        for perm, signs in (
            ((1.0, 0), (1, -1)),
            ((1, 0), (1.0, -1)),
            ((True, 0), (1, 1)),
            ((1, 0), (True, -1)),
            ((1, 0), (Fraction(1), 1)),
        ):
            with pytest.raises(TypeError):
                SignedRelabeling(perm, signs)

    @given(presentations(max_ops=2), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=25)
    def test_relabeling_round_trip(self, p, rng):
        k = p.num_ops
        perm = tuple(rng.sample(range(k), k))
        signs = tuple(rng.choice((1, -1)) for _ in range(k))
        sigma = SignedRelabeling(perm, signs)
        inverse_perm = tuple(perm.index(i) for i in range(k))
        inverse_signs = tuple(signs[perm.index(i)] for i in range(k))
        inverse = SignedRelabeling(inverse_perm, inverse_signs)
        back = apply_relabeling(inverse, apply_relabeling(sigma, p))
        assert back.relations == p.relations
        assert back.generators == p.generators

    def test_find_iso_respects_signs(self):
        minus = Presentation(
            GeneratorSet(("a", "b")),
            span([relation_vector(2, [(1, 0, 0)], [(1, 0, 1)]).coordinates], 8),
        )
        plus = Presentation(
            GeneratorSet(("a", "b")),
            span([relation_vector(2, [(1, 0, 0)], [(-1, 0, 1)]).coordinates], 8),
        )
        sigma = find_relabeling_iso(minus, plus)
        assert sigma == SignedRelabeling((0, 1), (1, -1))
        assert apply_relabeling(sigma, minus).relations == plus.relations

    def test_find_iso_identity_first(self):
        p = builtin("Dias")
        assert find_relabeling_iso(p, p) == SignedRelabeling((0, 1), (1, 1))

    def test_find_iso_dimension_shortcut(self):
        assert find_relabeling_iso(builtin("Dend"), builtin("Dias")) is None

    def test_find_iso_size_mismatch(self):
        with pytest.raises(DimensionError):
            find_relabeling_iso(builtin("As"), builtin("Dend"))

    def test_no_iso_between_halves_presentations(self):
        one = Presentation(
            GeneratorSet(("a", "b")),
            span([relation_vector(2, [(1, 0, 0)], []).coordinates], 8),
        )
        other = Presentation(
            GeneratorSet(("a", "b")),
            span(
                [relation_vector(2, [(1, 0, 0), (1, 1, 1)], []).coordinates], 8
            ),
        )
        assert find_relabeling_iso(one, other) is None


class TestPrunedSearchMatchesExhaustiveSearch:
    """The pruned search returns exactly what trying every candidate does."""

    def test_scan_quotients_against_their_duals(self):
        hits = 0
        for q in scan_quotients(4):
            witness = find_relabeling_iso(q, dual(q))
            assert witness == exhaustive_relabeling_iso(q, dual(q))
            hits += witness is not None
        assert hits == 16

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_against_dual_and_itself(self, name):
        p = builtin(name)
        d = dual(p)
        for left, right in ((p, d), (d, p), (p, p)):
            assert find_relabeling_iso(left, right) == exhaustive_relabeling_iso(
                left, right
            )

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_random_relabeling_is_found_first(self, data):
        p = data.draw(presentations(max_ops=3))
        q = apply_relabeling(data.draw(signed_relabelings(p.num_ops)), p)
        witness = find_relabeling_iso(p, q)
        assert witness is not None
        assert witness == exhaustive_relabeling_iso(p, q)
        assert apply_relabeling(witness, p).relations == q.relations

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_unrelated_draws(self, data):
        p = data.draw(presentations(max_ops=3))
        k = p.num_ops
        q = data.draw(presentations(min_ops=k, max_ops=k))
        assert find_relabeling_iso(p, q) == exhaustive_relabeling_iso(p, q)

    @given(relabeled_four_operation_pairs())
    @settings(deadline=None, max_examples=60)
    def test_relabeled_four_operation_draws(self, pair):
        left, right = pair
        assert find_relabeling_iso(left, right) == exhaustive_relabeling_iso(left, right)


class TestOnlySurvivorsAreMapped:
    """A permutation becomes a coordinate map only when it carries every
    pair's projection of p onto q's, in lexicographic order, and the
    search stops at the first match; spaces of different dimensions are
    rejected before any."""

    @staticmethod
    def mapped_permutations(monkeypatch, p, q):
        mapped = []
        index_map = quadops.presentations._index_map

        def recording_index_map(perm, k):
            mapped.append(tuple(perm))
            return index_map(perm, k)

        monkeypatch.setattr(quadops.presentations, "_index_map", recording_index_map)
        # a warm memo would answer without mapping anything
        _relabeling_iso.cache_clear()
        witness = find_relabeling_iso(p, q)
        monkeypatch.undo()
        k = p.num_ops
        before, after = sympy_pair_projections(p), sympy_pair_projections(q)
        survivors = [
            perm
            for perm in itertools.permutations(range(k))
            if all(
                after[perm[i] * k + perm[j]] == before[i * k + j]
                for i in range(k)
                for j in range(k)
            )
        ]
        if p.relations.dimension != q.relations.dimension:
            survivors = []
        elif witness is not None:
            survivors = survivors[: survivors.index(witness.permutation) + 1]
        return mapped, survivors

    def test_scan_quotients_against_their_duals(self, monkeypatch):
        for q in scan_quotients(4):
            mapped, survivors = self.mapped_permutations(monkeypatch, q, dual(q))
            assert mapped == survivors

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_against_dual_and_itself(self, monkeypatch, name):
        p = builtin(name)
        d = dual(p)
        for left, right in ((p, d), (d, p), (p, p)):
            mapped, survivors = self.mapped_permutations(monkeypatch, left, right)
            assert mapped == survivors

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_drawn_pairs(self, data):
        p = data.draw(presentations(max_ops=3))
        k = p.num_ops
        if data.draw(st.booleans()):
            q = apply_relabeling(data.draw(signed_relabelings(k)), p)
        else:
            q = data.draw(presentations(min_ops=k, max_ops=k))
        with pytest.MonkeyPatch.context() as monkeypatch:
            mapped, survivors = self.mapped_permutations(monkeypatch, p, q)
        assert mapped == survivors

    @given(relabeled_four_operation_pairs())
    @settings(deadline=None, max_examples=40)
    def test_relabeled_four_operation_draws(self, pair):
        with pytest.MonkeyPatch.context() as monkeypatch:
            mapped, survivors = self.mapped_permutations(monkeypatch, *pair)
        assert mapped == survivors


class TestProjectionsSeparateEqualRanks:
    """Two presentations whose pairs all project to lines, one of them a
    different line: the ranks agree everywhere, the projections do not."""

    def test_seven_operations_rejected_without_elimination(self, monkeypatch):
        p, q = all_pairs_associative(7, lead=2), all_pairs_associative(7)
        calls = []

        def counting_reduce_row(*args, **kwargs):
            calls.append(args)
            return reduce_row(*args, **kwargs)

        monkeypatch.setattr(quadops.presentations, "reduce_row", counting_reduce_row)
        _relabeling_iso.cache_clear()
        assert find_relabeling_iso(p, q) is None
        assert find_relabeling_iso(q, p) is None
        assert calls == []

    def test_five_operations_match_the_exhaustive_search(self):
        p, q = all_pairs_associative(5, lead=2), all_pairs_associative(5)
        for left, right in ((p, q), (q, p), (p, p)):
            assert find_relabeling_iso(left, right) == exhaustive_relabeling_iso(
                left, right
            )


class TestPairRanks:
    """The relation space projected onto each coordinate pair
    (``_pair_projections``): its rank and, for rank one, the line
    itself, which the oracle pins whole."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_sympy_for_builtins(self, name):
        p = builtin(name)
        assert _pair_projections(p.relations) == sympy_pair_projections(p)
        assert _pair_projections(dual(p).relations) == sympy_pair_projections(dual(p))

    @given(presentations(max_ops=3))
    @settings(deadline=None, max_examples=40)
    def test_matches_sympy(self, p):
        assert _pair_projections(p.relations) == sympy_pair_projections(p)

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_carried_along_by_relabeling(self, data):
        p = data.draw(presentations(max_ops=3))
        k = p.num_ops
        sigma = data.draw(signed_relabelings(k))
        before = _pair_projections(p.relations)
        after = _pair_projections(apply_relabeling(sigma, p).relations)
        perm = sigma.permutation
        for i in range(k):
            for j in range(k):
                assert after[perm[i] * k + perm[j]] == before[i * k + j]

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_negating_every_sign_gives_the_same_relabeling(self, data):
        p = data.draw(presentations(max_ops=3))
        sigma = data.draw(signed_relabelings(p.num_ops))
        negated = SignedRelabeling(sigma.permutation, tuple(-s for s in sigma.signs))
        image = apply_relabeling(sigma, p)
        assert image.relations == apply_relabeling(negated, p).relations
        flipped = SignedRelabeling(tuple(range(p.num_ops)), sigma.signs)
        flipped_relations = apply_relabeling(flipped, p).relations
        assert _pair_projections(flipped_relations) == _pair_projections(p.relations)

    def test_scan_quotients_widen_the_square(self):
        # each grown from the square: its projections start from the
        # square's and pass over the sixteenth relation alone
        clear_relation_memos()
        for q in scan_quotients(4):
            assert origin(q.relations) is None or origin(q.relations)[0] == builtin("DendSquareDias").relations
            assert _pair_projections(q.relations) == sympy_pair_projections(q)

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_a_quotient_widens_its_base_projections(self, data):
        p = data.draw(presentations(max_ops=3))
        extras = data.draw(extra_relations(p))
        clear_relation_memos()
        q = quotient(p, extras)
        derived = _pair_projections(q.relations)
        assert derived == sympy_pair_projections(q)
        # with no origin the projections are read off every row
        clear_relation_memos()
        assert origin(q.relations) is None
        assert _pair_projections(q.relations) == derived


class TestIntegerCoordinates:
    """Every relation vector the package builds holds an int at each
    integral coordinate; a Fraction only where a value is not integral."""

    @staticmethod
    def ints(values) -> bool:
        return all(type(x) is int for x in values)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_relations(self, name):
        assert all(self.ints(v.coordinates) for v in spanning_relations(name))

    def test_scan_directions(self):
        assert all(self.ints(v.coordinates) for v in extra_relation_directions())

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_basis_rows_of_builtins_and_duals(self, name):
        for p in (builtin(name), dual(builtin(name))):
            assert all(self.ints(v.coordinates) for v in p.relation_rows())

    def test_basis_rows_keep_fractions_where_the_lead_does_not_divide(self):
        p = Presentation(GeneratorSet(("a",)), span([[2, 1]], 2))
        (row,) = p.relation_rows()
        assert row.coordinates == (1, Fraction(1, 2))
        assert type(row.coordinates[0]) is int

    @pytest.mark.parametrize("pair", builtin_map_pairs())
    def test_pushed_relations(self, pair):
        phi = builtin_map(*pair)
        assert all(
            self.ints(push_relation(phi, v).coordinates) for v in spanning_relations(pair[0])
        )

    def test_integral_fraction_coefficients_become_ints(self):
        v = relation_vector(1, [(Fraction(1, 2), 0, 0), (Fraction(1, 2), 0, 0)], [(Fraction(3, 2), 0, 0)])
        assert v.coordinates == (1, Fraction(-3, 2))
        assert type(v.coordinates[0]) is int

    def test_int_vector_equals_its_fraction_copy(self):
        for v in spanning_relations("Xplus"):
            copy = RelVector(tuple(Fraction(x) for x in v.coordinates))
            assert v == copy and hash(v) == hash(copy)

    def test_pairing_value_is_a_fraction(self):
        # a Fraction only where the value is not integral, an int elsewhere
        u, w = extra_relation_directions()
        half = relation_vector(4, [(Fraction(1, 2), 1, 3)], [(Fraction(1, 2), 0, 2)])
        for v in (u, w, half):
            for x in (u, w, half):
                value = pairing_value(v, x)
                exact = sum(pairing_terms(v, x), Fraction(0))
                assert value == exact
                assert type(value) is (int if exact.denominator == 1 else Fraction)
        # integral sums of Fraction terms come out as ints
        assert pairing_value(half, half) == 0 and type(pairing_value(half, half)) is int
        assert type(pairing_value(u, u)) is int
        assert type(pairing_value(half, u)) is Fraction

    @pytest.mark.parametrize("pair", builtin_map_pairs())
    def test_builtin_map_matrices(self, pair):
        assert self.ints(builtin_map(*pair).matrix.entries)

    @pytest.mark.parametrize("via", ("Xplus", "Xminus", "As"))
    def test_collapse_composites(self, via):
        # the composites Dias -> via -> Dend that the battery's collapse records compare
        composite = compose_maps(builtin_map("Dias", via), builtin_map(via, "Dend"))
        assert composite.matrix == Matrix.from_rows([[1, 1], [1, 1]])
        assert self.ints(composite.matrix.entries)

    def test_rref_of_an_integral_matrix(self):
        r, rank = rref(Matrix.from_rows([[2, 4, 6], [1, 1, 1], [3, 5, 7]]))
        assert rank == 2
        assert r == Matrix.from_rows([[1, 0, -1], [0, 1, 2], [0, 0, 0]])
        assert self.ints(r.entries)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_rational_rows_of_builtins_and_duals(self, name):
        for p in (builtin(name), dual(builtin(name))):
            assert all(self.ints(row) for row in p.relations.rational_rows())

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_gk_defect_against_the_dual(self, name):
        p = builtin(name)
        defect = gk_defect(dim_series(p, 4), dim_series(dual(p), 4), 4)
        assert self.ints(defect.coefficients)

    def test_non_integral_values_stay_fractions(self):
        m = Matrix.from_rows([[Fraction(1, 2)]])
        assert m.entries == (Fraction(1, 2),) and type(m.entries[0]) is Fraction
        doubled = m.matmul(Matrix.from_rows([[2]]))
        assert doubled.entries == (1,) and type(doubled.entries[0]) is int
        (row,) = span([[2, 1]], 2).rational_rows()
        assert row == (1, Fraction(1, 2))
        assert type(row[0]) is int and type(row[1]) is Fraction
        assert PowerSeries((0, Fraction(2, 2), Fraction(1, 2))).coefficients == (0, 1, Fraction(1, 2))

    EXACT_VALUES = st.one_of(
        st.integers(-50, 50),
        st.booleans(),
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
    )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(EXACT_VALUES, max_size=12))
    def test_exact_tuple_is_the_rule_per_entry(self, values):
        expected = tuple(map(_exact, values))
        got = _exact_tuple(values)
        assert type(got) is tuple and hash(got) == hash(expected)
        assert got == expected
        assert [type(x) for x in got] == [type(x) for x in expected]
        assert _exact_tuple(tuple(values)) == got

    @settings(max_examples=50, deadline=None)
    @given(st.lists(EXACT_VALUES, max_size=8), st.floats(allow_nan=False), st.data())
    def test_exact_tuple_refuses_a_float_anywhere(self, values, bad, data):
        values.insert(data.draw(st.integers(0, len(values))), bad)
        with pytest.raises(TypeError):
            _exact_tuple(values)

    def test_value_classes_store_one_tuple(self):
        # a list of length 2 * 2^2, zero first, with integral Fractions and a bool
        values = [0, Fraction(4, 2), True, Fraction(1, 3), -3, Fraction(-6, 3), 0, 5]
        stored = (
            Matrix(2, 4, values).entries,
            RelVector(values).coordinates,
            PowerSeries(values).coefficients,
        )
        assert all(t == stored[0] and type(t) is tuple for t in stored)
        for t in stored:
            assert [type(x) for x in t] == [int, int, int, Fraction, int, int, int, int]

    def test_relation_vector_adds_coefficients_as_given(self):
        thirds = [(Fraction(1, 3), 0, 1)] * 3 + [(Fraction(5, 2), 1, 0), (Fraction(3, 2), 1, 0)]
        v = relation_vector(2, thirds, [(Fraction(7, 7), 1, 1)])
        assert v.coordinates == (0, 1, 4, 0, 0, 0, 0, -1)
        assert self.ints(v.coordinates)
        with pytest.raises(TypeError):
            relation_vector(2, [(0.5, 0, 0)], [])
        with pytest.raises(TypeError):
            relation_vector(2, [(1, 0, 0)], [(0.0, 1, 1)])
