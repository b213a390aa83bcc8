"""Tests for the exact linear algebra core.

Reference ranks and kernels are cross-checked against sympy's exact
rational matrices, an independent implementation of row reduction.
"""

import copy
import gc
import math
import pickle
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from quadops.catalog import BUILTIN_NAMES, builtin, line_relation
from quadops.expansion import _ideal_echelon, _ideal_generators, catalan, ideal_span
from quadops.linalg import (
    DimensionError,
    Matrix,
    Subspace,
    _cut_under_form,
    _extend,
    _interned,
    back_substitute,
    complement_under_form,
    echelon_subspace,
    insert_rows,
    kernel,
    reduce_row,
    rref,
    span,
    span_rows,
    sparse_row,
    subspace_contains,
)
from quadops.presentations import GeneratorSet, Presentation, dual, pairing_form, quotient
from quadops.verify import scan_grid

F = Fraction


def sympy_rank(m: Matrix) -> int:
    """Independent rank oracle."""
    sm = sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries]
    )
    return sm.rank()


def full(n: int) -> Subspace:
    return span(Matrix.identity(n).row_list(), n)


# Three relation rows in an 8 dimensional ambient space, entries in {0, +-1}.
# Oracle rank: 3 (distinct leading columns 0, 2, 1). Frozen below.
INDEPENDENT_ROWS = [
    [1, 0, 0, 0, -1, -1, 0, 0],
    [0, 0, 1, 0, 0, 0, -1, 0],
    [0, 1, 0, 1, 0, 0, 0, -1],
]


def test_rref_identity_fixed():
    m = Matrix.identity(3)
    r, rank = rref(m)
    assert r == m
    assert rank == 3


def test_rref_all_ones():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    r, rank = rref(m)
    assert rank == 1
    assert r == Matrix.from_rows([[1, 1], [0, 0]])


def test_rref_zero_matrix():
    m = Matrix.zero(2, 3)
    r, rank = rref(m)
    assert rank == 0
    assert r == m


def test_rref_swaps_rows_for_leading_pivot():
    m = Matrix.from_rows([[0, 1], [1, 0]])
    r, rank = rref(m)
    assert rank == 2
    assert r == Matrix.identity(2)


def test_rref_normalizes_pivot_to_one():
    r, rank = rref(Matrix.from_rows([[2]]))
    assert rank == 1
    assert r == Matrix.from_rows([[1]])


def test_rref_fraction_entries():
    r, rank = rref(Matrix.from_rows([[F(1, 2), F(1, 3)]]))
    assert rank == 1
    assert r.row(0) == (F(1), F(2, 3))


def test_rref_no_rows():
    m = Matrix.zero(0, 4)
    r, rank = rref(m)
    assert rank == 0
    assert r == m


def test_span_of_independent_rows_frozen():
    # Oracle first: the independent rank of the spanning matrix is 3.
    m = Matrix.from_rows(INDEPENDENT_ROWS)
    assert sympy_rank(m) == 3
    s = span(INDEPENDENT_ROWS, 8)
    assert s.dimension == 3
    # RREF reorders by pivot column (0, then 1, then 2).
    assert s.rows == (
        ((0, 1), (4, -1), (5, -1)),
        ((1, 1), (3, 1), (7, -1)),
        ((2, 1), (6, -1)),
    )
    assert s.rational_rows() == [
        tuple(F(x) for x in row)
        for row in (
            [1, 0, 0, 0, -1, -1, 0, 0],
            [0, 1, 0, 1, 0, 0, 0, -1],
            [0, 0, 1, 0, 0, 0, -1, 0],
        )
    ]


def test_stored_rows_are_primitive_integers():
    s = span([[F(1, 2), F(1, 3), 0], [0, 0, 4]], 3)
    assert s.rows == (((0, 3), (1, 2)), ((2, 1),))
    assert s.rational_rows() == [(F(1), F(2, 3), F(0)), (F(0), F(0), F(1))]
    # equal subspaces hash alike
    assert hash(s) == hash(span([[0, 0, 1], [3, 2, 5]], 3))


def test_span_empty_is_zero_subspace():
    s = span([], 5)
    assert s.dimension == 0
    assert s == Subspace.zero(5)
    assert not s.contains_vector([1, 0, 0, 0, 0])
    assert s.contains_vector([0] * 5)


def test_span_rejects_wrong_length():
    with pytest.raises(DimensionError):
        span([[1, 0]], 3)


def test_kernel_of_sum_row():
    k = kernel(Matrix.from_rows([[1, 1]]))
    assert k.dimension == 1
    assert k.rows == (((0, 1), (1, -1)),)


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(4)).dimension == 0


def test_kernel_of_zero_matrix_is_full():
    k = kernel(Matrix.zero(2, 3))
    assert k == full(3)


def test_complement_of_zero_subspace_is_everything():
    c = complement_under_form(Subspace.zero(2), (1, -1))
    assert c == full(2)


def test_complement_of_full_is_zero():
    c = complement_under_form(full(4), (1, 1, -1, -1))
    assert c.dimension == 0


def test_complement_dimension_example():
    s = span([[1, 0, -1, 0]], 4)
    c = complement_under_form(s, (1, 1, -1, -1))
    assert c.dimension == 3
    # every basis vector of c pairs to zero with the generator of s
    for row in c.rational_rows():
        value = row[0] * 1 - row[2] * (-1)
        assert value == 0


def test_complement_degenerate_form_raises():
    with pytest.raises(ValueError, match="degenerate"):
        complement_under_form(Subspace.zero(2), (0, 0))
    for signs in ((1, 2), (1.0, -1.0), (True, -1)):
        with pytest.raises(ValueError):
            complement_under_form(Subspace.zero(2), signs)


def test_complement_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        complement_under_form(Subspace.zero(2), (1, 1, 1))


def test_subspace_contains_and_equal_basics():
    big = span([[1, 0, 0], [0, 1, 0]], 3)
    small = span([[1, 1, 0]], 3)
    other = span([[0, 0, 1]], 3)
    assert subspace_contains(big, small)
    assert not subspace_contains(small, big)
    assert not subspace_contains(big, other)
    assert big == span([[1, 1, 0], [1, -1, 0]], 3)
    with pytest.raises(DimensionError):
        subspace_contains(big, span([], 2))


def test_contains_vector_reduces_fractions():
    s = span([[1, 2, 0], [0, 0, 1]], 3)
    assert s.contains_vector([F(1, 2), F(1), F(7)])
    assert not s.contains_vector([F(1, 2), F(2), F(0)])


def test_matmul():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a.matmul(b) == Matrix.from_rows([[2, 1], [4, 3]])
    with pytest.raises(DimensionError):
        a.matmul(Matrix.zero(3, 2))


def test_matrix_entry_count_checked():
    with pytest.raises(DimensionError):
        Matrix(2, 2, (F(1),))


def test_matrix_rejects_floats():
    with pytest.raises(TypeError):
        Matrix.from_rows([[0.5]])


# bases of QQ^2 that are not canonical, and their faults
NON_CANONICAL = [
    ((),),  # zero row
    (((0, 2),),),  # not primitive
    (((0, -1), (1, 1)),),  # negative lead
    (((1, 1), (0, 1)),),  # columns out of order
    (((0, 1), (1, 0)),),  # stored zero
    (((1, 1),), ((0, 1),)),  # rows out of echelon order
    (((0, 1), (1, 1)), ((1, 1),)),  # nonzero at another lead column
]
OUTSIDE = (((2, 1),),)  # a column past the ambient space
NOT_INT = [
    (((0, 1.0), (1, 2.5)),),  # float lead
    (((0, 1), (1, 2.5)),),  # float entry after the lead
    (((0, True),),),  # bool lead
    (((0, 1), (1, True)),),  # bool entry after the lead
    (((0, F(1)),),),  # an integral Fraction is not an int either
    (((0.0, 1),),),  # float lead column
    (((0, 1), (1.0, 2)),),  # float column after the lead
    (((False, 1),),),  # bool lead column
    (((0, 1), (True, 2)),),  # bool column after the lead
]


def test_subspace_rejects_non_canonical_basis():
    assert Subspace(3, (((0, 1), (2, -2)), ((1, 3), (2, 1)))).dimension == 2
    for rows in NON_CANONICAL:
        with pytest.raises(ValueError):
            Subspace(2, rows)
    with pytest.raises(DimensionError):
        Subspace(2, OUTSIDE)
    for rows in NOT_INT:
        with pytest.raises(TypeError):
            Subspace(2, rows)


class TestInterning:
    """Constructing a subspace returns the one live instance of its class
    with those rows; its hash is computed once."""

    def test_equal_rows_give_one_object(self):
        rows = (((0, 1), (2, -2)), ((1, 3), (2, 1)))
        s = Subspace(3, rows)
        assert Subspace(3, tuple(tuple(row) for row in rows)) is s
        assert Subspace(ambient_dim=3, rows=rows) is s
        assert span([[1, 0, -2], [0, 3, 1]], 3) is s
        assert Subspace(4, rows) is not s and Subspace(4, rows) != s
        # the hash the record had before interning, kept from construction
        assert hash(s) == hash((3, rows))

    def test_an_interned_hit_still_refuses_a_wrong_type(self):
        # (0, True) and (0.0, 1) compare and hash equal to (0, 1), so each
        # would hit the live space were it not validated first
        alive = Subspace(2, (((0, 1),),))
        for rows in ((((0, True),),), (((0.0, 1),),)):
            assert rows == alive.rows and hash((2, rows)) == hash(alive)
            with pytest.raises(TypeError):
                Subspace(2, rows)
        # every refused basis, each while the int basis equal to it, if
        # there is one, is alive
        for rows in NOT_INT:
            twin = tuple(tuple((int(c), int(x)) for c, x in row) for row in rows)
            live = Subspace(2, twin) if twin == rows else None
            with pytest.raises(TypeError):
                Subspace(2, rows)
            assert live is None or Subspace(2, twin) is live
        for rows in NON_CANONICAL:
            with pytest.raises(ValueError):
                Subspace(2, rows)
        with pytest.raises(DimensionError):
            Subspace(2, OUTSIDE)
        assert Subspace(2, (((0, 1),),)) is alive

    def test_pickle_and_copies_give_the_interned_object(self):
        s = span([[1, 2, 0], [0, 0, 1]], 3)
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.deepcopy(s) is s
        assert copy.copy(s) is s

    def test_a_subclass_is_interned_apart(self):
        Sub = type("Sub", (Subspace,), {})
        rows = (((0, 1), (5, 3)),)
        s, t = Subspace(7, rows), Sub(7, rows)
        assert t is not s and t != s and hash(t) == hash(s)
        assert Sub(7, rows) is t and Subspace(7, rows) is s
        assert copy.deepcopy(t) is t
        # the first collected, the other is still found, and the first
        # made anew is one object again
        del s
        assert Sub(7, rows) is t
        s = Subspace(7, rows)
        assert Subspace(7, rows) is s and s is not t
        refs = [weakref.ref(s), weakref.ref(t)]
        del s, t
        assert all(ref() is None for ref in refs)

    def test_dropped_spaces_leave_the_table(self):
        # what was alive before stays alive, so it can be told apart
        live = (ref() for ref in list(_interned.values()))
        before = [space for space in live if space is not None]
        known = {id(space) for space in before}
        rng = random.Random(2601)
        fresh = {}
        while len(fresh) < 1000:
            k = rng.randint(2, 3)
            n = 2 * k * k
            rows = [
                {rng.randrange(n): rng.choice((1, -1, 2, -3)) for _ in range(rng.randint(1, 3))}
                for _ in range(rng.randint(1, 5))
            ]
            space = span_rows(rows, n)
            if id(space) not in known:
                fresh[id(space)] = space
        fresh = list(fresh.values())
        # each fresh space keeps its complement, itself interned
        names = {8: ("a", "b"), 18: ("a", "b", "c")}
        duals = [dual(Presentation(GeneratorSet(names[s.ambient_dim]), s)) for s in fresh]
        assert all(s._facts["dual"] is d.relations for s, d in zip(fresh, duals))
        refs = [weakref.ref(space) for space in fresh]
        del space, fresh, duals
        gc.collect()
        assert all(ref() is None for ref in refs)
        # no entry outlives its space
        assert all(ref() is not None for ref in _interned.values())
        assert len(_interned) <= len(before)


def is_canonical(n: int, rows) -> bool:
    """Oracle: the canonical-basis conditions, each checked on its own."""
    leads = []
    for row in rows:
        if not row:
            return False
        cols = [c for c, _ in row]
        values = [x for _, x in row]
        if cols[0] < 0 or cols[-1] >= n:
            return False
        if any(a >= b for a, b in zip(cols, cols[1:])) or 0 in values:
            return False
        if values[0] < 0 or math.gcd(*values) != 1:
            return False
        leads.append(cols[0])
    if any(a >= b for a, b in zip(leads, leads[1:])):
        return False
    return not any(c in leads for row in rows for c, _ in row[1:])


entry_lists = st.lists(
    st.tuples(st.integers(-1, 4), st.integers(-2, 2)), min_size=0, max_size=3
)


@given(st.integers(0, 4), st.lists(entry_lists, max_size=3))
@example(2, [[(0, 0), (1, 1)]])  # a zero lead, with content 1
@example(2, [[(-1, 1)]])  # a lead before the first column
@example(2, [[(0, 1)], [(0, 1)]])  # two rows with one lead
@settings(max_examples=300)
def test_subspace_accepts_exactly_the_canonical_bases(n, rows):
    rows = tuple(tuple(row) for row in rows)
    if is_canonical(n, rows):
        assert Subspace(n, rows).rows == rows
    else:
        with pytest.raises(ValueError):
            Subspace(n, rows)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    r = draw(st.integers(min_value=0, max_value=max_rows))
    c = draw(st.integers(min_value=1, max_value=max_cols))
    ents = draw(st.lists(small_fractions, min_size=r * c, max_size=r * c))
    return Matrix(r, c, tuple(ents))


@given(matrices())
def test_rref_rank_matches_oracle(m):
    _, rank = rref(m)
    assert rank == sympy_rank(m)


@given(matrices())
def test_rref_is_idempotent(m):
    r, rank = rref(m)
    r2, rank2 = rref(r)
    assert r2 == r
    assert rank2 == rank


@given(matrices())
def test_rank_nullity(m):
    _, rank = rref(m)
    assert rank + kernel(m).dimension == m.cols


@given(matrices())
def test_kernel_vectors_annihilate(m):
    k = kernel(m)
    for v in k.rational_rows():
        for i in range(m.rows):
            assert sum(m.at(i, j) * v[j] for j in range(m.cols)) == 0


@given(matrices())
def test_rows_lie_in_their_span(m):
    s = span(m.row_list(), m.cols)
    for v in m.row_list():
        assert s.contains_vector(v)


@given(matrices())
def test_span_is_idempotent(m):
    s = span(m.row_list(), m.cols)
    again = span(s.rational_rows(), m.cols)
    assert s == again


@settings(deadline=None)
@given(matrices(), st.data())
def test_double_complement_restores_subspace(m, data):
    n = m.cols
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    s = span(m.row_list(), n)
    c = complement_under_form(s, signs)
    assert c.dimension == n - s.dimension
    assert complement_under_form(c, signs) == s


@settings(deadline=None)
@given(matrices(), st.data())
def test_complement_matches_sympy_nullspace(m, data):
    n = m.cols
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    scaled = sympy.Matrix(
        m.rows,
        n,
        [sympy.Rational(x.numerator, x.denominator) * signs[i % n] for i, x in enumerate(m.entries)],
    )
    null = [[F(int(x.p), int(x.q)) for x in v] for v in scaled.nullspace()]
    assert complement_under_form(span(m.row_list(), n), signs) == span(null, n)


@settings(deadline=None, max_examples=200)
@given(matrices(max_rows=5, max_cols=6), st.data())
def test_cut_is_the_complement_of_the_larger_span(m, data):
    # s^⊥ ∩ x_1^⊥ ∩ ... ∩ x_r^⊥ = (s + <x_1, ..., x_r>)^⊥, in the same
    # canonical rows
    n = m.cols
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    xs = data.draw(
        st.lists(st.lists(small_fractions, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    c = complement_under_form(span(m.row_list(), n), signs)
    cut = _cut_under_form(c, [tuple(sparse_row(x).items()) for x in xs], signs)
    assert cut == complement_under_form(span([*m.row_list(), *xs], n), signs)
    if cut.dimension == c.dimension:
        # every x is orthogonal to all of c: nothing is cut
        assert cut is c


def test_cut_golden():
    # the complement of <e0 - e2> under (1, 1, -1) is <e0 - e2, e1>;
    # cutting by e0 + e1 pivots on row e1 (pairing 1, the largest lead)
    # and turns e0 - e2 (pairing 1) into e0 - e1 - e2
    signs = (1, 1, -1)
    c = complement_under_form(span([[1, 0, -1]], 3), signs)
    assert c.rows == (((0, 1), (2, -1)), ((1, 1),))
    cut = _cut_under_form(c, [((0, 1), (1, 1))], signs)
    assert cut.rows == (((0, 1), (1, -1), (2, -1)),)


@settings(deadline=None, max_examples=200)
@given(matrices(max_rows=5, max_cols=6), st.data())
def test_extend_is_the_span_and_keeps_the_rows_that_raise_the_rank(m, data):
    # _extend against span_rows, and its kept rows against reduce_row
    # asked one row at a time; repeats and rows in the span are drawn too
    n = m.cols
    s = span(m.row_list(), n)
    xs = data.draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), max_size=4))
    if m.rows or xs:
        xs += data.draw(st.lists(st.sampled_from([*m.row_list(), *xs]), max_size=2))
    # each row primitive with a positive lead, as quotient passes them
    rows = [span([x], n).rows[0] for x in xs if any(x)]
    grown, kept = _extend(s, rows)
    assert grown == span_rows([dict(r) for r in (*s.rows, *rows)], n)
    echelon = s.echelon()
    raising = []
    for row in rows:
        if reduce_row(echelon, dict(row)) is not None:
            raising.append(row)
            insert_rows(echelon, [dict(row)])
    assert kept == tuple(raising)
    assert (grown is s) == (not kept)


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-9, max_value=9),
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
        ),
        max_size=12,
    )
)
def test_sparse_row_ignores_the_coordinate_type(values):
    # ints where integral, as the package builds relation vectors
    mixed = [x.numerator if x.denominator == 1 else x for x in values]
    assert sparse_row(mixed) == sparse_row([F(x) for x in values])


def reference_insert(echelon, rows) -> None:
    """Oracle for ``insert_rows``: one ``reduce_row`` call per row, every
    step through ``_eliminate``, and a residue made primitive with a
    positive lead here before it is stored."""
    for row in rows:
        lead = reduce_row(echelon, row)
        if lead is not None:
            g = math.gcd(*row.values()) * (1 if row[lead] > 0 else -1)
            echelon[lead] = {c: x // g for c, x in row.items()}


# Two oracles for the kernel: a second construction from the package's
# own engine (a vector per free column of the forward RREF, reduced again)
# and sympy's exact nullspace.


def build_and_reduce_kernel(rows, cols: int) -> Subspace:
    """Right kernel of reduced integer rows (each zero at every other row's
    lead column): one vector per free column, built by scanning every row,
    then reduced and back-substituted."""
    reduced = [(row[0][0], row[0][1], dict(row)) for row in rows]
    pivots = {lead for lead, _, _ in reduced}
    echelon = {}
    for f in range(cols):
        if f in pivots:
            continue
        hits = [(lead, d, row[f]) for lead, d, row in reduced if f in row]
        den = math.lcm(*(d for _, d, _ in hits))
        v = {f: den}
        for lead, d, x in hits:
            v[lead] = -x * den // d
        reference_insert(echelon, [v])
    return echelon_subspace(echelon, cols)


def oracle_complement(s: Subspace, signs) -> Subspace:
    flipped = [tuple((c, x * signs[c]) for c, x in row) for row in s.rows]
    return build_and_reduce_kernel(flipped, s.ambient_dim)


def sympy_kernel(rows, cols: int) -> Subspace:
    """Kernel of dense rational rows by sympy's exact nullspace over QQ."""
    qq = [[sympy.QQ(F(x).numerator, F(x).denominator) for x in row] for row in rows]
    m = DomainMatrix(qq, (len(qq), cols), sympy.QQ) if qq else DomainMatrix.zeros((0, cols), sympy.QQ)
    null = m.nullspace().to_Matrix()
    return span([[F(int(x.p), int(x.q)) for x in null.row(i)] for i in range(null.rows)], cols)


def assert_complement_matches_oracles(s: Subspace, signs) -> None:
    c = complement_under_form(s, signs)
    assert c == oracle_complement(s, signs)
    signed = [[x * sign for x, sign in zip(row, signs)] for row in s.rational_rows()]
    assert c == sympy_kernel(signed, s.ambient_dim)


def scan_and_builtin_spaces():
    """The 81 scan_grid(4) quotients of DendSquareDias, then each built-in
    and its dual, as (relation space, number of operations)."""
    base = builtin("DendSquareDias")
    for a, b in scan_grid(4):
        yield quotient(base, [line_relation(a, b)]).relations, 4
    for name in BUILTIN_NAMES:
        p = builtin(name)
        k = len(p.generators.names)
        yield p.relations, k
        yield dual(p).relations, k


def test_complement_matches_oracles_on_scan_and_builtins():
    spaces = list(scan_and_builtin_spaces())
    assert len(spaces) == 81 + 2 * len(BUILTIN_NAMES)
    for s, k in spaces:
        assert_complement_matches_oracles(s, pairing_form(k))


@pytest.mark.parametrize("name", ["Dend", "Dias", "Xplus", "Xminus"])
@pytest.mark.parametrize("weight", [3, 4])
def test_ideal_annihilator_matches_oracles(name, weight):
    s = ideal_span(builtin(name), weight)
    assert_complement_matches_oracles(s, (1,) * s.ambient_dim)


sparse_entries = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def wide_sparse_matrices(draw, max_rows=12, max_cols=40):
    """Mostly-zero matrices up to max_rows x max_cols, a few rows of them
    combinations of others, so that rows reduce to zero and trailing
    entries other than 1 occur."""
    r = draw(st.integers(min_value=0, max_value=max_rows))
    c = draw(st.integers(min_value=1, max_value=max_cols))
    rows = [[0] * c for _ in range(r)]
    if r:
        cells = draw(
            st.dictionaries(
                st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
                sparse_entries,
                max_size=max(1, r * c // 4),
            )
        )
        for (i, j), x in cells.items():
            rows[i][j] = x
        pairs = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), sparse_entries)
        for i, j, a in draw(st.lists(pairs, max_size=3)):
            rows.append([x + a * y for x, y in zip(rows[i], rows[j])])
    return Matrix.from_rows(rows, c)


@settings(deadline=None, max_examples=200)
@given(wide_sparse_matrices())
@example(Matrix.from_rows([[2, 1, 4]]))  # trailing entry 4: lcm 4, then content 2
@example(Matrix.from_rows([[1, 2, 0], [1, 0, 3]]))  # column 0 meets trailing entries 2 and 3: lcm 6
def test_kernel_matches_oracles(m):
    k = kernel(m)
    reduced = span_rows((sparse_row(v) for v in m.row_list()), m.cols)
    assert k == build_and_reduce_kernel(reduced.rows, m.cols)
    assert k == sympy_kernel(m.row_list(), m.cols)


@settings(deadline=None, max_examples=200)
@given(wide_sparse_matrices(), st.data())
def test_wide_complement_matches_oracles(m, data):
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=m.cols, max_size=m.cols))
    assert_complement_matches_oracles(span(m.row_list(), m.cols), signs)


def seeded_space(rng: random.Random, k: int) -> Subspace:
    """A relation space on k operations: rows of one to four entries from
    {1, -1, 2, -2, 3}, so that stored leads other than 1 occur."""
    ambient = 2 * k * k
    rows = []
    for _ in range(rng.randint(1, ambient)):
        row = {}
        for _ in range(rng.randint(1, 4)):
            row[rng.randrange(ambient)] = rng.choice((1, -1, 2, -2, 3))
        rows.append(row)
    return span_rows(rows, ambient)


def insertion_cases():
    """(id, relation space, weights): built-ins, their duals and seeded
    spaces, on at most two operations to weight 7 and on four to weight 5."""
    rng = random.Random(2101)
    for name in BUILTIN_NAMES:
        p = builtin(name)
        weights = range(3, 8) if p.num_ops <= 2 else range(3, 6)
        yield name, p.relations, weights
        yield f"dual:{name}", dual(p).relations, weights
    for i in range(4):
        yield f"seeded-k{1 + i % 2}-{i}", seeded_space(rng, 1 + i % 2), range(3, 8)
    for i in range(3):
        yield f"seeded-k4-{i}", seeded_space(rng, 4), range(3, 6)


INSERTION_CASES = list(insertion_cases())


def sympy_row_rank(rows, cols: int) -> int:
    dense = [[sympy.QQ(row.get(c, 0)) for c in range(cols)] for row in rows]
    if not dense:
        return 0
    return DomainMatrix(dense, (len(dense), cols), sympy.QQ).rank()


class TestInsertRows:
    """``insert_rows`` against a per-row reference loop on the weight-n
    ideal generators, both fed in the sorted order of ``_ideal_echelon``:
    the same lead columns and the same RREF. ``tests/test_expansion.py``
    checks that order against the order of generation."""

    @pytest.mark.parametrize("case", INSERTION_CASES, ids=[case[0] for case in INSERTION_CASES])
    def test_matches_the_reference_loop(self, case):
        _, relations, weights = case
        k = math.isqrt(relations.ambient_dim // 2)
        for n in weights:
            rows = list(_ideal_generators(k, relations.rows, n))
            if k <= 2 and n <= 4:
                rank = sympy_row_rank(rows, catalan(n - 1) * k ** (n - 1))
            rows.sort(key=len)
            rows.sort(key=min, reverse=True)
            expected = {}
            reference_insert(expected, rows)
            echelon = _ideal_echelon(relations, n)
            assert set(echelon) == set(expected)
            assert back_substitute(echelon) == back_substitute(expected)
            if k <= 2 and n <= 4:
                assert len(echelon) == rank

    def test_seeded_spaces_reach_stored_leads_other_than_one(self):
        # the rows that go through _eliminate inside insert_rows
        leads = [
            row[lead]
            for _, relations, _ in INSERTION_CASES
            for lead, row in relations.echelon().items()
        ]
        assert any(x != 1 for x in leads)

    def test_rows_are_consumed_and_zero_rows_skipped(self):
        echelon = {}
        rows = [{0: 2, 3: -4}, {0: -1, 3: 2}, {}, {1: -3, 2: 6}]
        insert_rows(echelon, rows)
        assert echelon == {0: {0: 1, 3: -2}, 1: {1: 1, 2: -2}}
        assert rows[1] == {}
