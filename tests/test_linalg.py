"""Tests for the exact linear algebra core.

Reference ranks and kernels are cross-checked against sympy's exact
rational matrices, an independent implementation of row reduction.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadops.linalg import (
    DimensionError,
    Matrix,
    Subspace,
    complement_under_form,
    kernel,
    rref,
    span,
    sparse_row,
    subspace_contains,
)

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
    assert s.fraction_rows() == [
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
    assert s.fraction_rows() == [(F(1), F(2, 3), F(0)), (F(0), F(0), F(1))]
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
    for row in c.fraction_rows():
        value = row[0] * 1 - row[2] * (-1)
        assert value == 0


def test_complement_degenerate_form_raises():
    with pytest.raises(ValueError, match="degenerate"):
        complement_under_form(Subspace.zero(2), (0, 0))
    with pytest.raises(ValueError):
        complement_under_form(Subspace.zero(2), (1, 2))


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


def test_subspace_rejects_non_canonical_basis():
    assert Subspace(3, (((0, 1), (2, -2)), ((1, 3), (2, 1)))).dimension == 2
    bad = [
        ((),),  # zero row
        (((0, 2),),),  # not primitive
        (((0, -1), (1, 1)),),  # negative lead
        (((1, 1), (0, 1)),),  # columns out of order
        (((0, 1), (1, 0)),),  # stored zero
        (((1, 1),), ((0, 1),)),  # rows out of echelon order
        (((0, 1), (1, 1)), ((1, 1),)),  # nonzero at another lead column
    ]
    for rows in bad:
        with pytest.raises(ValueError):
            Subspace(2, rows)
    with pytest.raises(DimensionError):
        Subspace(2, (((2, 1),),))


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
    for v in k.fraction_rows():
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
    again = span(s.fraction_rows(), m.cols)
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

