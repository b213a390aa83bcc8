"""Exact linear algebra over the rationals.

One elimination engine serves the whole package. A row is a sparse
primitive integer vector, a dict from column to nonzero ``int``; rational
input is scaled by the common denominator of its entries. An echelon is a
dict from lead column to such a row. ``reduce_row`` eliminates a row
against an echelon fraction-free (cross-multiplying by the two lead
entries, then dividing out the content) and inserts whatever survives
with a positive lead. The set of lead columns is the set of pivot columns
of the reduced row echelon form, so a rank or a pivot set needs nothing
more. ``back_substitute`` clears each lead column from the rows above it,
giving the canonical RREF rows, which are turned into ``Fraction`` rows
only at the end.

Dense ``Matrix`` values and ``Subspace`` bases remain the public
currency: ``rref``, ``span``, ``kernel`` and ``complement_under_form`` all
run on the engine above. A subspace is stored by its RREF basis, which is
a canonical representative: two subspaces are equal exactly when their
stored bases are equal entrywise.

No floating point and no modular arithmetic is used; every result is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

__all__ = [
    "Scalar",
    "DimensionError",
    "Matrix",
    "Subspace",
    "rref",
    "kernel",
    "span",
    "complement_under_form",
    "subspace_contains",
    "subspace_equal",
    "SparseRow",
    "Echelon",
    "sparse_row",
    "reduce_row",
    "back_substitute",
    "echelon_subspace",
]


class DimensionError(ValueError):
    """Raised when operand shapes do not line up."""


def _scalar(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {value!r}")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> Matrix:
        """Build a matrix from rows of ints or Fractions.

        Args:
            rows: row sequences, all of the same length.
            cols: column count, required when ``rows`` is empty.
        """
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise DimensionError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        entries: list[Fraction] = []
        for r in rows:
            if len(r) != cols:
                raise DimensionError("rows have inconsistent lengths")
            entries.extend(_scalar(x) for x in r)
        return cls(len(rows), cols, tuple(entries))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence) -> Matrix:
        d = [_scalar(x) for x in diag]
        n = len(d)
        return cls(n, n, tuple(d[i] if i == j else _ZERO for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> Matrix:
        ents = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, ents)

    def matmul(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out: list[Fraction] = []
        for i in range(self.rows):
            row = self.row(i)
            for j in range(other.cols):
                acc = _ZERO
                for k in range(self.cols):
                    x = row[k]
                    if x:
                        acc += x * other.at(k, j)
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))


def _leading_index(row: Sequence) -> int | None:
    for idx, x in enumerate(row):
        if x:
            return idx
    return None


SparseRow = dict[int, int]
Echelon = dict[int, SparseRow]


def sparse_row(values: Iterable[Fraction | int]) -> SparseRow:
    """Integer row proportional to a dense rational vector, zeros omitted.

    The entries are the rational ones times the least common denominator;
    the content is not divided out here (``reduce_row`` does that when it
    stores a row).
    """
    nonzero = [(i, _scalar(x)) for i, x in enumerate(values) if x]
    den = 1
    for _, x in nonzero:
        d = x.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return {i: x.numerator for i, x in nonzero}
    return {i: x.numerator * (den // x.denominator) for i, x in nonzero}


def _normalize(row: SparseRow, lead: int) -> None:
    """Divide out the content and make the lead entry positive, in place."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for col, x in row.items():
            row[col] = x // g


def _eliminate(row: SparseRow, col: int, prow: SparseRow) -> None:
    """Clear ``row[col]`` with ``prow``, whose entry at ``col`` is nonzero.

    Fraction-free: ``row`` becomes ``(b/g) row - (a/g) prow`` with
    ``a = row[col]``, ``b = prow[col]`` and ``g = gcd(a, b)``; the content
    is divided out again whenever ``row`` had to be scaled up.
    """
    a = row[col]
    b = prow[col]
    scale = 1
    if b != 1:
        g = math.gcd(a, b)
        scale, a = b // g, a // g
        if scale != 1:
            for c, x in row.items():
                row[c] = x * scale
    get = row.get
    for c, x in prow.items():
        y = get(c, 0) - a * x
        if y:
            row[c] = y
        else:
            del row[c]
    if scale != 1 and row:
        g = math.gcd(*row.values())
        if g != 1:
            for c, x in row.items():
                row[c] = x // g


def reduce_row(echelon: Echelon, row: SparseRow, insert: bool = True) -> int | None:
    """Reduce ``row`` against ``echelon``; the package's one elimination step.

    The row's lowest column is cleared with the echelon row leading there
    until that column leads no echelon row. ``row`` is consumed.

    Returns:
        The lead column of the residue, or None when the row reduces to
        zero (it lies in the span of the echelon). With ``insert``, a
        nonzero residue is made primitive with a positive lead and stored
        in ``echelon`` under its lead column.
    """
    while row:
        lead = min(row)
        prow = echelon.get(lead)
        if prow is None:
            if insert:
                _normalize(row, lead)
                echelon[lead] = row
            return lead
        _eliminate(row, lead, prow)
    return None


def back_substitute(echelon: Echelon) -> list[tuple[int, SparseRow]]:
    """Reduced row echelon form of an echelon, by increasing lead column.

    Each returned row is primitive with a positive lead and is zero at
    every other lead column; dividing it by its lead gives the canonical
    RREF row. The echelon itself is left unchanged.
    """
    done: Echelon = {}
    for lead in sorted(echelon, reverse=True):
        row = dict(echelon[lead])
        # rows already done are zero at every other lead column, so one
        # pass over the lead columns present now clears them all
        for col in [c for c in row if c != lead and c in done]:
            _eliminate(row, col, done[col])
        _normalize(row, lead)
        done[lead] = row
    return [(lead, done[lead]) for lead in sorted(done)]


def _echelon_of(vectors: Iterable[Sequence], cols: int) -> Echelon:
    echelon: Echelon = {}
    for v in vectors:
        if len(v) != cols:
            raise DimensionError("vector length does not match the ambient dimension")
        reduce_row(echelon, sparse_row(v))
    return echelon


def _rref_entries(echelon: Echelon, cols: int) -> list[Fraction]:
    """Row-major Fraction entries of the RREF rows of an echelon."""
    entries: list[Fraction] = []
    for lead, row in back_substitute(echelon):
        dense = [_ZERO] * cols
        pivot = row[lead]
        for c, x in row.items():
            dense[c] = Fraction(x, pivot)
        entries.extend(dense)
    return entries


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form of a matrix.

    Returns:
        A pair ``(r, rank)``. ``r`` has the same shape as ``m``; its first
        ``rank`` rows are the canonical RREF rows (each leading with 1,
        pivot columns elsewhere zero, pivots strictly increasing) and the
        remaining rows are zero.
    """
    echelon = _echelon_of(m.row_list(), m.cols)
    entries = _rref_entries(echelon, m.cols)
    entries.extend([_ZERO] * ((m.rows - len(echelon)) * m.cols))
    return Matrix(m.rows, m.cols, tuple(entries)), len(echelon)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of QQ^n held by its RREF basis with no zero rows.

    Because the basis is canonical, dataclass equality coincides with
    equality of subspaces.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        if self.basis.cols != self.ambient_dim:
            raise DimensionError("basis width does not match the ambient dimension")
        last = -1
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            c = _leading_index(row)
            if c is None:
                raise ValueError("zero row in subspace basis")
            if row[c] != 1:
                raise ValueError("subspace basis row must lead with 1")
            if c <= last:
                raise ValueError("subspace basis rows out of echelon order")
            last = c

    @property
    def dimension(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, Matrix.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    def pivot_columns(self) -> tuple[int, ...]:
        cols = []
        for i in range(self.basis.rows):
            c = _leading_index(self.basis.row(i))
            assert c is not None
            cols.append(c)
        return tuple(cols)

    def contains_vector(self, vector: Sequence) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionError("vector length does not match the ambient dimension")
        return _IntBasis(self).contains(vector)


class _IntBasis:
    """Echelon copy of a subspace basis for fast exact membership tests.

    Build once, then test many candidate vectors with ``reduce_row``.
    """

    __slots__ = ("cols", "echelon")

    def __init__(self, s: Subspace) -> None:
        self.cols = s.ambient_dim
        self.echelon: Echelon = {}
        for row in s.basis.row_list():
            reduce_row(self.echelon, sparse_row(row))

    def contains(self, vector: Sequence) -> bool:
        if len(vector) != self.cols:
            raise DimensionError("vector length does not match the ambient dimension")
        return reduce_row(self.echelon, sparse_row(vector), insert=False) is None


def echelon_subspace(echelon: Echelon, ambient_dim: int) -> Subspace:
    """The subspace spanned by the rows of an echelon, with its RREF basis."""
    entries = _rref_entries(echelon, ambient_dim)
    return Subspace(ambient_dim, Matrix(len(echelon), ambient_dim, tuple(entries)))


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Subspace spanned by the given coordinate vectors."""
    return echelon_subspace(_echelon_of(vectors, ambient_dim), ambient_dim)


def kernel(m: Matrix) -> Subspace:
    """Right kernel {v : m v = 0} as a canonical subspace.

    One vector per free column f of the RREF of ``m``: 1 at f, minus the
    RREF entry in column f at each pivot column, scaled to integers.
    """
    rows = back_substitute(_echelon_of(m.row_list(), m.cols))
    pivots = {lead for lead, _ in rows}
    echelon: Echelon = {}
    for f in range(m.cols):
        if f in pivots:
            continue
        hits = [(lead, row[f], row[lead]) for lead, row in rows if f in row]
        den = 1
        for _, _, d in hits:
            den = den * d // math.gcd(den, d)
        v = {f: den}
        for lead, x, d in hits:
            v[lead] = -x * (den // d)
        reduce_row(echelon, v)
    return echelon_subspace(echelon, m.cols)


def complement_under_form(s: Subspace, form: Matrix) -> Subspace:
    """Orthogonal complement of ``s`` for the pairing (v, w) -> v^T F w.

    Args:
        s: the subspace to complement.
        form: the matrix F of a nondegenerate bilinear form on the ambient
            space.

    Raises:
        DimensionError: if the form shape does not match the ambient space.
        ValueError: if the form is degenerate.
    """
    n = s.ambient_dim
    if form.rows != n or form.cols != n:
        raise DimensionError("form shape does not match the ambient dimension")
    _, rank = rref(form)
    if rank != n:
        raise ValueError("bilinear form is degenerate")
    # v is orthogonal to basis row w exactly when (w^T F^T) v = 0.
    m = s.basis.matmul(form.transpose())
    return kernel(m)


def subspace_contains(outer: Subspace, inner: Subspace) -> bool:
    """Whether every vector of ``inner`` lies in ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionError("subspaces live in different ambient spaces")
    if inner.dimension > outer.dimension:
        return False
    ib = _IntBasis(outer)
    return all(ib.contains(inner.basis.row(i)) for i in range(inner.basis.rows))


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    """Exact subspace equality via the canonical bases."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("subspaces live in different ambient spaces")
    return a.basis == b.basis
