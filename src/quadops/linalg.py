"""Exact linear algebra over the rationals.

One elimination engine serves the whole package. A row is a sparse
primitive integer vector, a dict from column to nonzero ``int``;
rational input is scaled by the common denominator of its entries. An
echelon is a dict from lead column to such a row. ``reduce_row`` holds
the one reduction loop: it clears the row's lowest column with the
echelon row leading there, fraction-free, until none does, and reports
the residue's lead, or None when the row lies in the span.
``insert_rows`` reduces each row of a batch so, then stores the residue,
primitive with a positive lead. The set of lead columns is the set of
pivot columns of the reduced row echelon form, so a rank or a pivot set
needs nothing more. One canonical clear, ``_clear_leads``, takes every
lead column of a basis whose rows are zero at each other's leads out of
a row in one pass: ``back_substitute`` gives the canonical RREF rows
with it, and ``_extend`` adds rows to a canonical basis.

A ``Subspace`` stores exactly those rows, primitive integers with a
positive lead, in a hashable form. They are canonical, so two subspaces
are equal exactly when their stored rows are equal. They are hash-consed
(Filliâtre and Conchon, 2006) in a weak-value table, ``_interned``: one
live instance per class and rows, each with a ``_facts`` record that the
``presentations`` module docstring describes. Membership tests reduce
against the rows. Dense rows over QQ are built only on request, by
``Subspace.rational_rows``, which divides each row by its lead
(``_divided_by_lead``, the rule the text printer shares). The small
dense ``Matrix`` type holds the generator maps and the input of ``rref``
and ``kernel``; ``span`` takes dense coordinate vectors. Every number
held outside the rows follows one rule, ``_exact``: an ``int`` at every
integral value, a ``Fraction`` only where a value is not integral. A
sequence takes the rule through ``_exact_tuple``, which builds the
stored tuple of a ``Matrix``, a ``presentations.RelVector`` and a
``series.PowerSeries``.

A kernel takes the same engine once. ``kernel`` and
``complement_under_form`` (the kernel of a subspace's rows with each
column multiplied by a sign) reduce their rows on mirrored columns, so
each reduced row pivots at its last nonzero column, and read the
kernel's canonical basis off those trailing pivots in one pass. When a
complement is known, the complement of the space with one vector x more
is that complement cut by x, C ∩ x^⊥ (``_cut_under_form``): one row is
dropped and the rows that pair with x are combined with it, which keeps
the canonical form with no elimination at all.

No floating point and no modular arithmetic is used; every result is
exact.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DimensionError",
    "Matrix",
    "Subspace",
    "rref",
    "kernel",
    "span",
    "complement_under_form",
    "subspace_contains",
    "SparseRow",
    "IntRow",
    "Echelon",
    "sparse_row",
    "reduce_row",
    "insert_rows",
    "back_substitute",
    "echelon_subspace",
    "span_rows",
]


class DimensionError(ValueError):
    """Raised when operand shapes do not line up."""


# sets a field from a record's own __init__, past its frozen __setattr__
_set = object.__setattr__


class _Record:
    """Base of the package's value classes: frozen records over ``__slots__``.

    A subclass lists its fields in ``__slots__`` and sets each one with
    ``_set`` in its own ``__init__``; an underscored slot is no field.
    Instances are equal when they have the same class and equal fields,
    hash by their fields, print as ``Name(field=value, ...)``, refuse
    assignment and deletion, and pickle and copy by calling the
    constructor again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._field_names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # a C getter keeps __eq__ and __hash__ near generated-code speed
        cls._fields = attrgetter(*cls._field_names)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._field_names)


def _exact(x) -> int | Fraction:
    """The package's one number rule: an int stays, an integral Fraction or
    a bool becomes its int, any other Fraction stays; anything else, a
    float included, is a TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an integer or Fraction, got {x!r}")


def _exact_tuple(values: Sequence) -> tuple[int | Fraction, ...]:
    """``values`` under ``_exact``, always as a tuple (hashable); all ints take one pass."""
    if all(type(x) is int for x in values):
        return tuple(values)
    return tuple(map(_exact, values))


class Matrix(_Record):
    """Immutable dense matrix of rationals, stored row-major; entries
    follow ``_exact``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int | Fraction, ...]) -> None:
        if type(rows) is not int or type(cols) is not int:
            raise TypeError(f"matrix dimensions must be int, got {(rows, cols)!r}")
        if rows < 0 or cols < 0:
            raise DimensionError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(entries)}")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", _exact_tuple(entries))

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
        if any(len(r) != cols for r in rows):
            raise DimensionError("rows have inconsistent lengths")
        return cls(len(rows), cols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int | Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int | Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int | Fraction, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def matmul(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        b, m = other.entries, other.cols
        out: list = []
        for i in range(self.rows):
            row = self.row(i)
            for j in range(m):
                acc = 0
                for k, x in enumerate(row):
                    if x:
                        acc += x * b[k * m + j]
                out.append(acc)
        return Matrix(self.rows, m, out)


SparseRow = dict[int, int]
Echelon = dict[int, SparseRow]


def sparse_row(values: Iterable[Fraction | int]) -> SparseRow:
    """Integer row proportional to a dense rational vector, zeros omitted.

    The entries are the rational ones times the least common denominator;
    the content is not divided out here (``insert_rows`` does that when it
    stores a row). An ``int`` entry is taken as it is; any other entry
    goes through ``_exact``, which rejects what is not an int or a
    Fraction.
    """
    nonzero = [(i, x if type(x) is int else _exact(x)) for i, x in enumerate(values) if x]
    return _scaled_row(nonzero)


def _scaled_row(nonzero: list[tuple[int, Fraction | int]]) -> SparseRow:
    """Integer row proportional to nonzero rational ``(column, value)``
    pairs: each value times the least common denominator of them all. A
    value is an ``int`` or a ``Fraction``; the columns may come in any
    order."""
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


def reduce_row(echelon: Echelon, row: SparseRow) -> int | None:
    """Reduce ``row`` against ``echelon`` and report what is left; the
    package's one reduction loop. The echelon is not changed.

    The row's lowest column is cleared with the echelon row leading there
    until that column leads no echelon row. The common step, by an echelon
    row whose lead entry is 1, needs no scaling, so the lead entry is
    popped and the other entries subtracted; a row with any other lead
    entry goes through ``_eliminate``. ``row`` is consumed: it ends as the
    residue, unscaled.

    Returns:
        The lead column of the residue, or None when the row reduces to
        zero (it lies in the span of the echelon).
    """
    while row:
        lead = min(row)
        prow = echelon.get(lead)
        if prow is None:
            return lead
        if prow[lead] != 1:
            _eliminate(row, lead, prow)
            continue
        a = row.pop(lead)
        # few entries a step: a row.get per entry beats binding it once
        for col, x in prow.items():
            if col != lead:
                y = row.get(col, 0) - a * x
                if y:
                    row[col] = y
                else:
                    del row[col]
    return None


def insert_rows(echelon: Echelon, rows: Iterable[SparseRow]) -> None:
    """Reduce each row with ``reduce_row`` against the rows stored before
    it, and store each nonzero residue in ``echelon`` under its lead
    column, made primitive with a positive lead. The rows are consumed."""
    for row in rows:
        lead = reduce_row(echelon, row)
        if lead is not None:
            _normalize(row, lead)
            echelon[lead] = row


def _clear_leads(row: SparseRow, basis: Echelon) -> None:
    """Clear from ``row``, in place, every column at which a row of
    ``basis`` leads. The basis rows are zero at each other's leads, so a
    step changes ``row`` at no other lead column, and one pass over the
    lead columns ``row`` holds now clears them all."""
    for col in [c for c in row if c in basis]:
        _eliminate(row, col, basis[col])


def back_substitute(echelon: Echelon) -> list[tuple[int, SparseRow]]:
    """Reduced row echelon form of an echelon, by increasing lead column.

    Each returned row is primitive with a positive lead and is zero at
    every other lead column; dividing it by its lead gives the canonical
    RREF row. The echelon itself is left unchanged.
    """
    done: Echelon = {}
    for lead in sorted(echelon, reverse=True):
        # the rows done lead after this one, so its own lead is not cleared
        row = dict(echelon[lead])
        _clear_leads(row, done)
        _normalize(row, lead)
        done[lead] = row
    return [(lead, done[lead]) for lead in sorted(done)]


def _sparse_rows(vectors: Iterable[Sequence], cols: int) -> Iterator[SparseRow]:
    for v in vectors:
        if len(v) != cols:
            raise DimensionError("vector length does not match the ambient dimension")
        yield sparse_row(v)


IntRow = tuple[tuple[int, int], ...]


class _Key(tuple):
    """A subspace's (class, hash, ambient_dim, rows), hashed by its hash."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self[1]


# the live subspaces, each under its _Key; a collected one leaves the table
_interned: weakref.WeakValueDictionary[_Key, Subspace] = weakref.WeakValueDictionary()


class Subspace(_Record):
    """A linear subspace of QQ^n held by its canonical basis.

    ``rows`` are the primitive integer RREF rows, by increasing lead
    column: each row lists its nonzero ``(column, entry)`` pairs, every
    column and entry of type ``int`` (anything else, ``bool`` too, is a
    TypeError), by increasing column, leads with a positive entry, has
    content 1 and is zero at every other row's lead column. Dividing
    each row by its lead gives the RREF basis over QQ. Because the basis
    is canonical, two instances are equal, field by field, exactly when
    their subspaces are.

    Instances are interned: constructing one with the rows of a live
    instance of its class, validated all the same, returns that instance.
    The hash is computed once. ``_facts``, a dict made with the instance,
    holds what ``presentations`` and ``expansion`` compute about the space
    (see the ``presentations`` module docstring); it is not part of the value.
    """

    __slots__ = ("ambient_dim", "rows", "_hash", "_facts", "__weakref__")

    def __new__(cls, ambient_dim: int, rows: tuple[IntRow, ...]) -> Subspace:
        if type(ambient_dim) is not int:
            raise TypeError(f"ambient dimension must be int, got {ambient_dim!r}")
        if ambient_dim < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        # One pass per row. Leads increase from row to row and a row's other
        # columns lie after its lead, so only a later row can lead at one of
        # them: each lead is checked against the other columns seen so far.
        others: set[int] = set()
        last_lead = -1
        for row in rows:
            if not row:
                raise ValueError("zero row in subspace basis")
            entries = iter(row)
            col, g = next(entries)
            if type(col) is not int or type(g) is not int:
                raise TypeError(f"basis columns and entries must be int, got {(col, g)!r}")
            if col < 0:
                raise DimensionError("basis row reaches outside the ambient space")
            if g <= 0:
                raise ValueError("basis row must be primitive with a positive lead")
            if col <= last_lead:
                raise ValueError("subspace basis rows out of echelon order")
            if col in others:
                raise ValueError("basis row is nonzero at another row's lead column")
            last_lead = prev = col
            for col, x in entries:
                if type(x) is not int or type(col) is not int:
                    raise TypeError(f"basis columns and entries must be int, got {(col, x)!r}")
                if col <= prev or not x:
                    raise ValueError("basis row must list nonzero entries by increasing column")
                if g != 1:
                    g = math.gcd(g, x)
                others.add(col)
                prev = col
            if prev >= ambient_dim:
                raise DimensionError("basis row reaches outside the ambient space")
            if g != 1:
                raise ValueError("basis row must be primitive with a positive lead")
        h = hash((ambient_dim, rows))
        key = _Key((cls, h, ambient_dim, rows))
        space = _interned.get(key)
        if space is None:
            space = object.__new__(cls)
            _set(space, "ambient_dim", ambient_dim)
            _set(space, "rows", rows)
            _set(space, "_hash", h)
            _set(space, "_facts", {})
            _interned[key] = space
        return space

    def __hash__(self) -> int:
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, ())

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.rows)

    def echelon(self) -> Echelon:
        """A fresh echelon of the basis rows, for ``reduce_row``."""
        return {row[0][0]: dict(row) for row in self.rows}

    def rational_rows(self) -> list[tuple[int | Fraction, ...]]:
        """The dense RREF basis over QQ: each row divided by its lead, an
        ``int`` wherever the lead divides the entry."""
        out = []
        for row in self.rows:
            dense: list[int | Fraction] = [0] * self.ambient_dim
            for c, x in _divided_by_lead(row):
                dense[c] = x
            out.append(tuple(dense))
        return out

    def contains_vector(self, vector: Sequence) -> bool:
        if len(vector) != self.ambient_dim:
            raise DimensionError("vector length does not match the ambient dimension")
        return reduce_row(self.echelon(), sparse_row(vector)) is None


def _divided_by_lead(row: IntRow) -> Sequence[tuple[int, int | Fraction]]:
    """A basis row's ``(column, entry)`` pairs with each entry divided by
    the row's lead: an ``int`` wherever the lead divides the entry, a
    ``Fraction`` elsewhere."""
    lead = row[0][1]
    if lead == 1:
        return row
    return [(c, Fraction(x, lead) if x % lead else x // lead) for c, x in row]


def echelon_subspace(echelon: Echelon, ambient_dim: int) -> Subspace:
    """The subspace spanned by the rows of an echelon."""
    rows = tuple(tuple(sorted(row.items())) for _, row in back_substitute(echelon))
    return Subspace(ambient_dim, rows)


def _extend(s: Subspace, rows: Iterable[IntRow]) -> tuple[Subspace, tuple[IntRow, ...]]:
    """The span of ``s`` and integer rows, and the rows that made it
    larger: each lies outside the span of ``s`` and the rows kept before it.

    Each row goes straight into the canonical basis, with no back
    substitution of the rows already there: ``_clear_leads`` reduces it
    against the basis. A nonzero residue is made primitive with a positive
    lead, and its lead is cleared from the basis rows nonzero there; every
    other row of ``s`` is kept as the same tuple. One ``Subspace`` is built
    at the end, and when no row adds anything, ``s`` itself is returned.
    """
    basis = s.echelon()
    untouched = {row[0][0]: row for row in s.rows}
    kept = []
    for given in rows:
        row = dict(given)
        _clear_leads(row, basis)
        if not row:
            continue
        kept.append(given)
        lead = min(row)
        _normalize(row, lead)
        for other, brow in basis.items():
            if lead in brow:
                untouched.pop(other, None)
                _eliminate(brow, lead, row)
                _normalize(brow, other)
        basis[lead] = row
    if not kept:
        return s, ()
    canonical = tuple(untouched.get(c) or tuple(sorted(basis[c].items())) for c in sorted(basis))
    return Subspace(s.ambient_dim, canonical), tuple(kept)


def span_rows(rows: Iterable[SparseRow], ambient_dim: int) -> Subspace:
    """Subspace spanned by sparse integer rows; the rows are consumed."""
    echelon: Echelon = {}
    insert_rows(echelon, rows)
    return echelon_subspace(echelon, ambient_dim)


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Subspace spanned by the given dense coordinate vectors."""
    return span_rows(_sparse_rows(vectors, ambient_dim), ambient_dim)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form of a matrix.

    Returns:
        A pair ``(r, rank)``. ``r`` has the same shape as ``m``; its first
        ``rank`` rows are the canonical RREF rows (each leading with 1,
        pivot columns elsewhere zero, pivots strictly increasing) and the
        remaining rows are zero.
    """
    s = span(m.row_list(), m.cols)
    entries = [x for row in s.rational_rows() for x in row]
    entries.extend([0] * ((m.rows - s.dimension) * m.cols))
    return Matrix(m.rows, m.cols, entries), s.dimension


def _kernel(mirrored: Iterable[SparseRow], cols: int) -> Subspace:
    """Right kernel of sparse integer rows given on mirrored columns.

    A row holds its entry at column c under the key cols-1-c; the rows
    are consumed. ``insert_rows`` and ``back_substitute`` on those keys
    give the rows' RREF with each row pivoting at its last nonzero column,
    its trailing pivot p, with entry d > 0, where every other row is zero.

    The kernel's pivots are the columns that are no trailing pivot. For
    each such column f the kernel row is ``den`` at f and ``-x * den / d``
    at the trailing pivot p of each reduced row with entry x at f, where
    ``den`` is the lcm of those rows' d, divided by its content. Every such
    p lies after f (p is its row's last nonzero column), and the row is
    zero at every other kernel pivot, so these rows are already the
    canonical basis: no second elimination follows. Reading them off is
    one pass over the nonzeros of the reduced rows.
    """
    last = cols - 1
    echelon: Echelon = {}
    insert_rows(echelon, mirrored)
    reduced = back_substitute(echelon)
    # per kernel pivot f: 1 at f, then (p, -x) for each reduced row with
    # entry x at f, by increasing p. That is the kernel row when every such
    # d is 1; the columns met by a row with d != 1 are rescaled afterwards.
    basis = {f: [(f, 1)] for f in range(cols) if last - f not in echelon}
    trailing: dict[int, int] = {}
    scaled: set[int] = set()
    for lead, row in reversed(reduced):
        p = last - lead
        d = trailing[p] = row.pop(lead)
        for c, x in row.items():
            basis[last - c].append((p, -x))
        if d != 1:
            scaled.update(last - c for c in row)
    for f in scaled:
        tail = basis[f][1:]
        den = math.lcm(*[trailing[p] for p, _ in tail])
        v = [(p, x * den // trailing[p]) for p, x in tail]
        g = math.gcd(den, *[x for _, x in v])
        basis[f] = [(f, den // g), *[(p, x // g) for p, x in v]]
    return Subspace(cols, tuple(map(tuple, basis.values())))


def kernel(m: Matrix) -> Subspace:
    """Right kernel {v : m v = 0} as a canonical subspace.

    Each dense row goes into ``_kernel`` as a sparse row read backwards,
    which mirrors its columns; no elimination precedes the kernel's own.
    """
    return _kernel((sparse_row(reversed(v)) for v in m.row_list()), m.cols)


def complement_under_form(s: Subspace, signs: Sequence[int]) -> Subspace:
    """Orthogonal complement of ``s`` for the diagonal form diag(signs).

    A vector v pairs to zero with a basis row b exactly when
    sum_c b_c signs_c v_c = 0, so the complement is the kernel of the basis
    with each column multiplied by its sign, {v : B D v = 0}. ``_kernel``
    reduces those rows once on mirrored columns and reads the canonical
    basis off their trailing pivots: each kernel row is nonzero only at one
    column f that is no trailing pivot and at trailing pivots after f, so
    it leads at f and is zero at the other kernel leads. The cost is one
    elimination of the dim s rows and one pass over its nonzeros.

    Raises:
        DimensionError: if there is not one sign per ambient coordinate.
        ValueError: if a sign is not the int +1 or -1; a zero would make
            the form degenerate.
    """
    n = s.ambient_dim
    if len(signs) != n:
        raise DimensionError("form size does not match the ambient dimension")
    if not (set(map(type, signs)) <= {int} and set(signs) <= {1, -1}):
        raise ValueError("form signs must be +1 or -1; a zero sign makes the form degenerate")
    last = n - 1
    return _kernel(({last - c: x * signs[c] for c, x in row} for row in s.rows), n)


def _cut_under_form(s: Subspace, rows: Iterable[IntRow], signs: Sequence[int]) -> Subspace:
    """The vectors of ``s`` orthogonal to every row of ``rows`` for the
    diagonal form diag(signs): s ∩ rows^⊥, from the canonical basis of s
    with no elimination.

    The basis is cut by one row x at a time, as canonical row tuples. Pair
    each basis row d_i with x (pi_i). If every pi_i is 0, nothing is cut.
    Otherwise let j be the row with pi_j != 0 and the largest lead. Row j
    is dropped, and each other row with pi_i != 0 becomes
    pi_j d_i - pi_i d_j, made primitive with a positive lead.

    These rows are again the canonical basis. Every such i has
    lead_i < lead_j, and d_j is zero before lead_j, so the new row keeps
    d_i's lead with the nonzero entry pi_j d_i[lead_i]. Both d_i and d_j
    are zero at every remaining lead, and so is the new row. It pairs to
    pi_j pi_i - pi_i pi_j = 0 with x. The rows with pi_i = 0 are kept as
    they are. So dim - 1 rows of the cut lead at distinct columns and are
    zero at each other's leads, and the cut has exactly that dimension,
    because some pi_j is nonzero. Each x costs one pass over the nonzeros
    of the basis rows leading at or before its last column; the others
    pair to 0 with it. One ``Subspace`` is built at the end, and when
    nothing is cut, ``s`` itself is returned.
    """
    basis = list(s.rows)
    for row in rows:
        weights = {c: x * signs[c] for c, x in row}
        get = weights.get
        # a basis row is zero before its lead, so the rows leading after
        # every column of x pair to 0 with it
        near = basis[: bisect_left(basis, ((max(weights, default=-1) + 1,),))]
        pairings = [sum(x * get(c, 0) for c, x in r) for r in near]
        j = max((i for i, pi in enumerate(pairings) if pi), default=None)
        if j is None:
            continue
        pj, dj = pairings[j], basis.pop(j)
        for i, pi in enumerate(pairings[:j]):
            if pi:
                new = {c: pj * x for c, x in basis[i]}
                for c, x in dj:
                    y = new.get(c, 0) - pi * x
                    if y:
                        new[c] = y
                    else:
                        del new[c]
                _normalize(new, basis[i][0][0])
                basis[i] = tuple(sorted(new.items()))
    if len(basis) == s.dimension:
        return s
    return Subspace(s.ambient_dim, tuple(basis))


def subspace_contains(outer: Subspace, inner: Subspace) -> bool:
    """Whether every vector of ``inner`` lies in ``outer``."""
    if outer.ambient_dim != inner.ambient_dim:
        raise DimensionError("subspaces live in different ambient spaces")
    if inner.dimension > outer.dimension:
        return False
    echelon = outer.echelon()
    return all(reduce_row(echelon, dict(row)) is None for row in inner.rows)
