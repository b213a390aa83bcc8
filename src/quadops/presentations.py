"""Presentations of binary quadratic regular operads.

A regular (nonsymmetric) operad generated by binary operations op_0, ...,
op_{k-1} subject to quadratic relations keeps its relation space inside the
2*k^2 dimensional span of the parenthesized quadratic monomials. The
coordinate convention is fixed once for the whole package:

* ``(x op_i y) op_j z`` sits at index ``i*k + j`` (the left block),
* ``x op_i (y op_j z)`` sits at index ``k*k + i*k + j`` (the right block).

A relation "sum of left monomials = sum of right monomials" is stored as
the vector "left side minus right side". The duality pairing is +1 on the
left block and -1 on the right block; the dual presentation carries the
orthogonal complement of the relation space under this pairing, with a
star appended to each generator name. Complementing twice restores the
original relation space. A quotient inserts its extra relations into
the canonical basis it starts from, and the dual of a quotient is cut
from the dual of the space it starts from.

Relation spaces are interned ``linalg.Subspace`` objects. What is
computed about one space alone is kept in its record, the dict
``Subspace._facts`` made with the space, filled on first use and
collected with it. This module and ``expansion`` read and write their
own entries with plain dict operations: ``dual`` (``_dual_relations``),
``origin`` (below), ``pair_projections`` (``_pair_projections``), and
``normal_edges`` and ``ideal_ranks`` (``expansion._normal_edges`` and
``expansion._ideal_rank``). Only what was computed is kept, never a
derived reverse fact, so a double dual still takes two kernel
computations and no check holds by construction.

The origin of a space that ``quotient`` grew is its base B and the extra
rows x_1, ..., x_m that made it larger (``linalg._extend``). A base grown
in turn gives way to its own base, so an origin always names the first
base of a chain of quotients. ``_quotient_relations`` writes it on a
memo miss, and the first one written stays. ``catalog.builtin`` records
Xplus and Xminus by asking ``quotient`` for DendSquareDias with their
sixteenth relation, while the catalog keeps the span of each literal
list, the same object when the two are equal. A space with an origin
takes the shorter path below, any other the direct computation, to the
same canonical result:

* since (B + <x>)^⊥ = B^⊥ ∩ x^⊥, ``_dual_relations`` cuts the dual of B
  by each x_i (``linalg._cut_under_form``);
* the projections of B + <x> are those of B widened by each x_i;
* since the ideal of a sum of relation spaces is the sum of their
  ideals, ``expansion._ideal_echelon`` grows the weight-n ideal of
  B + <x> from the echelon of B's.

An origin holds its base alive. A built-in lives as long as
``catalog.builtin``'s cache, and its origin with it, so the path its dual
and its ideal take does not depend on what was asked before.

What is computed about more than one space is kept in an LRU of at most
128 entries, keyed by the interned spaces, which each entry holds alive:
``_quotient_relations`` by the space and the extra rows, each made
primitive with a positive lead, so every multiple of one relation asks
one entry; ``_relabeling_iso`` and ``_square_relations`` by the ordered
pair of spaces. ``apply_relabeling`` and ``is_morphism`` keep nothing:
the battery, their one caller in the package, keeps its records in
``verify._checked``. A built-in's space takes about 5 KB and a square
of two four-operation built-ins about 100 KB, so a memo full of those
stays under 13 MB. ``_forget_relation_facts`` empties these memos, the
battery's records and the record of every live space.

The square product of two presentations has one generator per ordered pair
of generators (pair (i, l) at index ``i*k_q + l``) and one relation per
pair of relations, with left coefficients multiplied on the left block and
right coefficients multiplied on the right block.

Every number here follows ``linalg._exact``: a plain ``int`` at every
integral value and a ``Fraction`` only at a value that is not integral,
such as a parsed ``1/2 * ...``. ``RelVector`` and the map's ``Matrix``
apply it themselves, through ``linalg._exact_tuple``, so the builders
(``relation_vector``, ``push_relation``, ``compose_maps``, the DSL
reader) hand them their sums as they come; ``pairing_value`` applies it
to its sum. The relation space itself is stored as sparse primitive
integer rows (``linalg.Subspace``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence

from .linalg import (
    DimensionError,
    IntRow,
    Matrix,
    SparseRow,
    Subspace,
    _Record,
    _cut_under_form,
    _exact,
    _exact_tuple,
    _extend,
    _interned,
    _normalize,
    _set,
    complement_under_form,
    reduce_row,
    span_rows,
    sparse_row,
)

__all__ = [
    "GeneratorSet",
    "RelVector",
    "Presentation",
    "GeneratorMap",
    "SignedRelabeling",
    "left_index",
    "right_index",
    "relation_vector",
    "pairing_form",
    "pairing_terms",
    "pairing_value",
    "dual",
    "square",
    "quotient",
    "push_relation",
    "is_morphism",
    "compose_maps",
    "apply_relabeling",
    "find_relabeling_iso",
]


class GeneratorSet(_Record):
    """Ordered list of binary operation names; order is part of the data."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        # a str would pass as a sequence of one-character names
        if isinstance(names, str):
            raise TypeError(f"operation names must be a sequence of strings, got {names!r}")
        if not names:
            raise ValueError("a presentation needs at least one operation")
        if not all(isinstance(n, str) for n in names):
            raise TypeError(f"operation names must be strings, got {names!r}")
        if len(set(names)) != len(names):
            raise ValueError("operation names must be pairwise distinct")
        if any(not n for n in names):
            raise ValueError("operation names must be nonempty")
        _set(self, "names", tuple(names))

    @property
    def size(self) -> int:
        return len(self.names)


class RelVector(_Record):
    """A quadratic relation as a coordinate vector of length 2*k^2.

    Each coordinate is an ``int`` or a ``Fraction``; anything else, a float
    included, raises ``TypeError``. Coordinates follow ``_exact``, so a
    ``Fraction`` stays only at a value that is not integral. An int and a
    Fraction of equal value compare and hash alike, so a vector equals its
    Fraction-typed copy.
    """

    __slots__ = ("coordinates",)

    def __init__(self, coordinates: tuple[int | Fraction, ...]) -> None:
        k = isqrt(len(coordinates) // 2)
        if len(coordinates) == 0 or 2 * k * k != len(coordinates):
            raise DimensionError(f"relation vector length {len(coordinates)} is not 2*k^2")
        _set(self, "coordinates", _exact_tuple(coordinates))

    @property
    def num_ops(self) -> int:
        return isqrt(len(self.coordinates) // 2)


def left_index(k: int, i: int, j: int) -> int:
    """Coordinate of the monomial (x op_i y) op_j z."""
    return i * k + j


def right_index(k: int, i: int, j: int) -> int:
    """Coordinate of the monomial x op_i (y op_j z)."""
    return k * k + i * k + j


def relation_vector(
    k: int,
    left_terms: Iterable[tuple],
    right_terms: Iterable[tuple],
) -> RelVector:
    """Build the vector of the relation ``sum(left) = sum(right)``.

    Each term is a triple ``(coeff, i, j)``; on the left side it stands for
    ``coeff * (x op_i y) op_j z``, on the right side for
    ``coeff * x op_i (y op_j z)``. The result is left side minus right side.
    A coefficient is an int or a Fraction; integral coordinates come out
    as ints.
    """
    coords: list[int | Fraction] = [0] * (2 * k * k)
    for c, i, j in left_terms:
        coords[left_index(k, i, j)] += c
    for c, i, j in right_terms:
        coords[right_index(k, i, j)] -= c
    return RelVector(coords)


class Presentation(_Record):
    """Binary quadratic presentation: generators plus a relation subspace."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators: GeneratorSet, relations: Subspace) -> None:
        k = generators.size
        if relations.ambient_dim != 2 * k * k:
            raise DimensionError(
                f"relation space must live in dimension {2 * k * k}, "
                f"got {relations.ambient_dim}"
            )
        _set(self, "generators", generators)
        _set(self, "relations", relations)

    @property
    def num_ops(self) -> int:
        return self.generators.size

    @property
    def ambient_dim(self) -> int:
        return self.relations.ambient_dim

    def relation_rows(self) -> list[RelVector]:
        """The RREF basis as relation vectors: each stored row divided by
        its lead, an int wherever the lead divides the entry."""
        return [RelVector(r) for r in self.relations.rational_rows()]


class GeneratorMap(_Record):
    """Linear assignment of source operations to target combinations.

    Row i of ``matrix`` gives the coefficients of the image of source
    operation i in the target operations.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GeneratorSet, target: GeneratorSet, matrix: Matrix) -> None:
        if matrix.rows != source.size or matrix.cols != target.size:
            raise DimensionError("map matrix shape does not match its endpoints")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "matrix", matrix)


class SignedRelabeling(_Record):
    """A signed permutation of the operations: op_i maps to signs[i] * op_perm[i]."""

    __slots__ = ("permutation", "signs")

    def __init__(self, permutation: tuple[int, ...], signs: tuple[int, ...]) -> None:
        k = len(permutation)
        if not all(type(x) is int for x in (*permutation, *signs)):
            raise TypeError("permutation entries and signs must be int")
        if sorted(permutation) != list(range(k)):
            raise ValueError("not a permutation")
        if len(signs) != k or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1, one per operation")
        _set(self, "permutation", permutation)
        _set(self, "signs", signs)

    @property
    def size(self) -> int:
        return len(self.permutation)


def pairing_form(k: int) -> tuple[int, ...]:
    """Diagonal of the duality pairing: +1 on the left block, -1 on the right."""
    return (1,) * (k * k) + (-1,) * (k * k)


def pairing_terms(v: RelVector, w: RelVector) -> Iterator[int | Fraction]:
    """Signed products of the duality pairing on the common support: x*y on
    the left-comb half of the coordinates, -x*y on the right-comb half."""
    if len(v.coordinates) != len(w.coordinates):
        raise DimensionError("relation vectors live in different spaces")
    half = len(v.coordinates) // 2
    for idx, (x, y) in enumerate(zip(v.coordinates, w.coordinates)):
        if x and y:
            yield x * y if idx < half else -x * y


def pairing_value(v: RelVector, w: RelVector) -> int | Fraction:
    """Evaluate the duality pairing on two relation vectors: an int where
    the value is integral, a Fraction otherwise (``_exact``)."""
    return _exact(sum(pairing_terms(v, w)))


def _dual_relations(relations: Subspace) -> Subspace:
    """Orthogonal complement of a relation space under the duality pairing,
    kept in the space's record once computed.

    A space with an origin cuts its base's complement by all the origin's
    rows at once (``linalg._cut_under_form``), with no elimination; any
    other space takes ``complement_under_form``. Both give the same
    canonical space.
    """
    facts = relations._facts
    out = facts.get("dual")
    if out is None:
        form = pairing_form(isqrt(relations.ambient_dim // 2))
        if "origin" in facts:
            base, rows = facts["origin"]
            out = _cut_under_form(_dual_relations(base), rows, form)
        else:
            out = complement_under_form(relations, form)
        facts["dual"] = out
    return out


def dual(p: Presentation) -> Presentation:
    """Dual presentation: starred names, orthogonal relation space.

    The complement is kept on the relation space (``_dual_relations``);
    the starred names are attached on each call.
    """
    names = tuple(n + "*" for n in p.generators.names)
    return Presentation(GeneratorSet(names), _dual_relations(p.relations))


def _square_row(u: IntRow, kp: int, v: IntRow, kq: int) -> SparseRow:
    """Product of a relation row of p and one of q, in the square's coordinates."""
    k = kp * kq
    k2 = k * k
    kp2 = kp * kp
    kq2 = kq * kq
    out: SparseRow = {}
    for cu, x in u:
        right, ij = divmod(cu, kp2)
        i, j = divmod(ij, kp)
        for cv, y in v:
            # only left times left and right times right survive
            if cv // kq2 != right:
                continue
            a, b = divmod(cv % kq2, kq)
            col = (i * kq + a) * k + j * kq + b
            # both stored blocks are "minus the right side", so the
            # right-block product needs one more sign flip
            out[right * k2 + col] = -x * y if right else x * y
    return out


def square(p: Presentation, q: Presentation) -> Presentation:
    """Square product: pairs of generators, products of relations.

    The relation space is memoized per pair of relation spaces
    (``_square_relations``); the pair names are attached on each call.
    """
    names = tuple(f"{a}.{b}" for a in p.generators.names for b in q.generators.names)
    return Presentation(GeneratorSet(names), _square_relations(p.relations, q.relations))


# Bounded LRU keyed by the two canonical relation spaces alone, never names.
@lru_cache(maxsize=128)
def _square_relations(p_relations: Subspace, q_relations: Subspace) -> Subspace:
    """Relation space of the square of two presentations."""
    kp = isqrt(p_relations.ambient_dim // 2)
    kq = isqrt(q_relations.ambient_dim // 2)
    k = kp * kq
    rows = (
        _square_row(u, kp, v, kq) for u in p_relations.rows for v in q_relations.rows
    )
    return span_rows(rows, 2 * k * k)


def quotient(p: Presentation, extra: Iterable[RelVector]) -> Presentation:
    """Presentation with extra relations added to the span.

    The extra relations are inserted into p's canonical basis
    (``_extend``); when none adds anything, the result holds p's own
    relation space. The result is memoized per relation space and extra
    rows, each made primitive with a positive lead, zero rows dropped
    (``_quotient_relations``), so every multiple of one extra relation
    asks the same entry. A grown space records its origin there.

    Raises:
        DimensionError: if an extra relation has the wrong length; all
            are checked before the memo is asked.
    """
    rows = _extra_rows(extra, p.ambient_dim)
    relations = _quotient_relations(p.relations, rows) if rows else p.relations
    return Presentation(p.generators, relations)


def _extra_rows(extra: Iterable[RelVector], ambient_dim: int) -> tuple[IntRow, ...]:
    """Extra relations as primitive integer rows with a positive lead,
    zero ones dropped."""
    rows = []
    for rv in extra:
        if len(rv.coordinates) != ambient_dim:
            raise DimensionError("extra relation has the wrong ambient dimension")
        row = sparse_row(rv.coordinates)
        if row:
            # sparse_row lists its columns in increasing order
            _normalize(row, next(iter(row)))
            rows.append(tuple(row.items()))
    return tuple(rows)


# Bounded LRU keyed by the canonical relation space and the extra rows.
@lru_cache(maxsize=128)
def _quotient_relations(relations: Subspace, rows: tuple[IntRow, ...]) -> Subspace:
    """The span of a relation space and extra primitive integer rows; a
    grown space with no origin yet records one, by the module's rule."""
    grown, kept = _extend(relations, rows)
    facts = grown._facts
    if kept and "origin" not in facts:
        base, earlier = relations._facts.get("origin", (relations, ()))
        facts["origin"] = (base, earlier + kept)
    return grown


def _push(
    ks: int,
    kt: int,
    coeffs: dict[int, Fraction | int],
    row: Iterable[tuple[int, Fraction | int]],
) -> dict[int, Fraction | int]:
    """Image of a sparse relation row, block by block.

    ``coeffs`` holds the entries of a map from ``ks`` to ``kt`` operations
    by flat index ``i*kt + a``. Returns the nonzero image coordinates.
    """
    ks2 = ks * ks
    kt2 = kt * kt
    images = [
        [(a, coeffs[i * kt + a]) for a in range(kt) if i * kt + a in coeffs]
        for i in range(ks)
    ]
    out: dict[int, Fraction | int] = {}
    for c, x in row:
        block, ij = divmod(c, ks2)
        i, j = divmod(ij, ks)
        for a, fa in images[i]:
            base = block * kt2 + a * kt
            xf = x * fa
            for b, fb in images[j]:
                out[base + b] = out.get(base + b, 0) + xf * fb
    return {c: y for c, y in out.items() if y}


def push_relation(phi: GeneratorMap, v: RelVector) -> RelVector:
    """Image of a relation vector under a generator map, block by block."""
    if v.num_ops != phi.source.size:
        raise DimensionError("relation vector does not match the map source")
    coeffs = {i: x for i, x in enumerate(phi.matrix.entries) if x}
    kt = phi.target.size
    row = ((c, x) for c, x in enumerate(v.coordinates) if x)
    image = _push(phi.source.size, kt, coeffs, row)
    return RelVector(tuple(image.get(c, 0) for c in range(2 * kt * kt)))


def is_morphism(
    phi: GeneratorMap, from_ops_of: Presentation, to_ops_of: Presentation
) -> bool:
    """Whether pushing every relation of the source lands in the target space.

    True means every algebra over ``to_ops_of`` becomes an algebra over
    ``from_ops_of`` by reading each source operation through the map.

    Raises:
        DimensionError: if the map's source or target is not the
            generator set of the matching presentation.
    """
    if phi.source != from_ops_of.generators:
        raise DimensionError("map source does not match the source presentation")
    if phi.target != to_ops_of.generators:
        raise DimensionError("map target does not match the target presentation")
    # the map's entries scaled to integers: every image is scaled alike,
    # which membership does not see
    entries = sparse_row(phi.matrix.entries)
    echelon = to_ops_of.relations.echelon()
    return all(
        reduce_row(echelon, _push(phi.source.size, phi.target.size, entries, row)) is None
        for row in from_ops_of.relations.rows
    )


def compose_maps(f: GeneratorMap, g: GeneratorMap) -> GeneratorMap:
    """Composite map: first f, then g."""
    if f.target != g.source:
        raise DimensionError("maps do not compose: target and source differ")
    return GeneratorMap(f.source, g.target, f.matrix.matmul(g.matrix))


def _index_map(perm: Sequence[int], k: int) -> list[int]:
    """Coordinate map induced on the quadratic span by a permutation."""
    k2 = k * k
    pairs = [perm[i] * k + perm[j] for i in range(k) for j in range(k)]
    return pairs + [k2 + c for c in pairs]


def _pair_signs(signs: Sequence[int], k: int) -> tuple[int, ...]:
    """Scale of the coordinates of pair (i, j), at index i*k + j: signs[i]*signs[j]."""
    return tuple(signs[i] * signs[j] for i in range(k) for j in range(k))


def _relabel(
    rows: Iterable[IntRow], imap: Sequence[int], pair_signs: Sequence[int], k: int
) -> Iterable[SparseRow]:
    """Relation rows moved by ``imap`` and scaled by the ``_pair_signs`` table."""
    k2 = k * k
    for row in rows:
        yield {imap[c]: x * pair_signs[c % k2] for c, x in row}


def _pair_projections(relations: Subspace) -> tuple[int | tuple[int, int], ...]:
    """A relation space projected onto each coordinate pair, kept in the
    space's record once computed.

    Entry i*k + j describes the projection onto the two coordinates
    ``left_index(k, i, j)`` and ``right_index(k, i, j)``: 0 when it is
    zero, 2 when it is the whole plane, and for a line its primitive
    integer spanning vector with the first nonzero entry positive. The
    projected basis rows span the projection, so one pass over them
    decides it: the plane as soon as two projected rows are not
    proportional. A space that ``quotient`` grew as B + <x_1, ..., x_m>
    starts from B's projections and passes over the x_i alone, since the
    projection of a sum of spaces is the sum of their projections.
    """
    facts = relations._facts
    if "pair_projections" in facts:
        return facts["pair_projections"]
    k2 = relations.ambient_dim // 2
    base, rows = facts.get("origin", (None, relations.rows))
    proj: list[int | tuple[int, int]] = [0] * k2 if base is None else [*_pair_projections(base)]
    for row in rows:
        # a row lists its left-block columns before its right-block ones
        projected: dict[int, tuple[int, int]] = {}
        for c, x in row:
            if c < k2:
                projected[c] = (x, 0)
            else:
                c -= k2
                projected[c] = (projected[c][0], x) if c in projected else (0, x)
        for pair, (a, b) in projected.items():
            line = proj[pair]
            if line == 0:
                g = gcd(a, b) if a > 0 or (a == 0 and b > 0) else -gcd(a, b)
                proj[pair] = (a // g, b // g)
            elif line != 2 and line[0] * b != a * line[1]:
                proj[pair] = 2
    kept = facts["pair_projections"] = tuple(proj)
    return kept


def _matching_permutations(
    p_proj: Sequence, q_proj: Sequence, k: int
) -> Iterator[tuple[int, ...]]:
    """Permutations carrying each pair's projection of p onto q's, in
    lexicographic order.

    perm[0], perm[1], ... are assigned in turn, each trying the free
    values in increasing order. Placing position i at v checks pair
    (i, i) and, for each j < i already placed, pairs (i, j) and (j, i),
    so a prefix that cannot extend to a match is dropped with all its
    completions.
    """
    perm: list[int] = []
    free = [True] * k

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(perm)
            return
        row = i * k
        for v in range(k):
            if not free[v] or q_proj[v * k + v] != p_proj[row + i]:
                continue
            for j, w in enumerate(perm):
                if (
                    q_proj[v * k + w] != p_proj[row + j]
                    or q_proj[w * k + v] != p_proj[j * k + i]
                ):
                    break
            else:
                free[v] = False
                perm.append(v)
                yield from extend(i + 1)
                perm.pop()
                free[v] = True

    return extend(0)


# Sign patterns with signs[0] = +1 and their _pair_signs tables, in
# lexicographic order (all +1 first), built once per number of operations.
@lru_cache(maxsize=8)
def _sign_tables(k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    patterns = [(1,) + rest for rest in itertools.product((1, -1), repeat=k - 1)]
    return tuple((signs, _pair_signs(signs, k)) for signs in patterns)


def apply_relabeling(sigma: SignedRelabeling, p: Presentation) -> Presentation:
    """Rename operation i to position perm[i] with sign signs[i]."""
    k = p.num_ops
    if sigma.size != k:
        raise DimensionError("relabeling size does not match the presentation")
    names: list[str] = [""] * k
    for i, name in enumerate(p.generators.names):
        names[sigma.permutation[i]] = name
    imap = _index_map(sigma.permutation, k)
    rows = _relabel(p.relations.rows, imap, _pair_signs(sigma.signs, k), k)
    return Presentation(GeneratorSet(tuple(names)), span_rows(rows, 2 * k * k))


def find_relabeling_iso(
    p: Presentation, q: Presentation
) -> SignedRelabeling | None:
    """Search for a signed relabeling carrying p onto q.

    Candidates are tried in lexicographic order: permutations first, then
    sign patterns with all +1 first. Returns the first match, or None.
    Two exact prunings skip candidates without any elimination; neither
    changes the order in which the rest are tried, nor the match returned.

    * Only sign patterns with signs[0] = +1 are tried. A relabeling scales
      the coordinates of pair (i, j) by signs[i]*signs[j], so negating
      every sign gives the same relabeling. Within one permutation the
      patterns with signs[0] = +1 come first, so the first match always
      has one. These patterns and their scale tables are built once per
      number of operations (``_sign_tables``).
    * A signed relabeling carries the coordinate pair (i, j) onto
      (perm[i], perm[j]) and scales both of its coordinates by the one
      sign signs[i]*signs[j]. A line scaled by -1 is the same line, so
      the relabeling preserves the relation space projected onto each
      pair: zero, a line or the whole plane (``_pair_projections``). If
      the projections of p and q differ as multisets there is no match.
      Otherwise the permutations are built by backtracking, position by
      position in lexicographic order, and a prefix that carries some
      projection of p onto a different one of q is dropped with all its
      completions (``_matching_permutations``). The permutations that
      remain are exactly those the full lexicographic sweep would keep,
      in the same order, so the first match is the same.

    A permutation is turned into a coordinate map only when it survives.
    When every pair's projection agrees, nothing is pruned and the search
    still tries up to k!*2^(k-1) candidates.

    Spaces of different dimensions are rejected at once. Otherwise the
    search runs on the two relation spaces alone and is memoized per
    ordered pair of spaces, never names (``_relabeling_iso``), so the same
    question asked again costs one lookup and returns the same witness.

    Raises:
        DimensionError: if p and q have different numbers of operations;
            this is checked before the memo is asked.
    """
    if q.num_ops != p.num_ops:
        raise DimensionError("presentations have different numbers of operations")
    if p.relations.dimension != q.relations.dimension:
        return None
    return _relabeling_iso(p.relations, q.relations)


# Bounded LRU keyed by the two canonical relation spaces alone, never names.
@lru_cache(maxsize=128)
def _relabeling_iso(source: Subspace, target: Subspace) -> SignedRelabeling | None:
    """The search of ``find_relabeling_iso`` on two relation spaces of
    equal dimension in one ambient space of dimension 2*k^2."""
    k = isqrt(source.ambient_dim // 2)
    p_proj = _pair_projections(source)
    q_proj = _pair_projections(target)
    # Counter, not sorted: a line is a tuple and the other values are ints
    if Counter(p_proj) != Counter(q_proj):
        return None
    echelon = target.echelon()
    rows = source.rows
    for perm in _matching_permutations(p_proj, q_proj, k):
        imap = _index_map(perm, k)
        for signs, pair_signs in _sign_tables(k):
            if all(
                reduce_row(echelon, row) is None
                for row in _relabel(rows, imap, pair_signs, k)
            ):
                return SignedRelabeling(perm, signs)
    return None


def _forget_relation_facts() -> None:
    """Forget what was computed about relation spaces: the record of
    every live space, the memos keyed by pairs of spaces and the
    battery's records, which are read off them."""
    from .verify import _checked

    for space in _interned.values():
        space._facts.clear()
    for memo in (_quotient_relations, _square_relations, _relabeling_iso, _checked):
        memo.cache_clear()
