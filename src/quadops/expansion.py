"""Weight-graded expansion of a presentation into free-operad components.

The weight-n component of the free regular operad on k binary operations
has a monomial basis indexed by planar binary trees with n leaves whose
internal nodes carry operation labels; there are C(n-1) * k^(n-1) such
monomials (Catalan number times label choices). A component of the
presented operad is that space modulo the weight-n part of the ideal the
relations generate, so its dimension is basis size minus ideal rank.

A tree has one encoding, a nested tuple: ``None`` is a leaf and
``(left, right)`` a binary vertex. A ``TreeMonomial`` pairs such a shape
with its labels in pre-order.

The ideal's weight-n part is spanned by the relations placed in n-leaf
trees, as in the tree-monomial set-up of Bremner and Dotsenko. A relation
combines the 2k^2 quadratic combs, left ones (x op_i y) op_j z and right
ones x op_i (y op_j z). A left comb sits at a vertex whose left child is
a vertex, ((a, b), c); rotating the tree there to (a, (b, c)) puts the
right comb in its place. So a relation is placed at a rotation of an
n-leaf tree; with labels on the other vertices it gives one generator
with at most 2k^2 nonzeros. The generators go as one batch into the
sparse integer echelon of ``linalg.insert_rows``; the rank, and the pivot
columns that pick the surviving monomials, are read off the echelon
without building any rational basis. ``ideal_span`` back-substitutes the
same echelon when the canonical basis itself is wanted. The weight-3
rank needs no echelon: a 3-leaf tree has one rotation and no other
vertex, so the generators are the relation rows with their coordinates
sent one-to-one to the 2k^2 columns, and the rank is dim R.
``ideal_span`` and ``weight_component`` still eliminate at weight 3,
since they need the pivots.

The generator rows of one weight are built into one list, so they are all
held at once, and reduced highest lead (lowest nonzero) column first; among
equal leads the row with the fewest nonzeros goes first. This is exact: for
a fixed column order, the lead columns of an echelon are the pivot columns
of the RREF of the space its rows span, and back-substitution gives that
RREF, whatever order the rows came in. So the rank, the pivots and the
ideal basis are those of any other order, and only the cost changes. Every
earlier row leads at the same column or a later one, so a row is stored
untouched unless an earlier row shares its lead, and then the sparsest of
those is the one it is reduced by, which adds the fewest new nonzeros.
For Xplus at weight 6 the echelon holds 108,643 nonzeros this way against
437,911 in the order of generation, and the weight takes about a fifth of
the time. Each row is dropped once reduced; holding the 86,016 rows of
that weight peaks at about 42 MB, the 205,920 of Dias at weight 8 at about
75 MB.

A quotient's ideal grows from its base's. The ideal of a sum of relation
spaces is the sum of their ideals (Loday and Vallette, *Algebraic
Operads*, ch. 5 and 7), so for a space that ``quotient`` grew as
B + <x_1, ..., x_m> (its origin), ``_ideal_echelon`` starts from
a shallow copy of B's echelon and inserts only the generators of the x_i,
sorted as above; a space with no origin is the zero space extended by all
its rows. The result is exact for the reason above: every rank, pivot set
and basis depends on the span alone. B's echelon comes from
``_base_echelon``, an LRU of at most 4 entries keyed by the space and the
weight, so Xplus and Xminus share the square's elimination: at weight 6
the square takes about 0.24 s once and each of the two 0.16 s more,
against 0.94 s alone. An entry holds up to C(n-1) * k^(n-1) rows, 12.6 MB
for the square at weight 6, so four four-operation bases hold about
50 MB; one at weight 7 would take some 160 MB (the CLI refuses four
operations at weight 7), a two-operation base 2.6 MB at weight 7 and
18 MB at weight 8. Only the result is independent of the order, not the
cost: from a heavy base, a drawn two-operation space of dim 2 with
rational coefficients took 3.3 s at weight 6 against 0.26 s direct.

Orderings are fixed so golden tests are byte-stable: trees are ordered by
descending left-subtree leaf count (recursively), labels are read in
pre-order, and the monomial basis runs through trees in tree order and
labels in lexicographic order.

From weight 5 on, ``component_dim`` counts instead of eliminating when the
relations form a quadratic Gröbner basis under the column order or one of
its label and mirror variants: the dim is then the number of trees with
no quadratic leading term as an edge, which a dynamic program over (leaves,
root label) counts in microseconds at any weight. Its docstring proves the
criterion; every other dim is a rank, as are all dims up to weight 4.

Two caches are keyed by the weight alone, ``enumerate_trees`` and
``_context_layouts``; the CLI's preflight (``weight_work``) bounds the
weights. Two entries of a relation space's record, ``Subspace._facts``,
are written here and collected with the space (the ``presentations``
module docstring describes the record and the origin): ``ideal_ranks``,
the rank of each weight's ideal (``_ideal_rank``), and ``normal_edges``,
the leading edges of a quadratic Gröbner basis, or None when none of the
2*k! orders ``_normal_edges`` tries has one. A failed search reduces the
relation rows once per order and counts weight 4 each time, about 1 ms
for the 48 orders on four operations. The orders grow as k!, so
``component_dim`` searches only at a weight whose C(2n-3, n) * k^(n-3) *
dim R generator rows are at least the 2 * k! * dim R rows the search
reduces: from weight 5 for k <= 5, 6 for k = 6 and 7, 8 for k = 10. No
monomial, ideal basis or echelon is kept but those of ``_base_echelon``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, isqrt
from typing import Collection, Sequence

from .linalg import (
    Echelon,
    IntRow,
    Subspace,
    _Record,
    _set,
    echelon_subspace,
    insert_rows,
    reduce_row,
)
from .presentations import Presentation

__all__ = [
    "TreeMonomial",
    "WeightComponent",
    "catalan",
    "enumerate_trees",
    "weight_basis",
    "ideal_span",
    "weight_component",
    "component_dim",
    "weight_work",
    "binary_ops_dimension",
    "format_monomial",
]


def catalan(n: int) -> int:
    """Number of planar binary trees with n+1 leaves."""
    return comb(2 * n, n) // (n + 1)


# Cached by weight alone: one entry per weight asked for.
@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All planar binary trees with n leaves, larger left subtrees first."""
    if n < 1:
        raise ValueError("a tree has at least one leaf")
    if n == 1:
        return (None,)
    return tuple(
        (left, right)
        for left_leaves in range(n - 1, 0, -1)
        for left in enumerate_trees(left_leaves)
        for right in enumerate_trees(n - left_leaves)
    )


def _leaf_count(shape) -> int:
    if shape is None:
        return 1
    if not (isinstance(shape, tuple) and len(shape) == 2):
        raise ValueError("a tree is None (a leaf) or a (left, right) pair of trees")
    return _leaf_count(shape[0]) + _leaf_count(shape[1])


class TreeMonomial(_Record):
    """A tree shape with one operation label per internal node, pre-order."""

    __slots__ = ("shape", "labels")

    def __init__(self, shape: tuple | None, labels: tuple[int, ...]) -> None:
        if _leaf_count(shape) != len(labels) + 1:
            raise ValueError("one label per internal node")
        if any(g < 0 for g in labels):
            raise ValueError("labels are operation indices")
        _set(self, "shape", shape)
        _set(self, "labels", labels)

    @property
    def arity(self) -> int:
        return len(self.labels) + 1


def weight_basis(num_ops: int, n: int) -> tuple[TreeMonomial, ...]:
    """Ordered monomial basis of the weight-n free component.

    ``enumerate_trees`` makes only valid n-leaf shapes and every labelling
    has n - 1 operation indices, so the monomials skip the constructor's
    checks, which would walk each shape once per labelling.
    """
    if num_ops < 1:
        raise ValueError("need at least one operation")
    out = []
    new = object.__new__
    for tree in enumerate_trees(n):
        for labels in itertools.product(range(num_ops), repeat=n - 1):
            m = new(TreeMonomial)
            _set(m, "shape", tree)
            _set(m, "labels", labels)
            out.append(m)
    return tuple(out)


def _rotations(t, p: int):
    """Yield (q, s, rotated) for each vertex ((a, b), c) of the subtree t,
    whose root sits at pre-order position p: q is the vertex's position,
    s the number of vertices of a, and rotated is t turned there into
    (a, (b, c))."""
    if t is None:
        return
    left, right = t
    if left is not None:
        a, b = left
        yield p, _leaf_count(a) - 1, (a, (b, right))
    for q, s, r in _rotations(left, p + 1):
        yield q, s, (r, right)
    for q, s, r in _rotations(right, p + _leaf_count(left)):
        yield q, s, (left, r)


# Cached by weight alone, like enumerate_trees.
@lru_cache(maxsize=None)
def _context_layouts(n: int) -> tuple:
    """Per rotation of an n-leaf tree, which turns the left comb's tree
    into the right comb's: for each comb, its tree's index in
    ``enumerate_trees(n)`` and the pre-order positions of op_i and op_j.

    A rotation keeps the relative pre-order of every other vertex, so both
    trees list those vertices in the same order.
    """
    trees = enumerate_trees(n)
    index = {t: i for i, t in enumerate(trees)}
    return tuple(
        ((i, p + 1, p), (index[rotated], p, p + 1 + s))
        for i, t in enumerate(trees)
        for p, s, rotated in _rotations(t, 0)
    )


def _ideal_generators(k: int, relations: Sequence[IntRow], n: int):
    """Sparse rows spanning the weight-n ideal, straight from the relations.

    ``relations`` are the integer rows of a relation space on k operations.
    Each row is one relation placed at one labelled rotation. Relation
    coordinate i*k + j, (x op_i y) op_j z, becomes the left comb there,
    coordinate k*k + i*k + j, x op_i (y op_j z), the right comb; a
    monomial's column is its shape index times k^(n-1) plus its labels
    read in pre-order as a base-k number. The column of each of the 2k^2
    coordinates is worked out once per labelled rotation.
    """
    k2 = k * k
    if not relations:
        return
    block = k ** (n - 1)
    coords = range(2 * k2)
    # place value of each pre-order position: k ** (labels after it)
    place = [k ** (n - 2 - pos) for pos in range(n - 1)]
    for combs in _context_layouts(n):
        offset = []
        bases = []
        for shape, i, j in combs:
            # the comb's coordinate a*k + b puts op_a at i and op_b at j
            offset += [place[i] * a + place[j] * b for a in range(k) for b in range(k)]
            # the column of its tree under every labelling of the other
            # vertices, the first in pre-order varying slowest
            starts = [shape * block]
            for pos in range(n - 1):
                if pos != i and pos != j:
                    starts = [start + x * place[pos] for start in starts for x in range(k)]
            bases.append(starts)
        for left, right in zip(*bases):
            cols = [(right if c >= k2 else left) + offset[c] for c in coords]
            for rel in relations:
                yield {cols[c]: x for c, x in rel}


def weight_work(p: Presentation, n: int) -> tuple[int, int]:
    """Generator rows and ambient size of the weight-n elimination.

    A relation is placed at a rotation of an n-leaf tree and the other
    n - 3 vertices are labelled. The C(2n-3, n) rotations (1, 5, 21, 84,
    ... for n = 3, 4, 5, 6, ...) are the edges of the associahedron, so
    ``_ideal_generators`` yields C(2n-3, n) * k^(n-3) * dim R rows, in
    C(n-1) * k^(n-1) columns. Below weight 3 there is no ideal.

    For a quotient that ``_ideal_echelon`` grows from its base, the count
    is an upper bound. The extra rows it records are independent of the
    base, so a cold base costs exactly this many rows in all, and a
    memoized one only the extra rows' share; at no time are more of them
    held than this. The CLI's preflight thus stays conservative.
    """
    if n < 1:
        raise ValueError("weight starts at 1")
    k = p.num_ops
    rows = comb(2 * n - 3, n) * k ** (n - 3) * p.relations.dimension if n >= 3 else 0
    return rows, catalan(n - 1) * k ** (n - 1)


def _ideal_echelon(relations: Subspace, n: int) -> Echelon:
    """Echelon of the weight-n ideal of a relation space in 2k^2 columns.

    A space that ``quotient`` grew as B + <x_1, ..., x_m> (its origin)
    starts from a copy of B's echelon, memoized in ``_base_echelon``, and
    adds the generators of x_1, ..., x_m alone; any other space starts from
    the empty echelon and adds the generators of all its rows. The
    generators are reduced in the order the module docstring gives; the
    lead columns, and the RREF ``back_substitute`` makes of the echelon,
    do not depend on it. The copy shares its rows with the memo entry,
    which insertion never changes, so neither may a caller.
    """
    if n < 3:
        raise ValueError("the relation ideal starts at weight 3")
    k = isqrt(relations.ambient_dim // 2)
    base, relation_rows = relations._facts.get("origin", (None, relations.rows))
    echelon: Echelon = {} if base is None else dict(_base_echelon(base, n))
    rows = list(_ideal_generators(k, relation_rows, n))
    # pop() takes the highest lead column first; among equal leads the
    # fewest nonzeros first, then the order of generation. Popping frees
    # each row that reduces to zero as soon as it has.
    rows.sort(key=len)
    rows.sort(key=min, reverse=True)
    rows.reverse()
    insert_rows(echelon, (rows.pop() for _ in range(len(rows))))
    return echelon


# Bounded LRU of the echelons quotients grow from, keyed by the canonical
# relation rows and weight, never names. It wraps the function itself, so
# a base's own origin is followed in turn.
_base_echelon = lru_cache(maxsize=4)(_ideal_echelon)


def _ideal_rank(relations: Subspace, n: int) -> int:
    """Rank of the weight-n ideal generated by a relation space, kept on
    the space's record per weight once computed (``ideal_ranks``).

    At weight 3 it is dim R, with no elimination: a 3-leaf tree has one
    rotation and no other vertex, so ``_ideal_generators`` sends relation
    coordinate c to one column of its own and the generators are the
    relation rows re-indexed, as independent as they are.
    """
    if n == 3:
        return relations.dimension
    ranks = relations._facts.setdefault("ideal_ranks", {})
    if n not in ranks:
        ranks[n] = len(_ideal_echelon(relations, n))
    return ranks[n]


def _normal_count(k: int, forbidden: Collection[int], n: int) -> int:
    """Number of n-leaf trees on k labels with no forbidden edge.

    An edge is a vertex labelled a whose child on side s (0 left, 1 right)
    is a vertex labelled b; it is named by the weight-3 column of the
    quadratic monomial it forms, s*k^2 + a*k + b.
    """
    if n == 1:
        return 1
    edges = [(col // (k * k), col // k % k, col % k) for col in forbidden]
    # subtrees[side][m][a]: the m-leaf trees that may hang on that side
    # of a vertex labelled a; a leaf always may
    subtrees = [[None, [1] * k], [None, [1] * k]]
    for m in range(2, n + 1):
        left, right = subtrees
        rooted = [sum(left[i][a] * right[m - i][a] for i in range(1, m)) for a in range(k)]
        total = sum(rooted)
        if m == n:
            return total
        hang = [[total] * k, [total] * k]
        for side, a, b in edges:
            hang[side][a] -= rooted[b]
        subtrees[0].append(hang[0])
        subtrees[1].append(hang[1])


def _normal_edges(relations: Subspace) -> frozenset[int] | None:
    """The quadratic leading edges of a relation space, if they form a
    quadratic Gröbner basis under one of 2*k! orders, else None; kept on
    the space's record once searched (``normal_edges``).

    The orders are the engine's column order and its mirror, each under
    the k! orders of the labels: a variant compares two monomials by the
    engine columns of their images under a relabeling, and for the mirror
    also under left-right reflection. The relation rows are re-indexed
    into the variant's weight-3 columns and reduced into a scratch
    echelon, whose lead columns are the leading monomials of the relation
    space; ``component_dim`` says why comparing their weight-4 normal
    count with dim P(4) decides the question. The edges returned are
    those leading monomials in the presentation's own labels, as
    ``_normal_count`` names them.
    """
    facts = relations._facts
    if "normal_edges" in facts:
        return facts["normal_edges"]
    k = isqrt(relations.ambient_dim // 2)
    k2 = k * k
    # relation coordinate i*k + j, (x op_i y) op_j z, is the edge from op_j
    # to its left child op_i; k*k + i*k + j, x op_i (y op_j z), the edge
    # from op_i to its right child op_j
    edges = [(0, c % k, c // k) if c < k2 else (1, (c - k2) // k, c % k) for c in range(2 * k2)]
    target = catalan(3) * k**3 - _ideal_rank(relations, 4)
    found = None
    for mirror, perm in itertools.product((0, 1), itertools.permutations(range(k))):
        cols = [((s ^ mirror) * k + perm[a]) * k + perm[b] for s, a, b in edges]
        # the rows are independent, so none reduces to zero; only the
        # leads are wanted, so the rows are stored as reduced, unscaled
        echelon: Echelon = {}
        for rel in relations.rows:
            row = {cols[c]: x for c, x in rel}
            echelon[reduce_row(echelon, row)] = row
        if _normal_count(k, echelon, 4) == target:
            coordinate = {col: c for c, col in enumerate(cols)}
            found = frozenset(
                (s * k + a) * k + b for s, a, b in (edges[coordinate[col]] for col in echelon)
            )
            break
    facts["normal_edges"] = found
    return found


def ideal_span(p: Presentation, n: int) -> Subspace:
    """Weight-n component of the ideal generated by the relations.

    It is spanned by every relation placed at every labelled rotation of
    an n-leaf tree; weight 3 is the relation space itself,
    re-coordinatized to the monomial basis. The canonical RREF
    basis is back-substituted from the same echelon ``component_dim``
    counts.
    """
    _, size = weight_work(p, n)
    return echelon_subspace(_ideal_echelon(p.relations, n), size)


class WeightComponent(_Record):
    """One weight-graded piece: monomial basis and the ideal inside it.

    ``pivots`` are the lead columns of the ideal's echelon, which are the
    pivot columns of its RREF basis; ``ideal_span`` builds that basis.
    """

    __slots__ = ("arity", "basis", "pivots")

    def __init__(self, arity: int, basis: tuple[TreeMonomial, ...], pivots: tuple[int, ...]) -> None:
        _set(self, "arity", arity)
        _set(self, "basis", basis)
        _set(self, "pivots", pivots)

    @property
    def dimension(self) -> int:
        return len(self.basis) - len(self.pivots)

    def surviving_monomials(self) -> tuple[TreeMonomial, ...]:
        """Monomials at non-pivot coordinates: a basis of the quotient."""
        pivots = set(self.pivots)
        return tuple(m for i, m in enumerate(self.basis) if i not in pivots)


def weight_component(p: Presentation, n: int) -> WeightComponent:
    """The weight-n component of the operad presented by ``p``."""
    if n < 1:
        raise ValueError("weight starts at 1")
    basis = weight_basis(p.num_ops, n)
    echelon = _ideal_echelon(p.relations, n) if n >= 3 else {}
    return WeightComponent(n, basis, tuple(sorted(echelon)))


def component_dim(p: Presentation, n: int) -> int:
    """Dimension of the weight-n component of the presented operad.

    From weight 5 on, when ``_normal_edges`` finds that the relations form
    a quadratic Gröbner basis, the dim is the number of n-leaf trees with
    no quadratic leading term as an edge (``_normal_count``). The search
    is asked only at a weight whose elimination has at least as many rows
    as it reduces, as the module docstring says. Otherwise,
    and at every weight up to 4, it is the size minus the rank of the
    ideal, kept on the relation space per weight (``_ideal_rank``): dim R
    at weight 3, the size of the echelon above it; no basis is built.

    Why the count is the dim (Dotsenko and Khoroshkin, "Gröbner bases for
    operads", arXiv:0812.4069; Hoffbeck, "A Poincaré-Birkhoff-Witt
    criterion for Koszul operads", arXiv:0812.2815):

    * The column order is admissible: for monomials alpha < beta of one
      arity, every gamma and every leaf i, gamma o_i alpha < gamma o_i beta
      and alpha o_i gamma < beta o_i gamma. Shapes come first. Two shapes
      compare by left leaf count (more first), then by the left subtree,
      then by the right, which is ``enumerate_trees`` order. By induction
      on gamma, substituting at the same leaf of gamma changes only the
      side that holds it, and that side compares as alpha and beta do. By
      induction on alpha and beta, substituting gamma at the same leaf
      keeps their first difference: it adds the same leaves to both left
      subtrees, or to the larger one only, or to neither, and otherwise
      lands on the same side of both. Within a shape, labels compare
      lexicographically in pre-order, and substituting a tree places its
      labels as one contiguous pre-order block, at a place fixed by the
      outer shape and the leaf. So gamma o_i alpha and gamma o_i beta
      differ only in that block, and alpha o_i gamma, beta o_i gamma
      insert the same block at the same place, which keeps the first
      difference.
    * Reversing the order, permuting the labels and mirroring each keep
      it admissible: reversal turns both implications around, and a
      relabeling or the mirror commutes with composition (the mirror
      sends leaf i of an arity-a tree to leaf a - 1 - i). The engine's
      lead is a row's lowest column, the largest monomial in the reversed
      order. A relabeling is an isomorphism of operads and the mirror one
      onto the opposite operad, with the same dims, so a count under a
      variant counts for p.
    * The criterion: trees with no leading edge of the relations span
      every component, so at each weight they number at least dim P(n),
      with equality at all weights exactly when the relations form a
      Gröbner basis. Every critical pair of two quadratic leading terms is
      a tree with three vertices, in weight 4. If the weight-4 count is
      dim P(4) = C(3) * k^3 - rank, every leading monomial of the weight-4
      ideal has a leading edge of the relations. An S-polynomial reduced
      by the relations leaves a remainder in that ideal whose monomials
      have none, so the remainder is zero. So the relations are a Gröbner
      basis and the count is the dim at every weight.
    """
    rows, size = weight_work(p, n)
    if n < 3:
        return size
    # the search reduces the relation rows once per order; it runs only
    # when that is no more rows than the elimination it may replace
    if n >= 5 and 2 * factorial(p.num_ops) * p.relations.dimension <= rows:
        edges = _normal_edges(p.relations)
        if edges is not None:
            return _normal_count(p.num_ops, edges, n)
    return size - _ideal_rank(p.relations, n)


def binary_ops_dimension(p: Presentation) -> int:
    """Dimension of the full space of binary operations.

    Each nonsymmetric generator contributes two binary operations, one per
    order of the two arguments.
    """
    return 2 * p.num_ops


_VARIABLES = ("x", "y", "z", "w", "u", "v", "s", "t")


def format_monomial(m: TreeMonomial, names: Sequence[str]) -> str:
    """Render a monomial with variables x, y, z, ... in leaf order."""
    arity = m.arity
    if arity <= len(_VARIABLES):
        leaves = _VARIABLES[:arity]
    else:
        leaves = tuple(f"x{i + 1}" for i in range(arity))
    state = {"label": 0, "leaf": 0}

    def go(t, top: bool) -> str:
        if t is None:
            s = leaves[state["leaf"]]
            state["leaf"] += 1
            return s
        op = names[m.labels[state["label"]]]
        state["label"] += 1
        left = go(t[0], False)
        right = go(t[1], False)
        body = f"{left} {op} {right}"
        return body if top else f"({body})"

    return go(m.shape, True)
