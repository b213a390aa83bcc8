"""Built-in operad presentations and the standard maps between them.

Generator order is part of the contract:

* ``As``: ("·",), the free-standing associative product.
* ``Dend``: ("∧", "∨"), the two dendriform halves of a product.
* ``Dias``: ("⊣", "⊢"), the two diassociative bar products.
* ``DendSquareDias``, ``Xplus``, ``Xminus``: the four arrow operations
  ("↖", "↗", "↙", "↘"), ordered to agree with the
  generator pairs of square(Dend, Dias) taken in lexicographic order:
  nw = (wedge, ldash), ne = (wedge, rdash), sw = (vee, ldash),
  se = (vee, rdash).

``DendSquareDias`` carries the fifteen pairwise products of the dendriform
and diassociative relations, written out literally below so that the
table can be checked against the square construction computed from the
same inputs. ``Xplus`` and ``Xminus`` add one sixteenth relation each,
differing only in an interior sign.

Every generator name has an ASCII alias (``dot``, ``wedge``, ``vee``,
``ldash``, ``rdash``, ``nw``, ``ne``, ``sw``, ``se``) accepted wherever
names are parsed, so the Unicode arrows never need to be typed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .linalg import DimensionError, Matrix, _Record, _set, span
from .presentations import (
    GeneratorMap,
    GeneratorSet,
    Presentation,
    RelVector,
    quotient,
    relation_vector,
)

__all__ = [
    "BUILTIN_NAMES",
    "ASCII_ALIASES",
    "BuiltinCatalog",
    "builtin",
    "builtin_map",
    "builtin_map_pairs",
    "catalog",
    "spanning_relations",
    "as_relations",
    "dend_relations",
    "dias_relations",
    "tableau_vectors",
    "line_relation",
    "sixteenth_vector",
]

AS_GENERATORS = ("·",)
DEND_GENERATORS = ("∧", "∨")
DIAS_GENERATORS = ("⊣", "⊢")
ARROW_GENERATORS = ("↖", "↗", "↙", "↘")

# indices of the arrow operations, used in the relation tables below
NW, NE, SW, SE = 0, 1, 2, 3

ASCII_ALIASES: Mapping[str, str] = {
    "dot": AS_GENERATORS[0],
    "wedge": DEND_GENERATORS[0],
    "vee": DEND_GENERATORS[1],
    "ldash": DIAS_GENERATORS[0],
    "rdash": DIAS_GENERATORS[1],
    "nw": ARROW_GENERATORS[0],
    "ne": ARROW_GENERATORS[1],
    "sw": ARROW_GENERATORS[2],
    "se": ARROW_GENERATORS[3],
}


def as_relations() -> tuple[RelVector, ...]:
    """Associativity: (x.y).z = x.(y.z)."""
    return (relation_vector(1, [(1, 0, 0)], [(1, 0, 0)]),)


def dend_relations() -> tuple[RelVector, ...]:
    """The three dendriform relations, wedge = 0 and vee = 1.

    (x^y)^z = x^(y^z) + x^(y v z)
    (x v y)^z = x v (y^z)
    (x^y) v z + (x v y) v z = x v (y v z)
    """
    return (
        relation_vector(2, [(1, 0, 0)], [(1, 0, 0), (1, 0, 1)]),
        relation_vector(2, [(1, 1, 0)], [(1, 1, 0)]),
        relation_vector(2, [(1, 0, 1), (1, 1, 1)], [(1, 1, 1)]),
    )


def dias_relations() -> tuple[RelVector, ...]:
    """The five diassociative relations, ldash = 0 and rdash = 1.

    (x -| y) -| z = x -| (y -| z)
    (x -| y) -| z = x -| (y |- z)
    (x |- y) -| z = x |- (y -| z)
    (x -| y) |- z = x |- (y |- z)
    (x |- y) |- z = x |- (y |- z)
    """
    return (
        relation_vector(2, [(1, 0, 0)], [(1, 0, 0)]),
        relation_vector(2, [(1, 0, 0)], [(1, 0, 1)]),
        relation_vector(2, [(1, 1, 0)], [(1, 1, 0)]),
        relation_vector(2, [(1, 0, 1)], [(1, 1, 1)]),
        relation_vector(2, [(1, 1, 1)], [(1, 1, 1)]),
    )


def tableau_vectors() -> tuple[RelVector, ...]:
    """The fifteen relations of the square of Dend and Dias, written out.

    Grouped three at a time by the diassociative relation involved; within
    each group the dendriform relation runs through its three shapes. This
    table is transcribed by hand, independently of the square construction,
    so that comparing the two catches transcription errors in either.
    """
    rows = [
        # products with (x -| y) -| z = x -| (y -| z)
        ([(1, NW, NW)], [(1, NW, NW), (1, NW, SW)]),
        ([(1, SW, NW)], [(1, SW, NW)]),
        ([(1, NW, SW), (1, SW, SW)], [(1, SW, SW)]),
        # products with (x -| y) -| z = x -| (y |- z)
        ([(1, NW, NW)], [(1, NW, SE), (1, NW, NE)]),
        ([(1, SW, NW)], [(1, SW, NE)]),
        ([(1, NW, SW), (1, SW, SW)], [(1, SW, SE)]),
        # products with (x |- y) -| z = x |- (y -| z)
        ([(1, NE, NW)], [(1, NE, NW), (1, NE, SW)]),
        ([(1, SE, NW)], [(1, SE, NW)]),
        ([(1, NE, SW), (1, SE, SW)], [(1, SE, SW)]),
        # products with (x -| y) |- z = x |- (y |- z)
        ([(1, NW, NE)], [(1, NE, NE), (1, NE, SE)]),
        ([(1, SW, NE)], [(1, SE, NE)]),
        ([(1, NW, SE), (1, SW, SE)], [(1, SE, SE)]),
        # products with (x |- y) |- z = x |- (y |- z)
        ([(1, NE, NE)], [(1, NE, NE), (1, NE, SE)]),
        ([(1, SE, NE)], [(1, SE, NE)]),
        ([(1, NE, SE), (1, SE, SE)], [(1, SE, SE)]),
    ]
    return tuple(relation_vector(4, left, right) for left, right in rows)


def line_relation(a: int, b: int) -> RelVector:
    """The point (a : b) of the line of sixteenth relations, a*u + b*v.

    u = (x ne y) se z - (x nw y) se z lives in the left block, and
    v = x nw (y sw z) - x nw (y se z) in the right block. ``a`` and ``b``
    are ints or Fractions.
    """
    return relation_vector(4, [(a, NE, SE), (-a, NW, SE)], [(-b, NW, SW), (b, NW, SE)])


def sixteenth_vector(sign: int) -> RelVector:
    """The extra relation of Xplus (sign +1) or Xminus (sign -1).

    (ne)se - (nw)se = sign * (nw(sw) - nw(se)), the point (1 : -sign) of
    ``line_relation``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return line_relation(1, -sign)


# Each built-in once, in catalog order: its operations and the builder of
# its literal relation list.
_BUILTINS = {
    "As": (AS_GENERATORS, as_relations),
    "Dend": (DEND_GENERATORS, dend_relations),
    "Dias": (DIAS_GENERATORS, dias_relations),
    "DendSquareDias": (ARROW_GENERATORS, tableau_vectors),
    "Xplus": (ARROW_GENERATORS, lambda: tableau_vectors() + (sixteenth_vector(1),)),
    "Xminus": (ARROW_GENERATORS, lambda: tableau_vectors() + (sixteenth_vector(-1),)),
}

BUILTIN_NAMES = tuple(_BUILTINS)

# The built-ins whose literal list is the tableau of DendSquareDias and
# one sixteenth relation after it.
_SIXTEEN_RELATION_NAMES = ("Xplus", "Xminus")


def _presentation(names: tuple[str, ...], rels: tuple[RelVector, ...]) -> Presentation:
    k = len(names)
    return Presentation(
        GeneratorSet(names), span([r.coordinates for r in rels], 2 * k * k)
    )


# Cached per built-in name: at most six entries.
@lru_cache(maxsize=None)
def spanning_relations(name: str) -> tuple[RelVector, ...]:
    """The literal defining relation list of a built-in, in source order."""
    return _BUILTINS[name][1]()


# Cached per built-in name: at most six entries.
@lru_cache(maxsize=None)
def builtin(name: str) -> Presentation:
    """Look up a built-in presentation by name; raises KeyError if unknown.

    Every built-in is the span of its literal relation list. For Xplus
    and Xminus the catalog then asks ``quotient`` for DendSquareDias with
    the last relation of the list, which records on the interned space
    the origin its dual and ideals are cut and grown from.
    """
    relations = spanning_relations(name)
    p = _presentation(_BUILTINS[name][0], relations)
    if name in _SIXTEEN_RELATION_NAMES:
        quotient(builtin("DendSquareDias"), relations[-1:])
    return p


# Generator maps witnessing the arrows between the built-ins. Row i of the
# matrix expands source operation i in the target operations. The key order
# is (source, target) of the generator map; a true morphism check for the
# pair means every target-algebra becomes a source-algebra.
_MAP_MATRICES = {
    ("As", "Dend"): [[1, 1]],
    ("Dias", "As"): [[1], [1]],
    ("Xplus", "Dend"): [[1, 0], [1, 0], [0, 1], [0, 1]],
    ("Xminus", "Dend"): [[1, 0], [1, 0], [0, 1], [0, 1]],
    ("Dias", "Xplus"): [[1, 0, 1, 0], [0, 1, 0, 1]],
    ("Dias", "Xminus"): [[1, 0, 1, 0], [0, 1, 0, 1]],
}


def builtin_map_pairs() -> tuple[tuple[str, str], ...]:
    return tuple(_MAP_MATRICES)


# Cached per built-in pair of _MAP_MATRICES: at most six entries.
@lru_cache(maxsize=None)
def builtin_map(source: str, target: str) -> GeneratorMap:
    """The standard generator map between two built-ins; KeyError if none."""
    rows = _MAP_MATRICES[(source, target)]
    return GeneratorMap(
        builtin(source).generators,
        builtin(target).generators,
        Matrix.from_rows(rows),
    )


class BuiltinCatalog(_Record):
    """A snapshot of the built-in presentations, their defining relation
    lists, and the standard maps. Verification runs against a catalog, so
    tests can hand in deliberately damaged copies."""

    __slots__ = ("presentations", "spanning", "maps")

    def __init__(
        self,
        presentations: dict[str, Presentation],
        spanning: dict[str, tuple[RelVector, ...]],
        maps: dict[tuple[str, str], GeneratorMap],
    ) -> None:
        _set(self, "presentations", presentations)
        _set(self, "spanning", spanning)
        _set(self, "maps", maps)

    def presentation(self, name: str) -> Presentation:
        return self.presentations[name]

    def map(self, source: str, target: str) -> GeneratorMap:
        return self.maps[(source, target)]

    def with_presentation(self, name: str, p: Presentation) -> BuiltinCatalog:
        """Copy of the catalog with p in place of a built-in; KeyError if
        unknown, DimensionError unless p keeps the built-in's operations."""
        expected = self.presentations[name].generators
        if p.generators != expected:
            raise DimensionError(
                f"{name} must keep its operations {expected.names}, "
                f"got {p.generators.names}"
            )
        updated = dict(self.presentations)
        updated[name] = p
        return BuiltinCatalog(updated, self.spanning, self.maps)

    def without_relation(self, name: str, index: int) -> BuiltinCatalog:
        """Copy of the catalog with one defining relation deleted."""
        rels = self.spanning[name]
        if not 0 <= index < len(rels):
            raise IndexError(index)
        kept = rels[:index] + rels[index + 1 :]
        updated_spanning = dict(self.spanning)
        updated_spanning[name] = kept
        updated_presentations = dict(self.presentations)
        updated_presentations[name] = _presentation(_BUILTINS[name][0], kept)
        return BuiltinCatalog(updated_presentations, updated_spanning, self.maps)


def catalog() -> BuiltinCatalog:
    """Fresh catalog holding all six built-ins and the standard maps."""
    return BuiltinCatalog(
        presentations={name: builtin(name) for name in BUILTIN_NAMES},
        spanning={name: spanning_relations(name) for name in BUILTIN_NAMES},
        maps={pair: builtin_map(*pair) for pair in _MAP_MATRICES},
    )
