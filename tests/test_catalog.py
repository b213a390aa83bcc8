"""Golden-value tests for the built-in presentations.

Relation space dimensions are checked against sympy's rank before being
asserted as frozen integers, and the literal relation tables are compared
against the constructions (square, quotient) that are supposed to
reproduce them.
"""

from fractions import Fraction

import pytest
import sympy

from quadops.catalog import (
    ARROW_GENERATORS,
    ASCII_ALIASES,
    BUILTIN_NAMES,
    builtin,
    builtin_map,
    builtin_map_pairs,
    catalog,
    line_relation,
    sixteenth_vector,
    spanning_relations,
    tableau_vectors,
)
from quadops.linalg import DimensionError
from quadops.presentations import (
    GeneratorSet,
    Presentation,
    SignedRelabeling,
    apply_relabeling,
    dual,
    find_relabeling_iso,
    is_morphism,
    quotient,
    square,
)


def sympy_rank(vectors) -> int:
    if not vectors:
        return 0
    return sympy.Matrix([list(v) for v in vectors]).rank()


EXPECTED_DIMS = {
    "As": 1,
    "Dend": 3,
    "Dias": 5,
    "DendSquareDias": 15,
    "Xplus": 16,
    "Xminus": 16,
}


class TestGoldenCoordinates:
    def test_associativity_vector(self):
        (v,) = spanning_relations("As")
        assert v.coordinates == (Fraction(1), Fraction(-1))

    def test_dendriform_vectors(self):
        a, b, c = (r.coordinates for r in spanning_relations("Dend"))
        assert a == (1, 0, 0, 0, -1, -1, 0, 0)
        assert b == (0, 0, 1, 0, 0, 0, -1, 0)
        assert c == (0, 1, 0, 1, 0, 0, 0, -1)

    def test_diassociative_vectors(self):
        rows = [r.coordinates for r in spanning_relations("Dias")]
        assert rows[0] == (1, 0, 0, 0, -1, 0, 0, 0)
        assert rows[1] == (1, 0, 0, 0, 0, -1, 0, 0)
        assert rows[2] == (0, 0, 1, 0, 0, 0, -1, 0)
        assert rows[3] == (0, 1, 0, 0, 0, 0, 0, -1)
        assert rows[4] == (0, 0, 0, 1, 0, 0, 0, -1)

    def test_sixteenth_vector_plus(self):
        coords = sixteenth_vector(1).coordinates
        expected = [Fraction(0)] * 32
        expected[7] = Fraction(1)
        expected[3] = Fraction(-1)
        expected[18] = Fraction(-1)
        expected[19] = Fraction(1)
        assert coords == tuple(expected)

    def test_sixteenth_vector_minus(self):
        coords = sixteenth_vector(-1).coordinates
        expected = [Fraction(0)] * 32
        expected[7] = Fraction(1)
        expected[3] = Fraction(-1)
        expected[18] = Fraction(1)
        expected[19] = Fraction(-1)
        assert coords == tuple(expected)

    def test_sixteenth_vector_rejects_other_signs(self):
        with pytest.raises(ValueError):
            sixteenth_vector(0)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_sixteenth_vector_is_a_point_of_the_line(self, sign):
        assert sixteenth_vector(sign) == line_relation(1, -sign)

    def test_line_points_are_combinations_of_the_directions(self):
        # u and v written out: (x ne y) se z - (x nw y) se z at 7 and 3,
        # x nw (y sw z) - x nw (y se z) at 18 and 19
        u = {7: 1, 3: -1}
        v = {18: 1, 19: -1}
        for a in range(-4, 5):
            for b in range(-4, 5):
                expected = tuple(a * u.get(c, 0) + b * v.get(c, 0) for c in range(32))
                assert line_relation(a, b).coordinates == expected

    def test_tableau_has_fifteen_rows(self):
        assert len(tableau_vectors()) == 15


class TestDimensions:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_relation_space_dimension(self, name):
        vectors = [r.coordinates for r in spanning_relations(name)]
        assert sympy_rank(vectors) == EXPECTED_DIMS[name]
        assert builtin(name).relations.dimension == EXPECTED_DIMS[name]

    def test_dual_of_arrow_tableau_dimension(self):
        assert dual(builtin("DendSquareDias")).relations.dimension == 17


class TestTwoRoutes:
    def test_square_reproduces_tableau(self):
        constructed = square(builtin("Dend"), builtin("Dias"))
        assert constructed.relations == builtin("DendSquareDias").relations
        assert constructed.generators.names == (
            "∧.⊣",
            "∧.⊢",
            "∨.⊣",
            "∨.⊢",
        )
        assert tuple(constructed.generators.names) == tuple(
            f"{a}.{b}" for a in ("∧", "∨") for b in ("⊣", "⊢")
        )
        assert len(ARROW_GENERATORS) == 4

    def test_quotients_reproduce_sixteen_dimensional_pair(self):
        base = square(builtin("Dend"), builtin("Dias"))
        plus = quotient(base, [sixteenth_vector(1)])
        minus = quotient(base, [sixteenth_vector(-1)])
        assert plus.relations == builtin("Xplus").relations
        assert minus.relations == builtin("Xminus").relations
        assert plus.relations != minus.relations


class TestDuality:
    def test_one_operation_presentation_is_self_dual(self):
        assert dual(builtin("As")).relations == builtin("As").relations

    def test_half_products_and_bar_products_are_dual(self):
        assert dual(builtin("Dend")).relations == builtin("Dias").relations
        assert dual(builtin("Dias")).relations == builtin("Dend").relations

    @pytest.mark.parametrize("name", ("Xplus", "Xminus"))
    def test_sixteen_dimensional_pair_is_self_dual_up_to_swap(self, name):
        p = builtin(name)
        d = dual(p)
        sigma = find_relabeling_iso(p, d)
        assert sigma == SignedRelabeling((0, 2, 1, 3), (1, 1, 1, 1))
        assert apply_relabeling(sigma, p).relations == d.relations

    def test_arrow_tableau_itself_is_not_self_dual(self):
        p = builtin("DendSquareDias")
        assert find_relabeling_iso(p, dual(p)) is None


class TestMapsAndCatalog:
    def test_expected_map_pairs_present(self):
        assert set(builtin_map_pairs()) == {
            ("As", "Dend"),
            ("Dias", "As"),
            ("Xplus", "Dend"),
            ("Xminus", "Dend"),
            ("Dias", "Xplus"),
            ("Dias", "Xminus"),
        }

    def test_all_standard_maps_check_out(self):
        for source, target in builtin_map_pairs():
            assert is_morphism(
                builtin_map(source, target), builtin(source), builtin(target)
            )

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            builtin("Nope")
        with pytest.raises(KeyError):
            spanning_relations("Nope")
        with pytest.raises(KeyError):
            builtin_map("As", "Dias")

    def test_aliases_cover_every_generator_name(self):
        alias_targets = set(ASCII_ALIASES.values())
        for name in BUILTIN_NAMES:
            for g in builtin(name).generators.names:
                assert g in alias_targets

    def test_catalog_snapshot(self):
        cat = catalog()
        assert set(cat.presentations) == set(BUILTIN_NAMES)
        assert cat.presentation("Dend") == builtin("Dend")
        assert cat.map("As", "Dend") == builtin_map("As", "Dend")

    def test_catalog_with_presentation_replaces(self):
        cat = catalog()
        changed = cat.with_presentation("As", builtin("As"))
        assert changed.presentation("As") == builtin("As")
        with pytest.raises(KeyError):
            cat.with_presentation("Nope", builtin("As"))

    def test_catalog_with_presentation_keeps_the_operations(self):
        cat = catalog()
        renamed = Presentation(GeneratorSet(("a", "b")), builtin("Dend").relations)
        for p in (builtin("As"), renamed):
            with pytest.raises(DimensionError, match=r"Dend must keep its operations \('∧', '∨'\)"):
                cat.with_presentation("Dend", p)
        # the twins share their operations, so swapping them is allowed
        swapped = cat.with_presentation("Xplus", builtin("Xminus"))
        assert swapped.presentation("Xplus") == builtin("Xminus")

    def test_catalog_without_relation_drops_dimension(self):
        cat = catalog().without_relation("Dend", 0)
        assert cat.presentation("Dend").relations.dimension == 2
        assert len(cat.spanning["Dend"]) == 2
        # the original catalog object is untouched
        assert catalog().presentation("Dend").relations.dimension == 3
        with pytest.raises(IndexError):
            catalog().without_relation("Dend", 3)
