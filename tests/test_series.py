"""Tests for exact series composition and the duality dimension test.

The composition routine is validated against an independent oracle: a
sympy-based degree-by-degree solve for the compositional inverse, written
with symbolic substitution rather than the library's Horner loop.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadops.catalog import builtin
from quadops.linalg import span
from quadops.presentations import GeneratorSet, Presentation, dual
from quadops.series import (
    DimPrediction,
    DimSeries,
    PowerSeries,
    compose,
    dim_series,
    gk_defect,
    identity_series,
    predicted_dims,
    signed_series,
)


def sympy_inverse(coeffs, order):
    """Oracle: solve f(g(t)) = t for g degree by degree, symbolically."""
    t = sympy.Symbol("t")
    f = sum(sympy.Rational(c) * t**i for i, c in enumerate(coeffs[: order + 1]))
    f1 = sympy.Rational(coeffs[1])
    g_coeffs = [sympy.Integer(0), 1 / f1]
    for n in range(2, order + 1):
        # with g = g_<n + a t^n, the t^n coefficient of f(g) is
        # [t^n] f(g_<n) + f_1 a, which must vanish
        g = sum(c * t**i for i, c in enumerate(g_coeffs))
        composed = sympy.expand(f.subs(t, g))
        g_coeffs.append(-composed.coeff(t, n) / f1)
    return PowerSeries(
        tuple(Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, g_coeffs))
    )


class TestPowerSeries:
    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries((Fraction(1),))
        with pytest.raises(ValueError):
            PowerSeries(())

    def test_order_and_coefficients(self):
        s = PowerSeries((Fraction(0), Fraction(-1), Fraction(4)))
        assert s.order == 2
        assert s.coefficient(2) == 4
        with pytest.raises(ValueError):
            s.coefficient(3)

    def test_truncate(self):
        s = PowerSeries((Fraction(0), Fraction(1), Fraction(2), Fraction(3)))
        assert s.truncate(2).coefficients == (0, 1, 2)
        with pytest.raises(ValueError):
            s.truncate(5)

    def test_identity_series(self):
        assert identity_series(3).coefficients == (0, 1, 0, 0)
        with pytest.raises(ValueError):
            identity_series(0)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            PowerSeries((0, 0.5))


class TestDimSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            DimSeries(())
        with pytest.raises(ValueError):
            DimSeries((2, 4))
        with pytest.raises(ValueError):
            DimSeries((1, -1))

    def test_accessors(self):
        d = DimSeries((1, 4, 16))
        assert d.max_weight == 3
        assert d.dim(2) == 4
        with pytest.raises(ValueError):
            d.dim(4)

    def test_signed_series_goldens(self):
        assert signed_series(DimSeries((1, 1, 1, 1))).coefficients == (
            0,
            -1,
            1,
            -1,
            1,
        )
        assert signed_series(DimSeries((1, 4, 16, 64))).coefficients == (
            0,
            -1,
            4,
            -16,
            64,
        )
        assert signed_series(DimSeries((1, 2, 5, 14))).coefficients == (
            0,
            -1,
            2,
            -5,
            14,
        )


class TestCompose:
    def test_identity_on_the_right(self):
        f = PowerSeries((Fraction(0), Fraction(-1), Fraction(4), Fraction(-16)))
        assert compose(f, identity_series(3)) == f

    def test_identity_on_the_left(self):
        f = PowerSeries((Fraction(0), Fraction(-1), Fraction(4), Fraction(-16)))
        assert compose(identity_series(3), f) == f

    def test_alternating_geometric_is_self_inverse(self):
        n = 8
        f = PowerSeries(
            tuple(Fraction((-1) ** k if k else 0) for k in range(n + 1))
        )
        assert compose(f, f) == identity_series(n)

    def test_geometric_pair_inverse(self):
        n = 7
        forward = PowerSeries(
            tuple(Fraction(4 ** (k - 1) if k else 0) for k in range(n + 1))
        )
        backward = PowerSeries(
            tuple(Fraction((-4) ** (k - 1) if k else 0) for k in range(n + 1))
        )
        assert compose(forward, backward) == identity_series(n)
        assert compose(backward, forward) == identity_series(n)

    @given(
        st.lists(
            st.integers(min_value=-3, max_value=3), min_size=3, max_size=5
        ),
        st.sampled_from((1, -1)),
    )
    @settings(deadline=None, max_examples=20)
    def test_inverse_against_sympy_oracle(self, tail, lead):
        coeffs = [Fraction(0), Fraction(lead)] + [Fraction(c) for c in tail]
        order = len(coeffs) - 1
        f = PowerSeries(tuple(coeffs))
        inv = sympy_inverse(coeffs, order)
        assert compose(f, inv, order) == identity_series(order)
        assert compose(inv, f, order) == identity_series(order)

    def test_order_validation(self):
        f = identity_series(3)
        with pytest.raises(ValueError):
            compose(f, f, 0)


@st.composite
def small_presentations(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    ambient = 2 * k * k
    nvecs = draw(st.integers(min_value=0, max_value=3))
    vecs = [
        [
            Fraction(draw(st.integers(min_value=-2, max_value=2)))
            for _ in range(ambient)
        ]
        for _ in range(nvecs)
    ]
    return Presentation(GeneratorSet(tuple("ab"[:k])), span(vecs, ambient))


class TestDefect:
    def test_one_operation_self_defect_vanishes(self):
        d = dim_series(builtin("As"), 6)
        assert gk_defect(d, d, 6).is_zero

    def test_dual_pair_defect_vanishes(self):
        dend = dim_series(builtin("Dend"), 4)
        dias = dim_series(builtin("Dias"), 4)
        assert dend.dims == (1, 2, 5, 14)
        assert dias.dims == (1, 2, 3, 4)
        assert gk_defect(dend, dias, 4).is_zero
        assert gk_defect(dias, dend, 4).is_zero

    @given(small_presentations())
    @settings(deadline=None, max_examples=20)
    def test_any_dual_pair_defect_vanishes_to_weight_three(self, p):
        dims = dim_series(p, 3)
        dual_dims = dim_series(dual(p), 3)
        assert gk_defect(dims, dual_dims, 3).is_zero

    def test_even_degrees_cannot_discriminate(self):
        # the degree-4 equation cancels the weight-4 dimension entirely,
        # so the defect vanishes for every value of it
        for d4 in (56, 58, 64, 100):
            dims = DimSeries((1, 4, 16, d4))
            assert gk_defect(dims, dims, 4).is_zero

    def test_self_dual_pair_defect_on_computed_dims(self):
        for name in ("Xplus", "Xminus"):
            d = dim_series(builtin(name), 4)
            assert gk_defect(d, d, 4).is_zero

    def test_collapsing_self_pair_first_fails_at_degree_five(self):
        # for f = -t + t^2 - t^3 the composite f(f) is t + 4*t^5 by
        # direct expansion, so the defect stays blind through degree 4
        # and surfaces at 5
        dims = DimSeries((1, 1, 1, 0, 0))
        defect = gk_defect(dims, dims, 5)
        assert [defect.coefficient(n) for n in range(1, 6)] == [0, 0, 0, 0, 4]

    def test_order_beyond_series_rejected(self):
        d = DimSeries((1, 2))
        with pytest.raises(ValueError):
            gk_defect(d, d, 3)

    def test_order_below_one_rejected(self):
        d = DimSeries((1, 2))
        for order in (0, -1):
            with pytest.raises(ValueError):
                gk_defect(d, d, order)

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=7),
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=7),
    )
    @settings(deadline=None, max_examples=40)
    def test_integer_defect_matches_fraction_composition(self, p_tail, d_tail):
        # gk_defect composes the integer coefficient lists; the oracle is
        # compose on the signed PowerSeries, minus t; every integral value is an int
        p_dims = DimSeries((1,) + tuple(p_tail))
        dual_dims = DimSeries((1,) + tuple(d_tail))
        order = min(p_dims.max_weight, dual_dims.max_weight)
        composed = compose(signed_series(dual_dims), signed_series(p_dims), order)
        expected = list(composed.coefficients)
        expected[1] -= 1
        defect = gk_defect(p_dims, dual_dims, order)
        assert defect == PowerSeries(tuple(expected))
        assert all(type(c) is int for c in defect.coefficients)


class TestPredictedDims:
    def test_unit_case(self):
        assert predicted_dims(1, 6).dims == (1, 1, 1, 1, 1, 1)

    def test_conjectured_sixteen_series(self):
        pred = predicted_dims(4, 5)
        assert pred.ok
        assert pred.dims == (1, 4, 16, 64, 256)

    def test_doubling_case(self):
        assert predicted_dims(2, 6).dims == (1, 2, 4, 8, 16, 32)

    def test_tripling_case(self):
        assert predicted_dims(3, 5).dims == (1, 3, 9, 27, 81)

    @pytest.mark.parametrize("x2", (1, 2, 3, 4))
    def test_prediction_feeds_back_to_zero_defect(self, x2):
        pred = predicted_dims(x2, 9)
        assert pred.ok
        d = pred.series()
        assert gk_defect(d, d, 9).is_zero

    def test_computed_sixteen_relation_dims_disagree_with_prediction(self):
        pred = predicted_dims(4, 4).dims
        assert pred == (1, 4, 16, 64)
        assert dim_series(builtin("Xplus"), 4).dims == (1, 4, 16, 58)
        assert dim_series(builtin("Xminus"), 4).dims == (1, 4, 16, 56)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            predicted_dims(0, 4)
        with pytest.raises(ValueError):
            predicted_dims(2, 0)

    def test_arguments_are_ints(self):
        # a float dimension used to come back as a solution, and a bool
        # counted as 1
        for x2, order in ((4.0, 2), (4.0, 5), (True, 3), (4, 5.0), (4, True)):
            with pytest.raises(TypeError, match="must be int"):
                predicted_dims(x2, order)

    def test_failure_wrapper(self):
        broken = DimPrediction((1, 2), failure="stuck")
        assert not broken.ok
        with pytest.raises(ValueError):
            broken.series()


class TestDimSeriesFromPresentation:
    def test_bar_product_series(self):
        assert dim_series(builtin("Dias"), 5).dims == (1, 2, 3, 4, 5)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            dim_series(builtin("As"), 0)
