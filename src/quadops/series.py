"""Generating-series consequences of Koszul duality.

For a Koszul operad the signed generating functions of the component
dimensions of the operad and of its dual are compositional inverses:
f_dual(f(t)) = t. This module computes exact truncated compositions and
the defect series f_dual(f(t)) - t, whose vanishing is a
necessary condition for Koszulity. It is necessary only: the chain
complexes behind the criterion are not built here, so a zero defect
proves nothing, while a nonzero defect refutes Koszulity at the level of
dimension counts.

For a self-dual operad the functional equation constrains only the odd
degrees of the dim series; every even-degree coefficient cancels out of
its own equation. The predicted-dimension solver therefore fills even
degrees by geometric continuation (dims[n] = dims[2] * dims[n-1]), which
reproduces the series of every self-dual Koszul operad with one binary
generator scaled by dims[2], and solves each odd degree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import _Record, _scalar, _set
from .presentations import Presentation

__all__ = [
    "PowerSeries",
    "DimSeries",
    "DimPrediction",
    "identity_series",
    "signed_series",
    "compose",
    "gk_defect",
    "predicted_dims",
    "dim_series",
]

SERIES_LIMITATION_NOTE = (
    "necessary condition only: a zero defect is evidence, not a proof, "
    "of Koszulity; a nonzero defect refutes it"
)


class PowerSeries(_Record):
    """Truncated power series; index = degree, constant term always 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]) -> None:
        if not coefficients:
            raise ValueError("a truncated series stores at least degree 0")
        if coefficients[0] != 0:
            raise ValueError("series must have no constant term")
        _set(self, "coefficients", tuple(_scalar(c) for c in coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, degree: int) -> Fraction:
        if not 0 <= degree <= self.order:
            raise ValueError(f"degree {degree} beyond truncation {self.order}")
        return self.coefficients[degree]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def truncate(self, order: int) -> PowerSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return PowerSeries(self.coefficients[: order + 1])


def identity_series(order: int) -> PowerSeries:
    """The series t, truncated."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return PowerSeries((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))


class DimSeries(_Record):
    """Component dimensions by weight: dims[0] is the weight-1 dimension."""

    __slots__ = ("dims",)

    def __init__(self, dims: tuple[int, ...]) -> None:
        if not dims:
            raise ValueError("a dim series covers at least weight 1")
        if any(not isinstance(d, int) or d < 0 for d in dims):
            raise ValueError("dimensions are nonnegative integers")
        if dims[0] != 1:
            raise ValueError("the weight-1 component is always one-dimensional")
        _set(self, "dims", dims)

    @property
    def max_weight(self) -> int:
        return len(self.dims)

    def dim(self, weight: int) -> int:
        if not 1 <= weight <= self.max_weight:
            raise ValueError(f"weight {weight} outside 1..{self.max_weight}")
        return self.dims[weight - 1]


def _signed_coefficients(dims: Sequence[int]) -> list[int]:
    """Coefficients of sum over n of (-1)^n * dims[n] * t^n, degree 0 first."""
    return [0] + [-d if n % 2 else d for n, d in enumerate(dims, start=1)]


def signed_series(d: DimSeries) -> PowerSeries:
    """f(t) = sum over n of (-1)^n * dims[n] * t^n."""
    return PowerSeries(tuple(_signed_coefficients(d.dims)))


def _multiply_truncated(a: Sequence, b: Sequence, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x and i <= order:
            for j, y in enumerate(b):
                if i + j > order:
                    break
                if y:
                    out[i + j] += x * y
    return out


def _compose_coefficients(f: Sequence, g: Sequence, order: int) -> list:
    """Coefficients of f(g(t)) through degree ``order``.

    ``f`` and ``g`` are plain coefficient lists, degree 0 first, of ints or
    Fractions; ``g[0]`` is 0. Integer input gives integer output, so the
    dimension series never pass through ``Fraction``.
    """
    g = list(g[: order + 1])
    g += [0] * (order + 1 - len(g))
    # Horner in g: result = (...((f_N) g + f_{N-1}) g + ...) g
    acc = [0] * (order + 1)
    for n in range(min(len(f) - 1, order), 0, -1):
        acc[0] += f[n]
        acc = _multiply_truncated(acc, g, order)
    return acc


def compose(f: PowerSeries, g: PowerSeries, order: int | None = None) -> PowerSeries:
    """Truncated substitution f(g(t)).

    Well-defined on truncations because g has no constant term; the result
    order defaults to the smaller of the two inputs' orders.
    """
    if order is None:
        order = min(f.order, g.order)
    if order < 1:
        raise ValueError("order must be at least 1")
    return PowerSeries(
        tuple(_compose_coefficients(f.coefficients, g.coefficients, order))
    )


def gk_defect(p_dims: DimSeries, dual_dims: DimSeries, order: int) -> PowerSeries:
    """Defect f_dual(f_p(t)) - t, zero to the order iff the necessary
    dimension-count condition for Koszulity holds there."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > min(p_dims.max_weight, dual_dims.max_weight):
        raise ValueError("dim series too short for the requested order")
    coeffs = _compose_coefficients(
        _signed_coefficients(dual_dims.dims), _signed_coefficients(p_dims.dims), order
    )
    coeffs[1] -= 1
    return PowerSeries(tuple(coeffs))


class DimPrediction(_Record):
    """Solver outcome: the dims found, and why solving stopped if it did."""

    __slots__ = ("dims", "failure")

    def __init__(self, dims: tuple[int, ...], failure: str | None = None) -> None:
        _set(self, "dims", dims)
        _set(self, "failure", failure)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def series(self) -> DimSeries:
        if not self.ok:
            raise ValueError(f"no consistent dim series: {self.failure}")
        return DimSeries(self.dims)


def predicted_dims(x2: int, order: int) -> DimPrediction:
    """Dim series making the self-dual defect vanish through the order.

    Starts from dims (1, x2). Odd-degree coefficients are forced linearly
    by the functional equation; even-degree ones cancel out of it, so they
    are fixed by geometric continuation (see the module docstring). A
    solution step landing outside the nonnegative integers is reported in
    the ``failure`` field rather than raised.
    """
    if x2 < 1:
        raise ValueError("the weight-2 dimension is at least 1")
    if order < 1:
        raise ValueError("order must be at least 1")
    dims = [1]
    for n in range(2, order + 1):
        if n % 2 == 0:
            dims.append(x2 * dims[-1])
            continue
        # with the new coefficient set to zero, the degree-n defect is
        # linear in it: defect(c) = base + c * ((-1)^n - 1) = base - 2c,
        # so c_n = base/2 and the dimension is (-1)^n c_n = -base/2
        f = _signed_coefficients(dims + [0])
        base = _compose_coefficients(f, f, n)[n]
        value = Fraction(-base, 2)
        if value.denominator != 1:
            return DimPrediction(
                tuple(dims), f"weight {n} needs a fractional dimension {value}"
            )
        if value < 0:
            return DimPrediction(
                tuple(dims), f"weight {n} would need negative dimension {value}"
            )
        dims.append(int(value))
    return DimPrediction(tuple(dims))


def dim_series(p: Presentation, max_weight: int) -> DimSeries:
    """Component dimensions of a presentation, weights 1 through max_weight."""
    from .expansion import component_dim

    if max_weight < 1:
        raise ValueError("max weight must be at least 1")
    return DimSeries(
        tuple(component_dim(p, n) for n in range(1, max_weight + 1))
    )
