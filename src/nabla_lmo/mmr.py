"""Pipelines between the Conway-normalized polynomial and even-wheel data.

The weight system of the previous module collapses the universal invariant
of a 0-framed knot onto the series

    c(h) * nabla(t)|_{t^(1/2) = e^(h/2)},   c(h) = h / (e^(h/2) - e^(-h/2)),

whose logarithm is captured by even wheel coefficients. For the closed
manifold obtained by 0-surgery inside a rational homology sphere with
|H1| = r, passing to the surgery-normalized invariant multiplies degree-2n
data by r^(2n). Both directions of this translation are implemented; the
inverse direction recognizes the wheel data of a polynomial and recovers it.
The unknot normalization (the wheels of c(h) alone) is a pure function of
the truncation order, so wheel data derives it from the order instead of
storing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .alexander import nabla_from_seifert
from .errors import DomainError
from .hseries import (
    DEFAULT_ORDER, HSeries, _z_over_h_series, c_series, series_to_z_poly, substitute_exp
)
from .laurent import ZPoly
from .seifert import SeifertMatrix
from .wheels import WheelSeries, rescale_degree, w_nabla, wheels_from_series


def mmr_series(
    v: SeifertMatrix, components: int = 1, order: int = DEFAULT_ORDER
) -> HSeries:
    """c(h) * nabla(t)|_{t^(1/2)=e^(h/2)} for the link with Seifert matrix V."""
    result = nabla_from_seifert(v, components)
    return c_series(order) * substitute_exp(result.polynomial, order)


def aarhus_wheels(v: SeifertMatrix, order: int = DEFAULT_ORDER) -> WheelSeries:
    """Wheel coefficients of the universal invariant of the 0-framed knot
    with Seifert matrix V, read off the series above."""
    return wheels_from_series(mmr_series(v, 1, order))


def nu_wheels(order: int = DEFAULT_ORDER) -> WheelSeries:
    """Wheel coefficients of the unknot normalization: a2 = 1/48,
    a4 = -1/5760, ..."""
    return wheels_from_series(c_series(order))


@dataclass(frozen=True)
class LmoWheelData:
    """Even-wheel data of the surgery-normalized invariant of a rank-one
    manifold: wheel coefficients of the knot part, the torsion order of first
    homology, and the truncation order. The unknot normalization that
    accompanies them is derived from the order, not stored."""

    knot_wheels: WheelSeries
    h1_order: int
    order: int

    @property
    def nu_wheels(self) -> WheelSeries:
        return nu_wheels(self.order)

    def __post_init__(self):
        if self.h1_order < 1:
            raise DomainError("h1_order must be a positive integer")
        if self.order < 0:
            raise DomainError("order must be non-negative")
        if any(k > self.order for k in self.knot_wheels.coefficients):
            raise DomainError("knot wheel indices exceed the truncation order")


def lmo_wheel_data(
    nabla_m: ZPoly, tor_order: int, order: int = DEFAULT_ORDER
) -> LmoWheelData:
    """Wheel data of the rank-one manifold with polynomial ``nabla_m`` and
    torsion order ``tor_order``.

    The polynomial must have prefactor exponent 0, constant term 1 (its
    value at t = 1) and z-degree <= order (z^d starts at h^d, so a higher
    term would be truncated away); the knot wheels are degree-rescaled by
    the torsion order to express the surgery-normalized invariant.
    """
    if tor_order < 1:
        raise DomainError("tor_order must be a positive integer")
    if nabla_m.prefactor_exponent != 0:
        raise DomainError("polynomial of a closed manifold has no z prefactor")
    if nabla_m.value_at_z_zero() != 1:
        raise DomainError(
            f"value at t = 1 is {nabla_m.value_at_z_zero()}, not 1; "
            "not the polynomial of a rank-one manifold"
        )
    if nabla_m.z_degree > order:
        raise DomainError(
            f"z-degree {nabla_m.z_degree} exceeds the truncation order {order}; "
            f"an order of at least {nabla_m.z_degree} is needed"
        )
    f = c_series(order) * substitute_exp(nabla_m.expand(), order)
    knot = rescale_degree(wheels_from_series(f), tor_order)
    return LmoWheelData(knot, tor_order, order)


def nabla_from_lmo_wheel_data(data: LmoWheelData, max_z_degree: int) -> ZPoly:
    """Inverse of ``lmo_wheel_data``: undo the degree rescaling, apply the
    weight system, strip the unknot normalization, and recognize the result
    as a polynomial in z^2.

    DomainError when the wheel data does not come from such a polynomial of
    z-degree <= max_z_degree (nonzero residual at the stored order).
    """
    w = rescale_degree(data.knot_wheels, Fraction(1, data.h1_order))
    f = w_nabla(w, data.order)
    g = f * _z_over_h_series(data.order)
    return series_to_z_poly(g, max_z_degree)
