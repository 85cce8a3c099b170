"""Pipelines between the Conway-normalized polynomial and even-wheel data.

The weight system of the previous module collapses the universal invariant
of a 0-framed knot onto the series

    c(h) * nabla(t)|_{t^(1/2) = e^(h/2)},   c(h) = h / (e^(h/2) - e^(-h/2)),

whose logarithm is captured by even wheel coefficients. For the closed
manifold obtained by 0-surgery inside a rational homology sphere with
|H1| = r, passing to the surgery-normalized invariant multiplies degree-2n
data by r^(2n). Both directions of this translation are implemented; the
inverse direction recognizes the wheel data of a polynomial and recovers it.

``mmr_series`` needs no series product: c(h) = h / z, so c(h) meets only
the constant term of nabla, and the rest is h (nabla - nabla(0)) / z at
t^(1/2) = e^(h/2). ``lmo_wheel_data``, its inverse and ``aarhus_wheels``
work on integer tables, through three identities:

- **The unknot is Bernoulli.** The wheels of c(h) alone (the unknot
  normalization, a pure function of the truncation order) are
  nu_2n = B_2n / (4n (2n)!), the modified Bernoulli numbers of
  Bar-Natan-Garoufalidis-Rozansky-Thurston ("Wheels, wheeling, and the
  Kontsevich integral of the unknot", 2000), with B_2n from
  ``hseries.even_bernoulli``. Since the log of a product is a sum of logs,
  knot wheels are r^(2n) (nu_2n - l_2n / (2 (2n)!)), where l is the
  exponential-form log of nabla(z(h)) and the factor is
  ``wheels.wheels_of_log``.
- **z <-> h is the central factorial triangle**, and
- **logs and exps run in exponential form** on scaled integers; both are
  described in ``hseries``, whose ``z_poly_log`` and ``z_poly_exp`` do
  both. The inverse takes g = exp(-2 sum (a_2n / r^(2n) - nu_2n) h^(2n))
  and reads its polynomial in z^2 off the first-kind triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from . import _terms
from .alexander import nabla_from_seifert
from .errors import DomainError
from .hseries import (
    DEFAULT_ORDER,
    MAX_ORDER,
    HSeries,
    c_series,
    even_bernoulli,
    substitute_exp,
    z_poly_exp,
    z_poly_log,
)
from .laurent import ZPoly
from .seifert import SeifertMatrix
from .wheels import WheelSeries, log_of_wheels, wheels_of_log


#: Most decimal digits a torsion order may have: ``lmo --tor``,
#: ``roundtrip --tor`` and the ``"h1_order"`` of a wheel data file must be
#: below 10^MAX_TOR_DIGITS. Degree-2n data scales by r^(2n), so the cost
#: grows with the digits of r. On a 2-vCPU Xeon host with Python 3.11, at
#: order 256 and a 64-digit r, ``lmo --invert`` takes 4-5.5 s and
#: ``lmo --nabla`` 0.2-0.3 s (both end in exit 1, a number too long to
#: print); with no limit, a 200-digit ``"h1_order"`` took 30 s and a
#: 500-digit one over 60 s.
MAX_TOR_DIGITS = 64


@lru_cache(maxsize=MAX_ORDER + 1)
def _unknot(top: int) -> tuple[Fraction, ...]:
    """nu_0 = 0, nu_2, ..., nu_(2 top): nu_2n = B_2n / (4n (2n)!)."""
    b = even_bernoulli(top)
    return (Fraction(0),) + tuple(
        b[n] / (4 * n * factorial(2 * n)) for n in range(1, top + 1)
    )


def _knot_wheels(b: Sequence[Fraction], order: int, r: int) -> WheelSeries:
    """r^(2n) (nu_2n + a_2n) for 2n <= order, where nabla = sum b_k z^(2k)
    with b_0 = 1 and a_2n is the wheel of the exponential-form log of
    nabla(z(h))."""
    top = order // 2
    a = wheels_of_log(z_poly_log(b, top))
    nu = _unknot(top)
    return WheelSeries({2 * m: r ** (2 * m) * (nu[m] + a[m]) for m in range(1, top + 1)})


def mmr_series(
    v: SeifertMatrix, components: int = 1, order: int = DEFAULT_ORDER
) -> HSeries:
    """c(h) * nabla(t)|_{t^(1/2)=e^(h/2)} for the link with Seifert matrix V,
    as nabla(0) c(h) + h R(e^(h/2)) with R = (nabla - nabla(0)) / z."""
    z_form = nabla_from_seifert(v, components).z_form
    s, b = z_form.prefactor_exponent, z_form.coeffs
    if s:
        head, rest = 0, ZPoly(s - 1, b)
    else:
        head, rest = (b[0] if b else 0), ZPoly(1, b[1:])
    tail = [0, *substitute_exp(rest.expand(), order - 1).coeffs] if order else [0]
    return HSeries([head * c + x for c, x in zip(c_series(order).coeffs, tail)], order)


def aarhus_wheels(v: SeifertMatrix, order: int = DEFAULT_ORDER) -> WheelSeries:
    """Wheel coefficients of the universal invariant of the 0-framed knot
    with Seifert matrix V: the wheels of the series above, computed from
    nabla without building it. DomainError when nabla(1) != 1."""
    z_form = nabla_from_seifert(v, 1).z_form
    if z_form.value_at_z_zero() != 1:
        raise DomainError("series must have constant term 1")
    return _knot_wheels(z_form.coeffs, order, 1)


def nu_wheels(order: int = DEFAULT_ORDER) -> WheelSeries:
    """Wheel coefficients of the unknot normalization: a2 = 1/48,
    a4 = -1/5760, ..., a2n = B_2n / (4n (2n)!)."""
    nu = _unknot(order // 2)
    return WheelSeries({2 * n: nu[n] for n in range(1, len(nu))})


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
            f"value at t = 1 is {_terms.text(nabla_m.value_at_z_zero())}, not 1; "
            "not the polynomial of a rank-one manifold"
        )
    if nabla_m.z_degree > order:
        raise DomainError(
            f"z-degree {nabla_m.z_degree} exceeds the truncation order {order}; "
            f"an order of at least {nabla_m.z_degree} is needed"
        )
    return LmoWheelData(_knot_wheels(nabla_m.coeffs, order, tor_order), tor_order, order)


def nabla_from_lmo_wheel_data(data: LmoWheelData, max_z_degree: int) -> ZPoly:
    """Inverse of ``lmo_wheel_data``: undo the degree rescaling, strip the
    unknot normalization, exponentiate, and recognize the result as a
    polynomial in z^2.

    DomainError when the wheel data does not come from such a polynomial of
    z-degree <= max_z_degree (nonzero residual at the stored order).
    """
    top = data.order // 2
    nu = _unknot(top)
    r2 = data.h1_order ** 2
    a = [data.knot_wheels.coefficient(2 * m) / r2 ** m - nu[m] for m in range(top + 1)]
    return z_poly_exp(log_of_wheels(a), max_z_degree, data.order)
