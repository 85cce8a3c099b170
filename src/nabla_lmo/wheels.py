"""Even wheels and the weight system sending the 2n-wheel to -2*h^(2n).

A wheel of even size 2n is written w2n. WheelSeries is an exponential
element exp(sum a_2n * w2n) stored by its exponent coefficients; odd wheels
do not exist here by construction, so the vanishing of odd terms is enforced
at the type level. WheelPolynomial is a polynomial in commuting wheels;
``w_nabla`` maps it monomial by monomial, and a monomial whose total degree
(the sum of its wheel sizes) exceeds the order maps to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence, Union

from . import _terms
from .errors import DomainError
from .hseries import HSeries, exp_form_exp, exp_form_log

Scalar = Union[int, Fraction]
WheelTerm = tuple[int, ...]


def _check_index(index: int) -> int:
    index = _terms.int_key(index)
    if index < 2 or index % 2 != 0:
        raise DomainError(f"wheel size must be a positive even integer, got {index}")
    return index


def _wheel_term(term) -> WheelTerm:
    return tuple(sorted(_check_index(k) for k in term))


class WheelSeries:
    """exp(sum a_2n * w2n), stored by the exponent coefficients a_2n."""

    __slots__ = ("_a",)

    def __init__(self, coefficients: Mapping[int, Scalar] | None = None):
        self._a = _terms.normalize(coefficients, _check_index) if coefficients else {}

    @property
    def coefficients(self) -> dict[int, Fraction]:
        return dict(sorted(self._a.items()))

    def coefficient(self, index: int) -> Fraction:
        return self._a.get(index, Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WheelSeries):
            return NotImplemented
        return self._a == other._a

    __hash__ = None

    def __str__(self) -> str:
        body = _terms.signed_sum(((c, f"w{k}") for k, c in sorted(self._a.items())), sep=" ")
        return f"exp( {body} )"

    def __repr__(self) -> str:
        return f"WheelSeries({self.coefficients!r})"


class WheelPolynomial(_terms.TermPoly):
    """A polynomial in commuting even wheels, keyed by the sorted wheel sizes."""

    __slots__ = ()
    _key = staticmethod(_wheel_term)
    _combine = staticmethod(_terms.sorted_union)
    _unit = ()


def wheels_of_log(ell: Sequence[Fraction]) -> list[Fraction]:
    """a_2m = -ell[m] / (2 (2m)!): the wheel coefficients whose image
    exp(sum -2 a_2m h^(2m)) has the exponential-form log
    sum_m ell[m] h^(2m)/(2m)!."""
    return [-x / (2 * factorial(2 * m)) for m, x in enumerate(ell)]


def log_of_wheels(a: Sequence[Fraction]) -> list[Fraction]:
    """Inverse of ``wheels_of_log``: -2 (2m)! a[m]."""
    return [-2 * factorial(2 * m) * x for m, x in enumerate(a)]


def w_nabla(w: Union[WheelSeries, WheelPolynomial], order: int) -> HSeries:
    """The multiplicative weight system w2n -> -2*h^(2n), as an h-series.

    On a WheelSeries the image is exp(sum a_2n * (-2 h^(2n))), taken in
    exponential form; on a WheelPolynomial each monomial maps to the product
    of its wheel images.
    """
    if isinstance(w, WheelSeries):
        f = exp_form_exp(log_of_wheels([w.coefficient(n) for n in range(0, order + 1, 2)]))
        return HSeries(
            [0 if n % 2 else f[n // 2] / factorial(n) for n in range(order + 1)], order
        )
    if isinstance(w, WheelPolynomial):
        cs = [Fraction(0)] * (order + 1)
        for term, c in w.items():
            deg = sum(term)
            if deg <= order:
                cs[deg] += c * Fraction(-2) ** len(term)
        return HSeries(cs, order)
    raise TypeError(f"expected WheelSeries or WheelPolynomial, got {type(w).__name__}")


def wheels_from_series(f: HSeries) -> WheelSeries:
    """Invert w_nabla on exponentials: a_2n = -(1/2) * [h^(2n)] log f.

    DomainError when f has constant term != 1 or log f has odd-order terms
    (which no wheel series can produce). Below the lowest odd term of f,
    f and log f are even, so that term is also the lowest odd term of log f.
    """
    if f.coeff(0) != 1:
        raise DomainError("series must have constant term 1")
    odd = next((m for m in range(1, f.order + 1, 2) if f.coeff(m) != 0), None)
    if odd is not None:
        raise DomainError(
            f"log of the series has a nonzero term at odd order {odd}; "
            "no even wheel series maps onto it"
        )
    ell = exp_form_log([f.coeff(n) * factorial(n) for n in range(0, f.order + 1, 2)])
    return WheelSeries({2 * m: a for m, a in enumerate(wheels_of_log(ell)) if m})


def rescale_degree(w: WheelSeries, r: Scalar) -> WheelSeries:
    """Multiply degree-2n data by r^(2n); used to pass between normalizations
    that differ by powers of the homology order per degree."""
    r = Fraction(r)
    if r <= 0:
        raise DomainError("rescale factor must be positive")
    return WheelSeries({k: a * r ** k for k, a in w.coefficients.items()})
