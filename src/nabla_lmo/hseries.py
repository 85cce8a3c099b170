"""Truncated rational power series in the formal variable h.

A series carries its own truncation order D and stores the dense coefficient
vector c_0..c_D; arithmetic never claims precision beyond D, and mixed-order
operations truncate to the smaller order. Everything is exact Fraction
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from . import _terms
from .errors import DomainError
from .laurent import HalfLaurent, ZPoly

Scalar = Union[int, Fraction]

#: Truncation order used when none is requested explicitly.
DEFAULT_ORDER = 16

#: Largest truncation order the command line and the wheel data reader
#: accept, and so the largest z exponent an expression may carry (a z-degree
#: above the order is rejected anyway). Series work grows like order^2.5:
#: on a 2-vCPU Xeon host with Python 3.11, one ``lmo`` call takes about 1 s
#: at order 256 and 9 s at 512.
MAX_ORDER = 256


class HSeries:
    """A power series in h truncated at a fixed order."""

    __slots__ = ("_order", "_c")

    def __init__(self, coeffs: Sequence[Scalar], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is None:
            if not cs:
                raise DomainError("a series needs an order or at least one coefficient")
            order = len(cs) - 1
        if order < 0:
            raise DomainError("series order must be non-negative")
        cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self._order = order
        self._c = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "HSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "HSeries":
        return cls((Fraction(1),), order)

    @classmethod
    def constant(cls, c: Scalar, order: int) -> "HSeries":
        return cls((Fraction(c),), order)

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar, order: int) -> "HSeries":
        cs = [Fraction(0)] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = Fraction(coeff)
        return cls(cs, order)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    def coeff(self, m: int) -> Fraction:
        if m < 0 or m > self._order:
            raise DomainError(f"coefficient {m} is outside the truncation order {self._order}")
        return self._c[m]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self._c)

    def truncate(self, order: int) -> "HSeries":
        if order > self._order:
            raise DomainError("cannot extend a series beyond its stored order")
        return HSeries(self._c[: order + 1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        return self._order == other._order and self._c == other._c

    __hash__ = None

    def __neg__(self) -> "HSeries":
        return HSeries([-c for c in self._c], self._order)

    def __add__(self, other) -> "HSeries":
        other = _coerce(other, self._order)
        if other is None:
            return NotImplemented
        d = min(self._order, other._order)
        return HSeries([a + b for a, b in zip(self._c, other._c)], d)

    __radd__ = __add__

    def __sub__(self, other) -> "HSeries":
        other = _coerce(other, self._order)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "HSeries":
        other = _coerce(other, self._order)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "HSeries":
        if isinstance(other, (int, Fraction)):
            return HSeries([c * other for c in self._c], self._order)
        if not isinstance(other, HSeries):
            return NotImplemented
        d = min(self._order, other._order)
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(self._c[: d + 1]):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other._c[j]
                if b != 0:
                    out[i + j] += a * b
        return HSeries(out, d)

    __rmul__ = __mul__

    def reciprocal(self) -> "HSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self._c[0] == 0:
            raise DomainError("series with zero constant term has no reciprocal")
        d = self._order
        inv0 = 1 / self._c[0]
        out = [Fraction(0)] * (d + 1)
        out[0] = inv0
        for m in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if self._c[k] != 0:
                    acc += self._c[k] * out[m - k]
            out[m] = -inv0 * acc
        return HSeries(out, d)

    def exp(self) -> "HSeries":
        """Exponential; requires a zero constant term."""
        if self._c[0] != 0:
            raise DomainError("exp needs a zero constant term")
        d = self._order
        out = [Fraction(0)] * (d + 1)
        out[0] = Fraction(1)
        for m in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if self._c[k] != 0:
                    acc += k * self._c[k] * out[m - k]
            out[m] = acc / m
        return HSeries(out, d)

    def log(self) -> "HSeries":
        """Logarithm; requires constant term 1."""
        if self._c[0] != 1:
            raise DomainError("log needs constant term 1")
        d = self._order
        out = [Fraction(0)] * (d + 1)
        for m in range(1, d + 1):
            acc = Fraction(0)
            for k in range(1, m):
                if out[k] != 0 and self._c[m - k] != 0:
                    acc += k * out[k] * self._c[m - k]
            out[m] = self._c[m] - acc / m
        return HSeries(out, d)

    def scale_variable(self, r: Scalar) -> "HSeries":
        """Substitute h -> r*h."""
        r = Fraction(r)
        return HSeries([c * r ** m for m, c in enumerate(self._c)], self._order)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        body = _terms.signed_sum(
            (c, None if m == 0 else ("h" if m == 1 else f"h^{m}"))
            for m, c in enumerate(self._c)
            if c != 0
        )
        return f"{body} + O(h^{self._order + 1})"

    def __repr__(self) -> str:
        return f"HSeries({list(self._c)!r}, order={self._order})"


def _coerce(value, order: int) -> HSeries | None:
    if isinstance(value, HSeries):
        return value
    if isinstance(value, (int, Fraction)):
        return HSeries.constant(value, order)
    return None


def _z_over_h_series(order: int) -> HSeries:
    """The series of (e^(h/2) - e^(-h/2)) / h = sum_k h^(2k) / (4^k (2k+1)!)."""
    cs = [Fraction(0)] * (order + 1)
    for m in range(0, order + 1, 2):
        cs[m] = Fraction(1, 4 ** (m // 2) * factorial(m + 1))
    return HSeries(cs, order)


def c_series(order: int = DEFAULT_ORDER) -> HSeries:
    """The series of h / (e^(h/2) - e^(-h/2)): the reciprocal of the
    closed-form even series above, 1 - h^2/24 + 7h^4/5760 - ...
    """
    return _z_over_h_series(order).reciprocal()


def exp_series(a: Fraction, order: int) -> HSeries:
    """The series of e^(a*h)."""
    a = Fraction(a)
    return HSeries([a ** m / factorial(m) for m in range(order + 1)], order)


def substitute_exp(p: HalfLaurent, order: int = DEFAULT_ORDER) -> HSeries:
    """Substitute t^(1/2) = e^(h/2) into a Laurent polynomial, truncated.

    This is a ring homomorphism up to the truncation order.
    """
    out = HSeries.zero(order)
    for k, c in p.items():
        out = out + exp_series(Fraction(k, 2), order) * c
    return out


def z_squared_series(order: int = DEFAULT_ORDER) -> HSeries:
    """The series of z^2 = (e^(h/2) - e^(-h/2))^2 = 2*cosh(h) - 2."""
    cs = [Fraction(0)] * (order + 1)
    for m in range(2, order + 1, 2):
        cs[m] = Fraction(2, factorial(m))
    return HSeries(cs, order)


def series_to_z_poly(g: HSeries, max_z_degree: int) -> ZPoly:
    """Recognize an even series as a polynomial in z^2, up to the series order.

    Works from the bottom: the series of (z^2)^k starts at h^(2k) with
    coefficient 1, so coefficients are peeled off one by one. DomainError when
    odd-order terms are present or a nonzero residual remains.
    """
    if any(g.coeff(m) != 0 for m in range(1, g.order + 1, 2)):
        raise DomainError("series has odd-order terms; not a polynomial in z^2")
    kmax = min(max_z_degree // 2, g.order // 2)
    z2 = z_squared_series(g.order)
    power = HSeries.one(g.order)
    residual = g
    b = []
    for k in range(kmax + 1):
        bk = residual.coeff(2 * k)
        b.append(bk)
        if bk != 0:
            residual = residual - power * bk
        power = power * z2
    if not residual.is_zero:
        raise DomainError(
            f"series is not a polynomial in z^2 of z-degree <= {max_z_degree} "
            f"at order {g.order}"
        )
    return ZPoly(0, b)
