"""Truncated rational power series in the formal variable h, and the exact
change of variables z = e^(h/2) - e^(-h/2) = 2 sinh(h/2) between them and
polynomials in z^2.

A series carries its own truncation order D and stores the dense coefficient
vector c_0..c_D. Logs, exps and the normalization series run on integers,
through three identities:

- **Central factorial numbers.** In exponential form (coefficients of
  h^n / n!), (z^2)^k = (2k)! * sum_m T(2m,2k) h^(2m) / (2m)!, where T is the
  triangle of central factorial numbers of the second kind,
  T(2m,2k) = T(2m-2,2k-2) + k^2 T(2m-2,2k), T(0,0) = 1. Its inverse is the
  triangle of the first kind, t(2k,2m) = t(2k-2,2m-2) - (k-1)^2 t(2k-2,2m),
  t(0,0) = 1 (Butzer-Schmidt-Stark-Vogt 1989; Riordan 1968). So the
  exponential-form coefficients G_2m of sum_k b_k z^(2k) and the b_k
  determine each other by one triangular sum each way.
- **Logs and exps in exponential form.** If F = sum F_n h^n / n! with F_0 = 1
  and L = log F = sum l_n h^n / n!, then F' = L' F gives
  F_n = sum_(1<=k<=n) C(n-1,k-1) l_k F_(n-k), which solves for l_n (log) or
  for F_n (exp) with integer binomials only. Scaling index 2m by S_m, with
  S_j S_(m-j) | S_m (``_power_scales``), keeps the recurrence in Python
  ints. ``exp_form_log`` and ``exp_form_exp`` are the package's only log
  and exp of series.
- **c(h) is Bernoulli.** h / (2 sinh(h/2)) = sum (2 - 4^n) B_2n h^(2n) /
  (4^n (2n)!), and ``even_bernoulli`` gets the B_2n from the tangent numbers
  (Brent-Harvey, arXiv:1108.0286), so ``c_series`` is a closed form.

``z_poly_log`` and ``z_poly_exp`` put the first two together: a polynomial
in z^2 to the exponential-form log of its series in h, and back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Sequence, Union

from . import _terms
from .errors import DomainError
from .laurent import HalfLaurent, ZPoly

Scalar = Union[int, Fraction]

#: Truncation order used when none is requested explicitly.
DEFAULT_ORDER = 16

#: Largest truncation order the command line and the wheel data reader
#: accept, and so the largest z exponent an expression may carry (a z-degree
#: above the order is rejected anyway). On a 2-vCPU Xeon host with Python
#: 3.11, at order 256 and first call included: ``lmo_wheel_data`` and
#: ``nabla_from_lmo_wheel_data`` take 0.02-0.05 s, ``wheels_from_series``
#: 0.02 s on a degree-8 series and 0.1 s on a dense one with unrelated
#: denominators, and ``mmr_series`` 0.016 s on the trefoil and 0.03 s at
#: genus 3 (it multiplies c(h) only into the constant term of nabla).
MAX_ORDER = 256


class HSeries:
    """A power series in h truncated at a fixed order: its coefficient
    vector. The kernels below compute on coefficient lists, so it has no
    arithmetic."""

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        return self._order == other._order and self._c == other._c

    __hash__ = None

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


def _tangent_numbers(count: int) -> list[int]:
    """T_1..T_count with tan x = sum T_n x^(2n-1) / (2n-1)! (index 0 holds 0),
    by the in-place integer recurrence of Brent and Harvey."""
    t = [0] * (count + 1)
    if count >= 1:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


@lru_cache(maxsize=MAX_ORDER + 1)
def even_bernoulli(top: int) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_(2 top) from the tangent numbers:
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    t = _tangent_numbers(top)
    return (Fraction(1),) + tuple(
        Fraction(2 * n * (t[n] if n % 2 else -t[n]), 4 ** n * (4 ** n - 1))
        for n in range(1, top + 1)
    )


def c_series(order: int = DEFAULT_ORDER) -> HSeries:
    """The series of h / (e^(h/2) - e^(-h/2)) in closed form,
    sum_(m even) (2 - 2^m) B_m h^m / (2^m m!) = 1 - h^2/24 + 7h^4/5760 - ...
    """
    b = even_bernoulli(order // 2)
    return HSeries(
        [0 if m % 2 else (2 - 2 ** m) * b[m // 2] / (2 ** m * factorial(m))
         for m in range(order + 1)],
        order,
    )


def substitute_exp(p: HalfLaurent, order: int = DEFAULT_ORDER) -> HSeries:
    """Substitute t^(1/2) = e^(h/2) into a Laurent polynomial, truncated:
    [h^m] = sum_k c_k (k/2)^m / m! over the terms c_k t^(k/2).

    This is a ring homomorphism up to the truncation order.
    """
    terms = [(Fraction(k, 2), c) for k, c in p.items()]
    return HSeries(
        [sum((c * a ** m for a, c in terms), Fraction(0)) / factorial(m)
         for m in range(order + 1)],
        order,
    )


@lru_cache(maxsize=MAX_ORDER + 1)
def _cf_second_kind(m: int) -> tuple[int, ...]:
    """Row m of the second-kind central factorial triangle: T(2m,2k) for
    k = 0..m."""
    if m == 0:
        return (1,)
    prev = _cf_second_kind(m - 1) + (0,)
    return (0,) + tuple(prev[k - 1] + k * k * prev[k] for k in range(1, m + 1))


@lru_cache(maxsize=MAX_ORDER + 1)
def _cf_first_kind(k: int) -> tuple[int, ...]:
    """Row k of the first-kind central factorial triangle: t(2k,2m) for
    m = 0..k."""
    if k == 0:
        return (1,)
    prev = _cf_first_kind(k - 1) + (0,)
    sq = (k - 1) ** 2
    return (0,) + tuple(prev[m - 1] - sq * prev[m] for m in range(1, k + 1))


def _exp_form_from_z(b: Sequence[Scalar], top: int) -> list[Fraction]:
    """G_2m = [h^(2m)/(2m)!] of sum_k b_k z^(2k) for m = 0..top: the b_k times
    (2k)!, cleared of their common denominator, through the second-kind row."""
    b = [Fraction(c) for c in b[: top + 1]]
    den = lcm(*(c.denominator for c in b))
    scaled = [c.numerator * (den // c.denominator) * factorial(2 * k) for k, c in enumerate(b)]
    return [
        Fraction(sum(t * c for t, c in zip(_cf_second_kind(m), scaled)), den)
        for m in range(top + 1)
    ]


def _z_from_exp_form(gamma: Sequence[int], scales: Sequence[int]) -> list[Fraction]:
    """b_k of sum_k b_k z^(2k) = sum_m G_2m h^(2m)/(2m)!, given
    gamma[m] = G_2m * scales[m] with each scale dividing the next, for
    k = 0..len(gamma)-1. The sum over the first-kind row is brought to the
    denominator scales[k] by Horner's rule in the ratios of the scales."""
    steps = [1] + [b // a for a, b in zip(scales, scales[1:])]
    out = []
    for k in range(len(gamma)):
        acc = 0
        for t, g, step in zip(_cf_first_kind(k), gamma, steps):
            acc = acc * step + t * g
        out.append(Fraction(acc, scales[k] * factorial(2 * k)))
    return out


@lru_cache(maxsize=MAX_ORDER + 1)
def _odd_binomials(m: int) -> tuple[int, ...]:
    """C(2m-1, 2j-1) for j = 0..m (0 at j = 0): F' = L' F on even series
    in exponential form."""
    return (0,) + tuple(comb(2 * m - 1, 2 * j - 1) for j in range(1, m + 1))


def _weights(scales: Sequence[int], m: int) -> list[int]:
    """The row C(2m-1, 2j-1) * scales[m] / (scales[j] * scales[m-j])."""
    s_m = scales[m]
    return [c * (s_m // (scales[j] * scales[m - j])) for j, c in enumerate(_odd_binomials(m))]


def _even_log(f: Sequence[int], scales: Sequence[int]) -> list[int]:
    """log of sum_m F_2m h^(2m)/(2m)! (F_0 = 1) in the same form, on
    f[m] = F_2m * scales[m]: returns l_2m * scales[m] (index 0 holds 0).
    The scales must satisfy scales[j] * scales[m-j] | scales[m]."""
    out = [0] * len(f)
    for m in range(1, len(f)):
        w = _weights(scales, m)
        out[m] = f[m] - sum(w[j] * out[j] * f[m - j] for j in range(1, m))
    return out


def _even_exp(lam: Sequence[int], scales: Sequence[int]) -> list[int]:
    """exp of sum_m l_2m h^(2m)/(2m)! in the same form, on
    lam[m] = l_2m * scales[m] (lam[0] is ignored): returns F_2m * scales[m],
    F_0 = 1. The scales must satisfy scales[j] * scales[m-j] | scales[m]."""
    out = [1] + [0] * (len(lam) - 1)
    for m in range(1, len(lam)):
        w = _weights(scales, m)
        out[m] = sum(w[j] * lam[j] * out[m - j] for j in range(1, m + 1))
    return out


def _power_scales(values: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """Scales S_m making every values[m] * S_m integral, with
    S_j * S_(m-j) | S_m, and those integers (values[0] must be an integer).

    S_m = prod_j u_j^floor(m/j), where u_m is the part of the denominator of
    values[m] that the earlier factors leave uncovered. A product of values
    whose indices sum to m has a denominator dividing S_m, and for unrelated
    denominators S_m is the least such scale; one common s^m would carry the
    index-m denominator into every later index m times over."""
    u = [1] * len(values)
    scales = [1]
    for m in range(1, len(values)):
        base = 1
        for j in range(1, m):
            if u[j] > 1:
                base *= u[j] ** (m // j)
        q = values[m].denominator
        u[m] = q // gcd(q, base)
        scales.append(base * u[m])
    return scales, [v.numerator * (s // v.denominator) for v, s in zip(values, scales)]


def exp_form_log(values: Sequence[Fraction]) -> list[Fraction]:
    """l_0 = 0, l_2, ...: the log of sum_m values[m] h^(2m)/(2m)!
    (values[0] = 1) as sum_m l_2m h^(2m)/(2m)!, by ``_even_log``."""
    scales, f = _power_scales(values)
    return [Fraction(x, s) for x, s in zip(_even_log(f, scales), scales)]


def exp_form_exp(ell: Sequence[Fraction]) -> list[Fraction]:
    """Inverse of ``exp_form_log``: F_0 = 1, F_2, ... with
    sum_m F_2m h^(2m)/(2m)! = exp(sum_m ell[m] h^(2m)/(2m)!) (ell[0] = 0)."""
    scales, lam = _power_scales(ell)
    return [Fraction(x, s) for x, s in zip(_even_exp(lam, scales), scales)]


def z_poly_log(b: Sequence[Scalar], top: int) -> list[Fraction]:
    """l_0 = 0, l_2, ..., l_(2 top): the logarithm of sum_k b_k z^(2k)
    (b_0 = 1) as the series sum_m l_2m h^(2m)/(2m)! in h."""
    return exp_form_log(_exp_form_from_z(b, top))


def z_poly_exp(ell: Sequence[Fraction], max_z_degree: int, order: int) -> ZPoly:
    """Inverse of ``z_poly_log``: the polynomial in z^2 whose log is
    sum_m ell[m] h^(2m)/(2m)! up to ``order`` (ell[0] = 0).
    DomainError when it has z-degree above ``max_z_degree``: the triangle is
    invertible, so a nonzero b_k above that degree is the residual at the
    order."""
    scales, lam = _power_scales(ell)
    b = _z_from_exp_form(_even_exp(lam, scales), scales)
    keep = max(max_z_degree // 2 + 1, 0)
    if any(b[keep:]):
        raise DomainError(
            f"series is not a polynomial in z^2 of z-degree <= {max_z_degree} "
            f"at order {order}"
        )
    return ZPoly(0, b[:keep])
