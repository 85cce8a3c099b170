"""Exact Laurent polynomials in t^(1/2) and their z-form.

Exponents count powers of t^(1/2) as plain integers, so t^k sits at exponent
2k and t^(1/2) at exponent 1; no fractional exponent arithmetic is needed.
Coefficients are `fractions.Fraction` throughout and nothing here ever
touches floating point. The variable z abbreviates t^(1/2) - t^(-1/2).

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import _terms
from .errors import DomainError

Scalar = Union[int, Fraction]


class HalfLaurent(_terms.TermPoly):
    """A finite Laurent polynomial in t^(1/2) with rational coefficients,
    keyed by the exponent in halves."""

    __slots__ = ()
    _key = staticmethod(_terms.int_key)
    _combine = staticmethod(operator.add)
    _unit = 0

    @classmethod
    def constant(cls, c: Scalar) -> "HalfLaurent":
        return cls({0: Fraction(c)})

    @property
    def support(self) -> tuple[int, ...]:
        """Exponents (in halves) carrying a nonzero coefficient, ascending."""
        return tuple(sorted(self._terms))

    def shift(self, half_exponent: int) -> "HalfLaurent":
        """Multiply by t^(half_exponent/2)."""
        return HalfLaurent._from_normalized(
            {k + half_exponent: v for k, v in self._terms.items()}
        )

    def involution(self) -> "HalfLaurent":
        """The substitution t^(1/2) -> -t^(-1/2), i.e. t^(k/2) -> (-1)^k t^(-k/2)."""
        return HalfLaurent._from_normalized(
            {-k: (v if k % 2 == 0 else -v) for k, v in self._terms.items()}
        )

    def evaluate(self, value: Scalar) -> Fraction:
        """Evaluate at t^(1/2) = value."""
        v = Fraction(value)
        if v == 0 and any(k < 0 for k in self._terms):
            raise DomainError("cannot evaluate negative exponents at 0")
        total = Fraction(0)
        for k, c in self._terms.items():
            total += c * v ** k
        return total

    def __str__(self) -> str:
        return _terms.signed_sum((c, _t_monomial(k)) for k, c in self.items())


def _t_monomial(half_exponent: int) -> str | None:
    if half_exponent == 0:
        return None
    if half_exponent % 2 == 0:
        k = half_exponent // 2
        return "t" if k == 1 else f"t^{k}"
    return f"t^({half_exponent}/2)"


def _z_power(n: int) -> dict[int, int]:
    """z^n = (t^(1/2) - t^(-1/2))^n by the binomial theorem: coefficient
    (-1)^j * C(n, j) at half-exponent n - 2j."""
    out = {}
    c = 1
    for j in range(n + 1):
        out[n - 2 * j] = -c if j % 2 else c
        c = c * (n - j) // (j + 1)
    return out


@dataclass(frozen=True)
class ZPoly:
    """z^s * (b_0 + b_1 z^2 + ... + b_m z^(2m)) with a fixed prefactor z^s.

    ``coeffs`` lists b_0..b_m; trailing zeros are stripped at construction,
    so the zero polynomial has empty coeffs. Equality is semantic: two values
    compare equal exactly when their expansions in t^(1/2) agree.
    """

    prefactor_exponent: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, prefactor_exponent: int, coeffs=()):
        if prefactor_exponent < 0:
            raise DomainError("prefactor exponent must be non-negative")
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "prefactor_exponent", int(prefactor_exponent))
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def z_degree(self) -> int:
        """Degree in z of the expansion; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return self.prefactor_exponent + 2 * (len(self.coeffs) - 1)

    def value_at_z_zero(self) -> Fraction:
        """The value at z = 0, i.e. at t = 1."""
        if self.prefactor_exponent > 0 or self.is_zero:
            return Fraction(0)
        return self.coeffs[0]

    def expand(self) -> HalfLaurent:
        """Expand back into a Laurent polynomial via z = t^(1/2) - t^(-1/2)."""
        out: dict[int, Fraction] = {}
        for k, b in enumerate(self.coeffs):
            if b != 0:
                for e, c in _z_power(self.prefactor_exponent + 2 * k).items():
                    out[e] = out.get(e, 0) + b * c
        return HalfLaurent(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZPoly):
            return NotImplemented
        if self.prefactor_exponent == other.prefactor_exponent:
            return self.coeffs == other.coeffs
        return self.expand() == other.expand()

    __hash__ = None

    def __str__(self) -> str:
        terms = []
        for k, b in enumerate(self.coeffs):
            if b != 0:
                e = self.prefactor_exponent + 2 * k
                terms.append((b, None if e == 0 else ("z" if e == 1 else f"z^{e}")))
        return _terms.signed_sum(terms)


def rewrite_in_z(p: HalfLaurent, prefactor_exponent: int) -> ZPoly:
    """Rewrite p as z^s * (polynomial in z^2), eliminating from the top.

    Each power z^n expands with leading coefficient 1 on t^(n/2), so the top
    term of the remainder determines one coefficient at a time; the remainder
    is one term dict, from which each z^n is subtracted in place. DomainError
    when p does not lie in z^s * Q[z^2].
    """
    s = int(prefactor_exponent)
    if s < 0:
        raise DomainError("prefactor exponent must be non-negative")
    if p.is_zero:
        return ZPoly(s, ())
    top = max(p.support)
    if top < s or (top - s) % 2 != 0:
        raise DomainError(f"polynomial does not lie in z^{s}*Q[z^2]")
    b = [Fraction(0)] * ((top - s) // 2 + 1)
    r = dict(p._terms)
    while r:
        m = max(r)
        if m < s or (m - s) % 2 != 0:
            raise DomainError(f"polynomial does not lie in z^{s}*Q[z^2]")
        c = r[m]
        b[(m - s) // 2] = c
        for e, binom in _z_power(m).items():
            r[e] = r.get(e, 0) - c * binom
            if r[e] == 0:
                del r[e]
    return ZPoly(s, b)
