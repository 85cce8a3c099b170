"""Term dicts: the sparse polynomial ring shared by Laurent, wheel and strut
polynomials, and the printing of its coefficients.

A term dict maps a monomial key (a t^(1/2) exponent, a sorted tuple of
wheels or of struts) to a nonzero Fraction; the functions below take and
return normalized term dicts. ``TermPoly`` wraps one term dict and owns the
ring protocol (construction, equality, +, -, *, scalars on either side);
a subclass sets how keys are normalized and multiplied and which key is the
unit monomial, and adds only its own methods.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional

from .errors import DomainError


def drop_zeros(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


def int_key(k) -> int:
    """``k`` as an int; DomainError naming ``k`` when its value is not an integer."""
    try:
        if int(k) == k:
            return int(k)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"key {k!r} is not an integer")


def normalize(terms: Mapping, key: Callable[[Hashable], Hashable]) -> dict:
    """Fraction coefficients, equal keys summed, zeros dropped; ``key``
    normalizes the keys of nonzero terms only, so it never rejects a zero term."""
    out: dict = {}
    for k, v in terms.items():
        f = Fraction(v)
        if f != 0:
            k = key(k)
            out[k] = out[k] + f if k in out else f
    return drop_zeros(out)


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return drop_zeros(out)


def scale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items()} if c != 0 else {}


def sorted_union(t1: tuple, t2: tuple) -> tuple:
    """The product of two monomials stored as sorted tuples of factors."""
    return tuple(sorted(t1 + t2))


def mul(a: dict, b: dict, combine: Callable[[Hashable, Hashable], Hashable]) -> dict:
    """The product of two term dicts; ``combine`` multiplies two keys."""
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = combine(k1, k2)
            v = v1 * v2
            out[k] = out[k] + v if k in out else v
    return drop_zeros(out)


class TermPoly:
    """A polynomial with rational coefficients in commuting monomials.

    Set by each subclass: ``_key`` normalizes a monomial key (and rejects an
    invalid one), ``_combine`` multiplies two normalized keys, and ``_unit``
    is the key of the monomial 1. Values are immutable; a scalar (int or
    Fraction) on either side of +, - and * stands for that constant. Values
    of different subclasses neither compare equal nor combine.
    """

    __slots__ = ("_terms",)

    _key: Callable[[Hashable], Hashable]
    _combine: Callable[[Hashable, Hashable], Hashable]
    _unit: Hashable

    def __init__(self, terms: Optional[Mapping] = None):
        self._terms = normalize(terms, self._key) if terms else {}

    @classmethod
    def _from_normalized(cls, terms: dict):
        """Wrap a term dict that is already normalized."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._from_normalized({})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, key) -> Fraction:
        return self._terms.get(self._key(key), Fraction(0))

    def items(self) -> list:
        return sorted(self._terms.items())

    def _coerce(self, other) -> Optional["TermPoly"]:
        """``other`` as a value of this type; None when it is neither that
        type nor a scalar."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self._from_normalized({self._unit: Fraction(other)} if other else {})
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __neg__(self):
        return self._from_normalized(scale(self._terms, -1))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._from_normalized(add(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._from_normalized(scale(self._terms, other))
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._from_normalized(mul(self._terms, other._terms, self._combine))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


def text(x) -> str:
    """str(x) of an int or Fraction; DomainError, not ValueError, when x has
    more digits than Python converts to text."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(
            f"a number to print has more than {sys.get_int_max_str_digits()} digits, "
            "the most Python converts to text"
        ) from None


def signed_sum(terms: Iterable[tuple[Fraction, Optional[str]]], sep: str = "*") -> str:
    """``a - b + c`` from (coefficient, monomial text) pairs, "0" when empty;
    a term reads ``|c|<sep><monomial>``, the monomial alone when |c| = 1, and
    the number alone when the monomial is None."""
    parts = []
    for c, mono in terms:
        a = abs(c)
        body = text(a) if mono is None else mono if a == 1 else f"{text(a)}{sep}{mono}"
        if parts:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"
