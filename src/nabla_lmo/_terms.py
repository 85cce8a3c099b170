"""Term dicts: the arithmetic and printing shared by the sparse polynomials.

A term dict maps a monomial key (a t^(1/2) exponent, a sorted tuple of
wheels or of struts) to a nonzero Fraction. The polynomial classes keep
their operators in their own bodies and hand the loops to these functions,
which take and return normalized term dicts.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional

from .errors import DomainError


def drop_zeros(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


def normalize(terms: Mapping, key: Optional[Callable[[Hashable], Hashable]] = None) -> dict:
    """Fraction coefficients, equal keys summed, zeros dropped; ``key``
    normalizes the keys of nonzero terms only, so it never rejects a zero term."""
    out: dict = {}
    for k, v in terms.items():
        f = Fraction(v)
        if f != 0:
            if key is not None:
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
