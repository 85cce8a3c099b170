import random
import re
from fractions import Fraction

import pytest

from nabla_lmo.errors import DomainError
from nabla_lmo.gaussian import StrutPolynomial
from nabla_lmo.laurent import HalfLaurent
from nabla_lmo.wheels import WheelPolynomial, WheelSeries


def _half_laurent_key(rng):
    return rng.randint(-4, 4)


def _wheel_key(rng):
    return tuple(rng.choice((2, 4, 6)) for _ in range(rng.randint(0, 2)))


def _strut_key(rng):
    return tuple((rng.choice("ab"), rng.choice("ab")) for _ in range(rng.randint(0, 2)))


TYPES = {
    HalfLaurent: _half_laurent_key,
    WheelPolynomial: _wheel_key,
    StrutPolynomial: _strut_key,
}


def _random(cls, rng):
    key = TYPES[cls]
    n = rng.randint(0, 4)
    return cls({key(rng): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)})


@pytest.mark.parametrize("cls", list(TYPES), ids=lambda c: c.__name__)
def test_term_poly_ring_laws(cls):
    rng = random.Random(13)
    zero, one = cls.zero(), cls.zero() + 1
    others = [c for c in TYPES if c is not cls]
    for _ in range(10):
        p, q, r = (_random(cls, rng) for _ in range(3))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))

        assert p + zero == p == zero + p
        assert p * one == p == one * p
        assert (p * zero).is_zero and zero.is_zero and not one.is_zero
        assert (p + q) * r == p * r + q * r
        assert r * (p + q) == r * p + r * q

        const = one * c
        assert p + c == c + p == p + const
        assert p - c == p + (-const)
        assert c - p == const - p
        assert p * c == c * p == p * const
        assert p * 2 == p + p == 2 * p

        assert (p - p).is_zero and (p + (-p)).is_zero
        assert (p + q - q) == p

        for other_cls in others:
            other = other_cls.zero() + 1
            assert (p == other) is False and (p != other) is True
            with pytest.raises(TypeError):
                p + other
            with pytest.raises(TypeError):
                other + p
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(one)


def test_non_integer_keys_are_rejected():
    for make, key in (
        (lambda: HalfLaurent({Fraction(3, 2): 1}), "Fraction(3, 2)"),
        (lambda: WheelSeries({2.5: 1}), "2.5"),
        (lambda: WheelPolynomial({(4.9,): 1}), "4.9"),
    ):
        with pytest.raises(DomainError, match=re.escape(f"key {key} is not an integer")):
            make()
    # integral values of other types are integers
    assert HalfLaurent({Fraction(4): 1}) == HalfLaurent({4: 1})
    assert WheelSeries({Fraction(4): 1, 2.0: 3}) == WheelSeries({4: 1, 2: 3})
    assert WheelPolynomial({(Fraction(4), 2.0): 1}) == WheelPolynomial({(2, 4): 1})
