import random
from fractions import Fraction

import pytest

from oracles import divide_by_z
from nabla_lmo.errors import DomainError
from nabla_lmo.laurent import HalfLaurent, ZPoly, rewrite_in_z

Z = HalfLaurent({1: 1, -1: -1})  # z = t^(1/2) - t^(-1/2)


def t(k, c=1):
    return HalfLaurent({2 * k: c})


def test_monomial_product():
    half = HalfLaurent({1: 1})
    assert half * half == t(1)


def test_ring_ops():
    p = t(1) - 1 + t(-1)
    q = HalfLaurent({1: 1}) + 2
    assert p + q - q == p
    assert p * HalfLaurent.zero() == HalfLaurent.zero()
    assert p * HalfLaurent.constant(1) == p
    assert (p * q) * q == p * (q * q)
    assert 3 * p == p * 3


def test_involution_fixes_symmetric_polynomial():
    p = t(1) - 1 + t(-1)
    assert p.involution() == p


def test_involution_on_half_powers():
    half = HalfLaurent({1: 1})
    assert half.involution() == HalfLaurent({-1: -1})
    assert Z.involution() == Z


def test_involution_is_an_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = HalfLaurent(
            {rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(rng.randint(0, 5))}
        )
        assert p.involution().involution() == p
        q = HalfLaurent({rng.randint(-4, 4): rng.randint(-3, 3)})
        assert (p * q).involution() == p.involution() * q.involution()


def test_evaluate():
    p = t(1) - 1 + t(-1)
    assert p.evaluate(1) == 1
    assert p.evaluate(2) == Fraction(4) - 1 + Fraction(1, 4)
    with pytest.raises(DomainError):
        p.evaluate(0)
    assert (t(2) * 5).evaluate(0) == 0


def test_divide_by_z_oracle():
    assert divide_by_z([-1, 0, 1]) == [1]  # (t - 1) / z = t^(1/2)
    assert divide_by_z([1, 0, -2, 0, 1]) == [-1, 0, 1]  # z^2 / z = z
    with pytest.raises(DomainError):
        divide_by_z([1, 0, 1])  # t + 1
    with pytest.raises(DomainError):
        divide_by_z([3])


def test_rendering():
    assert str(t(1) - 1 + t(-1)) == "t^-1 - 1 + t"
    assert str(HalfLaurent({1: 1})) == "t^(1/2)"
    assert str(HalfLaurent({-3: 1})) == "t^(-3/2)"
    assert str(HalfLaurent.zero()) == "0"
    assert str(t(2, -3) + t(0, Fraction(1, 2))) == "1/2 - 3*t^2"
    assert str(-HalfLaurent.constant(1)) == "-1"


def test_rewrite_in_z_examples():
    assert rewrite_in_z(t(1) - 1 + t(-1), 0) == ZPoly(0, (1, 1))
    assert rewrite_in_z(HalfLaurent.constant(1), 0) == ZPoly(0, (1,))
    with pytest.raises(DomainError):
        rewrite_in_z(t(1) - t(-1), 0)


def test_rewrite_in_z_prefactor():
    assert rewrite_in_z(Z, 1) == ZPoly(1, (1,))
    assert rewrite_in_z(Z * Z * Z + Z, 1) == ZPoly(1, (1, 1))
    with pytest.raises(DomainError):
        rewrite_in_z(HalfLaurent.constant(1), 2)
    assert rewrite_in_z(HalfLaurent.zero(), 2) == ZPoly(2, ())


def test_rewrite_round_trip_on_symmetric_inputs():
    rng = random.Random(11)
    for _ in range(100):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
        p = ZPoly(0, coeffs).expand()
        assert p.involution() == p
        back = rewrite_in_z(p, 0)
        assert back.expand() == p


def test_zpoly_basics():
    p = ZPoly(1, (1, -2))
    assert p.z_degree == 3
    assert p.value_at_z_zero() == 0
    assert ZPoly(0, (5, 0, 1)).value_at_z_zero() == 5
    assert ZPoly(0, ()).is_zero
    assert ZPoly(3, ()) == ZPoly(0, ())
    assert p.expand() == Z - 2 * Z * Z * Z
    with pytest.raises(DomainError):
        ZPoly(-1, (1,))


def test_zpoly_semantic_equality():
    # z^2 * 1 and z^0 * (0 + 1*z^2) expand identically
    assert ZPoly(2, (1,)) == ZPoly(0, (0, 1))
    assert ZPoly(2, (1,)) != ZPoly(0, (1,))


def test_zpoly_rendering():
    assert str(ZPoly(0, (1, 1))) == "1 + z^2"
    assert str(ZPoly(0, (1, -3, 1))) == "1 - 3*z^2 + z^4"
    assert str(ZPoly(1, (1,))) == "z"
    assert str(ZPoly(1, (-1,))) == "-z"
    assert str(ZPoly(0, ())) == "0"
    assert str(ZPoly(0, (Fraction(1, 2),))) == "1/2"
