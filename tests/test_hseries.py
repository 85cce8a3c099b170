import random
from fractions import Fraction

import pytest

from oracles import (
    c_coeffs,
    cosh_minus_coeffs,
    exp_recurrence,
    invert_coeffs,
    log_recurrence,
    mul_coeffs,
)
from nabla_lmo.errors import DomainError
from nabla_lmo.hseries import (
    HSeries,
    c_series,
    substitute_exp,
)
from nabla_lmo.laurent import HalfLaurent, ZPoly


def test_construction_and_truncation():
    f = HSeries([1, 2, 3])
    assert f.order == 2
    assert f.coeffs == (1, 2, 3)
    assert f.coeff(2) == 3
    with pytest.raises(DomainError):
        f.coeff(3)


def test_reciprocal_geometric():
    inverse = invert_coeffs([Fraction(1), Fraction(1), 0, 0])  # 1 + h at order 3
    assert inverse == [1, -1, 1, -1]
    assert mul_coeffs([1, 1], inverse, 3) == [1, 0, 0, 0]
    with pytest.raises(ZeroDivisionError):
        invert_coeffs([0, 1])


def test_exp_log_inverse_pair():
    f = [0, 0, 1, 0, 0, 0, 0]
    assert log_recurrence(exp_recurrence(f)) == f
    g = [1, Fraction(1, 2), Fraction(-1, 3), 0, 1]
    assert exp_recurrence(log_recurrence(g)) == g
    e, e_inv = exp_recurrence([0, 1, 0, 0, 0, 0]), exp_recurrence([0, -1, 0, 0, 0, 0])
    assert mul_coeffs(e, e_inv, 5) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(DomainError):
        exp_recurrence([1, 1])
    with pytest.raises(DomainError):
        log_recurrence([0, 1])


def test_exp_against_factorials():
    e = exp_recurrence([0, 1, 0, 0, 0, 0])
    for m in range(6):
        assert e[m] == Fraction(1, [1, 1, 2, 6, 24, 120][m])


def test_c_series_frozen_values():
    c = c_series(4)
    assert c == HSeries([1, 0, Fraction(-1, 24), 0, Fraction(7, 5760)])
    assert c_series(0) == HSeries([1])
    full = c_series(16)
    assert all(full.coeff(m) == 0 for m in range(1, 17, 2))


def test_c_series_matches_inversion_oracle():
    for order in (0, 1, 2, 7, 16, 33, 64, 128, 256):
        assert c_series(order).coeffs == tuple(c_coeffs(order)), order
    with pytest.raises(DomainError):
        c_series(-1)


def test_substitute_exp_examples():
    assert substitute_exp(HalfLaurent({1: 1}), 2) == HSeries(
        [1, Fraction(1, 2), Fraction(1, 8)]
    )
    assert substitute_exp(HalfLaurent.constant(1), 5) == HSeries([1], 5)
    conway_trefoil = HalfLaurent({2: 1, 0: -1, -2: 1})
    assert substitute_exp(conway_trefoil, 4) == HSeries([1, 0, 1, 0, Fraction(1, 12)])


def test_substitute_exp_is_multiplicative():
    rng = random.Random(3)
    for _ in range(40):
        p = HalfLaurent({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(3)})
        q = HalfLaurent({rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(3)})
        order = rng.choice((0, 1, 5, 9))
        product = mul_coeffs(substitute_exp(p, order).coeffs, substitute_exp(q, order).coeffs, order)
        assert list(substitute_exp(p * q, order).coeffs) == product


def test_cosh_minus_coeffs():
    assert cosh_minus_coeffs(6) == [0, 0, 1, 0, Fraction(1, 12), 0, Fraction(1, 360)]
    assert HSeries(cosh_minus_coeffs(8), 8) == substitute_exp(ZPoly(0, (0, 1)).expand(), 8)


def test_rendering():
    assert str(c_series(4)) == "1 - 1/24*h^2 + 7/5760*h^4 + O(h^5)"
    assert str(HSeries([], 3)) == "0"
    assert str(HSeries([0, 1], order=1)) == "h + O(h^2)"
    assert str(HSeries([0, -1, 0, 2], order=3)) == "-h + 2*h^3 + O(h^4)"
