import random
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    c_coeffs,
    log_coeffs,
    log_recurrence,
    mul_coeffs,
    w_nabla_by_exp,
    wheels_by_log,
)
from nabla_lmo.errors import DomainError
from nabla_lmo.hseries import HSeries, c_series
from nabla_lmo.wheels import (
    WheelPolynomial,
    WheelSeries,
    rescale_degree,
    w_nabla,
    wheels_from_series,
)


def test_odd_and_low_indices_rejected():
    with pytest.raises(DomainError):
        WheelSeries({3: 1})
    with pytest.raises(DomainError):
        WheelSeries({0: 1})
    with pytest.raises(DomainError):
        WheelPolynomial({(5,): 1})


def test_wheel_series_basics():
    w = WheelSeries({2: Fraction(1, 48), 4: 0})
    assert w.coefficients == {2: Fraction(1, 48)}
    assert w.coefficient(4) == 0
    assert w != WheelSeries()
    assert str(w) == "exp( 1/48 w2 )"
    assert str(WheelSeries()) == "exp( 0 )"
    assert str(WheelSeries({2: 1, 4: Fraction(-1, 5760)})) == "exp( w2 - 1/5760 w4 )"


def test_wheel_polynomial_ring():
    w2 = WheelPolynomial({(2,): 1})
    w4 = WheelPolynomial({(4,): 1})
    p = w2 * w2 + 2 * w4
    assert p.coeff((2, 2)) == 1
    assert p.coeff((4,)) == 2
    assert p.items() == [((2, 2), 1), ((4,), 2)]
    assert (p - p).is_zero
    assert (WheelPolynomial.zero() + 1).coeff(()) == 1


#: Orders at which the integer routes are checked against the Fraction oracles.
ORDERS = (0, 1, 2, 7, 16, 33, 64, 128, 256)


def single_wheel_image(a, order):
    """exp(-2a h^2) = sum_k (-2a)^k h^(2k) / k!, in closed form."""
    return HSeries(
        [0 if m % 2 else Fraction(-2 * a) ** (m // 2) / factorial(m // 2)
         for m in range(order + 1)],
        order,
    )


def test_w_nabla_on_single_wheel():
    w2 = WheelPolynomial({(2,): 1})
    assert w_nabla(w2, 4) == HSeries([0, 0, -2], 4)
    assert w_nabla(WheelPolynomial.zero() + 1, 4) == HSeries([1], 4)


def test_w_nabla_exponential_compatibility():
    a = Fraction(2, 7)
    series_side = w_nabla(WheelSeries({2: a}), 8)
    assert series_side == single_wheel_image(a, 8)
    # exp(a w2) up to degree 8: (a w2)^k / k! for k <= 4
    term = expansion = WheelPolynomial.zero() + 1
    for k in range(1, 5):
        term = term * WheelPolynomial({(2,): a}) * Fraction(1, k)
        expansion = expansion + term
    poly_side = w_nabla(expansion, 8)
    assert poly_side == series_side


def test_w_nabla_empty_series():
    assert w_nabla(WheelSeries(), 6) == HSeries([1], 6)


def test_wheels_from_series_examples():
    assert wheels_from_series(HSeries([1], 8)) == WheelSeries()
    f = single_wheel_image(1, 8)
    assert wheels_from_series(f) == WheelSeries({2: 1})
    nu = wheels_from_series(c_series(16))
    assert nu.coefficient(2) == Fraction(1, 48)
    assert nu.coefficient(4) == Fraction(-1, 5760)
    assert nu.coefficient(6) == Fraction(1, 362880)


def test_nu_wheels_against_log_oracle():
    order = 16
    logs = log_coeffs(c_coeffs(order), order)
    assert logs[2] == Fraction(-1, 24)
    assert logs[4] == Fraction(1, 2880)
    assert logs[6] == Fraction(-1, 181440)
    nu = wheels_from_series(c_series(order))
    for n in range(2, order + 1, 2):
        assert nu.coefficient(n) == -logs[n] / 2


def _sparse_degree_8(rng, order):
    """1 plus random terms at h^2..h^8 with small denominators."""
    cs = [Fraction(1)] + [Fraction(0)] * order
    for m in range(2, min(order, 8) + 1, 2):
        cs[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return cs


def test_wheels_from_series_and_w_nabla_match_the_oracles():
    rng = random.Random(73)
    for order in ORDERS:
        # exponential-form logs l_2m = m / (2m + 1): unrelated denominators
        w = WheelSeries({2 * m: Fraction(-m, 2 * (2 * m + 1) * factorial(2 * m))
                         for m in range(1, order // 2 + 1)})
        image = w_nabla(w, order)
        assert image.coeffs == tuple(w_nabla_by_exp(w, order)), order
        assert wheels_from_series(image) == wheels_by_log(image.coeffs) == w
        f = HSeries(_sparse_degree_8(rng, order), order)
        wheels = wheels_from_series(f)
        assert wheels == wheels_by_log(f.coeffs), order
        assert w_nabla(wheels, order) == f
        assert w_nabla(WheelSeries({2: 1, 2 * order + 2: 5}), order) == single_wheel_image(1, order)


def test_odd_term_index_matches_the_oracle_log():
    rng = random.Random(79)
    for order in ORDERS[3:]:
        for _ in range(3):
            cs = _sparse_degree_8(rng, order)
            odd = rng.randrange(1, order + 1, 2)
            cs[odd] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))
            logs = log_recurrence(cs)
            lowest = next(m for m in range(1, order + 1, 2) if logs[m] != 0)
            assert lowest == odd
            with pytest.raises(DomainError) as exc_info:
                wheels_from_series(HSeries(cs, order))
            assert str(exc_info.value) == (
                f"log of the series has a nonzero term at odd order {lowest}; "
                "no even wheel series maps onto it"
            )


def test_wheels_from_series_rejections():
    with pytest.raises(DomainError):
        wheels_from_series(HSeries([2, 0, 1]))  # constant term not 1
    with pytest.raises(DomainError):
        wheels_from_series(HSeries([1, 0, 0, 5]))  # odd term in the log


def test_round_trips():
    rng = random.Random(61)
    for _ in range(30):
        w = WheelSeries(
            {
                2 * k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for k in rng.sample(range(1, 9), rng.randint(0, 4))
            }
        )
        assert wheels_from_series(w_nabla(w, 16)) == w
    for _ in range(30):
        coeffs = [Fraction(1)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 5)) if m % 2 == 0 else Fraction(0)
            for m in range(1, 11)
        ]
        f = HSeries(coeffs)
        assert w_nabla(wheels_from_series(f), 10) == f


def test_homomorphism():
    rng = random.Random(67)
    for _ in range(40):
        u = WheelPolynomial.zero()
        v = WheelPolynomial.zero()
        for _ in range(rng.randint(1, 3)):
            u = u + WheelPolynomial({(rng.choice((2, 4)),): rng.randint(-3, 3)})
            v = v + WheelPolynomial({(rng.choice((2, 4, 6)),): rng.randint(-3, 3)})
        u = u + rng.randint(0, 2)
        product = mul_coeffs(w_nabla(u, 12).coeffs, w_nabla(v, 12).coeffs, 12)
        assert list(w_nabla(u * v, 12).coeffs) == product


def test_rescale_degree():
    w = WheelSeries({2: 1, 4: Fraction(1, 2)})
    assert rescale_degree(w, 1) == w
    assert rescale_degree(WheelSeries({2: 1}), 3) == WheelSeries({2: 9})
    assert rescale_degree(w, 3) == WheelSeries({2: 9, 4: Fraction(81, 2)})
    assert rescale_degree(rescale_degree(w, Fraction(5, 2)), Fraction(2, 5)) == w
    with pytest.raises(DomainError):
        rescale_degree(w, 0)
    with pytest.raises(DomainError):
        rescale_degree(w, Fraction(-1, 2))


def test_rescale_matches_variable_substitution():
    rng = random.Random(71)
    for _ in range(30):
        w = WheelSeries(
            {
                2 * k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for k in rng.sample(range(1, 8), rng.randint(0, 3))
            }
        )
        r = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        substituted = [c * r**m for m, c in enumerate(w_nabla(w, 14).coeffs)]
        assert list(w_nabla(rescale_degree(w, r), 14).coeffs) == substituted
