"""The integer wheel translation (central factorial triangles, the Bernoulli
unknot, exponential-form logs and exps) against the Fraction-series routes
kept in oracles.py, and against frozen constants."""

import json
import random
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    cosh_minus_coeffs,
    lmo_knot_wheels_by_series,
    log_recurrence,
    mul_coeffs,
    nabla_from_wheel_data_by_series,
    nu_wheels_by_series,
)
from nabla_lmo.cli import main
from nabla_lmo.errors import DomainError
from nabla_lmo.hseries import (
    _cf_first_kind,
    _cf_second_kind,
    z_poly_exp,
    z_poly_log,
)
from nabla_lmo.laurent import ZPoly
from nabla_lmo.mmr import LmoWheelData, lmo_wheel_data, nabla_from_lmo_wheel_data, nu_wheels
from nabla_lmo.wheels import WheelSeries

#: (order, random polynomials drawn): dense at low orders, sparse above, so
#: the slow series oracles stay within the suite's time budget.
SAMPLES = ((0, 2), (1, 2), (2, 4), (7, 6), (16, 8), (33, 4), (64, 2), (128, 1), (256, 1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _random_nabla(rng, order):
    den = rng.choice((1, 2, 3, 7))
    tail = [Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(0, min(order // 2, 5)))]
    return ZPoly(0, [1] + tail)


def test_forward_and_inverse_match_the_series_route():
    rng = random.Random(2024)
    denominators = set()
    for order, count in SAMPLES:
        assert nu_wheels(order) == nu_wheels_by_series(order)
        for _ in range(count):
            p = _random_nabla(rng, order)
            tor = rng.randint(1, 7)
            denominators.update(c.denominator for c in p.coeffs)
            data = lmo_wheel_data(p, tor, order)
            assert data.knot_wheels == lmo_knot_wheels_by_series(p, tor, order), (order, str(p))
            degree = max(p.z_degree, 0)
            assert nabla_from_lmo_wheel_data(data, degree) == p
            # the inverse oracle takes a second at order 256: stop at 128
            limits = {degree, degree - 2, order} if order <= 64 else {degree - 2}
            for k in limits if order <= 128 else ():
                got = _outcome(nabla_from_lmo_wheel_data, data, k)
                assert got == _outcome(nabla_from_wheel_data_by_series, data, k), (order, k)
                assert (got == p) == (k >= degree)
    assert denominators == {1, 2, 3, 7}


def test_invert_rational_wheel_files_matches_the_series_route(capsys, tmp_path):
    """Wheel data files that do not come from a polynomial: every z-degree
    limit gives the oracle's polynomial or its error text."""
    rng = random.Random(77)
    path = tmp_path / "wheels.json"
    for order in (0, 1, 2, 7, 16, 33):
        nu = {str(k): str(v) for k, v in nu_wheels_by_series(order).coefficients.items()}
        for _ in range(3):
            knot = {
                2 * m: Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 48, 5760)))
                for m in range(1, order // 2 + 1)
                if rng.random() < 0.6
            }
            tor = rng.randint(1, 7)
            path.write_text(json.dumps({
                "order": order, "h1_order": tor, "nu_wheels": nu,
                "knot_wheels": {str(k): str(v) for k, v in knot.items()},
            }))
            data = LmoWheelData(WheelSeries(knot), tor, order)
            for k in sorted({0, 2, order // 2, order}):
                want = _outcome(nabla_from_wheel_data_by_series, data, k)
                rc = main(["lmo", "--invert", str(path), "--max-z-degree", str(k)])
                out, err = capsys.readouterr()
                if isinstance(want, str):
                    assert (rc, out, err) == (1, "", want.replace("DomainError:", "error:") + "\n")
                else:
                    assert (rc, out, err) == (0, f"{want}\n", "")


def test_rejection_texts():
    for order in (0, 7, 16):
        p = ZPoly(0, [1] + [0] * (order // 2) + [1])
        with pytest.raises(DomainError) as exc_info:
            lmo_wheel_data(p, 1, order)
        assert str(exc_info.value) == (
            f"z-degree {p.z_degree} exceeds the truncation order {order}; "
            f"an order of at least {p.z_degree} is needed"
        )
    data = lmo_wheel_data(ZPoly(0, (1, 0, Fraction(-2, 3))), 5, 64)
    for k in (-1, 0, 3):
        with pytest.raises(DomainError) as exc_info:
            nabla_from_lmo_wheel_data(data, k)
        assert str(exc_info.value) == (
            f"series is not a polynomial in z^2 of z-degree <= {k} at order 64"
        )
    assert nabla_from_lmo_wheel_data(data, 4) == ZPoly(0, (1, 0, Fraction(-2, 3)))


def test_z_poly_log_and_exp_are_inverse():
    order = 20
    b = [Fraction(1), Fraction(3, 2), Fraction(-5, 7), 0, Fraction(1, 3)]
    g = power = [Fraction(1)] + [Fraction(0)] * order
    for c in b[1:]:
        power = mul_coeffs(power, cosh_minus_coeffs(order), order)
        g = [x + c * y for x, y in zip(g, power)]
    ell = z_poly_log(b, order // 2)
    logs = log_recurrence(g)
    assert ell == [logs[2 * m] * factorial(2 * m) for m in range(order // 2 + 1)]
    assert z_poly_exp(ell, 8, order) == ZPoly(0, b)
    with pytest.raises(DomainError, match="z-degree <= 6 at order 20"):
        z_poly_exp(ell, 6, order)
    # unrelated denominators in the log: the per-index scales
    ell = [Fraction(0)] + [Fraction(m, 2 * m + 1) for m in range(1, order // 2 + 1)]
    assert z_poly_log(z_poly_exp(ell, order, order).coeffs, order // 2) == ell


def test_unknot_is_the_modified_bernoulli_numbers():
    nu = nu_wheels(20)
    assert nu.coefficient(2) == Fraction(1, 48)
    assert nu.coefficient(4) == Fraction(-1, 5760)
    assert nu.coefficient(12) == Fraction(-691, 2730) / (4 * 6 * factorial(12))
    assert nu.coefficient(20) == Fraction(-174611, 330) / (4 * 10 * factorial(20))
    assert nu_wheels(21) == nu and nu_wheels(0) == WheelSeries()


def test_central_factorial_triangles_are_inverse():
    assert _cf_second_kind(5) == (0, 1, 85, 147, 30, 1)
    assert _cf_first_kind(4) == (0, -36, 49, -14, 1)
    rows = 129
    big_t = [_cf_second_kind(m) for m in range(rows)]
    small_t = [_cf_first_kind(k) for k in range(rows)]
    for k in range(rows):
        assert big_t[k][k] == small_t[k][k] == 1
        if k > 0:
            assert big_t[k][1] == 1
            assert small_t[k][1] == (-1) ** (k - 1) * factorial(k - 1) ** 2
        for j in range(k + 1):
            entry = sum(small_t[k][m] * big_t[m][j] for m in range(j, k + 1))
            assert entry == (j == k), (k, j)
