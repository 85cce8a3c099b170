import random
from fractions import Fraction

import pytest

from oracles import (
    cosh_minus_coeffs,
    invert_coeffs,
    mmr_series_by_product,
    mul_coeffs,
    sequence_poly_degree,
    sinh_ratio_coeffs,
)
from nabla_lmo.alexander import nabla_from_seifert
from nabla_lmo.errors import DomainError
from nabla_lmo.hseries import c_series
from nabla_lmo.laurent import ZPoly
from nabla_lmo.mmr import (
    LmoWheelData,
    aarhus_wheels,
    lmo_wheel_data,
    mmr_series,
    nabla_from_lmo_wheel_data,
    nu_wheels,
)
from nabla_lmo.seifert import SeifertMatrix
from nabla_lmo.wheels import WheelSeries, rescale_degree, w_nabla

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]])
EMPTY = SeifertMatrix([])


def test_empty_matrix_gives_normalization_series():
    for order in (0, 4, 16):
        assert mmr_series(EMPTY, 1, order) == c_series(order)


def test_trefoil_series_against_oracle_product():
    order = 8
    c = invert_coeffs(sinh_ratio_coeffs(order))
    one_plus_zsq = [Fraction(1)] + cosh_minus_coeffs(order)[1:]
    expected = mul_coeffs(c, one_plus_zsq, order)
    got = mmr_series(TREFOIL, 1, order)
    assert got.coeffs == tuple(expected)
    assert got.coeff(2) == Fraction(23, 24)


def test_series_against_dense_product_oracle():
    links = (
        (FIGURE_EIGHT, 1),
        (SeifertMatrix([[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, "1/2", 1], [0, 0, "-1/3", 2]]), 1),
        (SeifertMatrix([["-2/3"]]), 2),
        (SeifertMatrix([[1, "1/2", 0], [0, -1, 1], [0, 0, 3]]), 2),
        (SeifertMatrix([[1, "1/2"], ["1/2", "-5/2"]]), 3),
    )
    for order in (0, 1, 2, 7, 16, 33, 256):
        # each product at order 256 takes 0.2 s: one knot and one link there
        for v, components in links if order < 256 else links[::4]:
            nabla = nabla_from_seifert(v, components)
            assert nabla.z_form.prefactor_exponent == components - 1
            expected = mmr_series_by_product(nabla.polynomial, order)
            assert mmr_series(v, components, order) == expected, (order, str(nabla))


def test_figure_eight_series():
    got = mmr_series(FIGURE_EIGHT, 1, 4)
    assert got.coeff(0) == 1
    assert got.coeff(2) == Fraction(-25, 24)


def test_aarhus_wheels_examples():
    assert aarhus_wheels(EMPTY, 16) == nu_wheels(16)
    trefoil = aarhus_wheels(TREFOIL, 16)
    assert trefoil.coefficient(2) == Fraction(-23, 48)
    assert trefoil.coefficient(4) == Fraction(1199, 5760)


def test_aarhus_wheels_reproduce_series():
    for v in (EMPTY, TREFOIL, FIGURE_EIGHT, SeifertMatrix([[-1, 1], [0, 4]])):
        order = 12
        assert w_nabla(aarhus_wheels(v, order), order) == mmr_series(v, 1, order)


def test_wheel_data_invariants_enforced():
    with pytest.raises(DomainError):
        LmoWheelData(WheelSeries({10: 1}), 1, 8)  # index beyond order
    with pytest.raises(DomainError):
        LmoWheelData(WheelSeries(), 0, 8)
    data = LmoWheelData(WheelSeries({2: 1}), 2, 8)
    assert w_nabla(data.knot_wheels, 8).coeff(0) == 1
    assert data.nu_wheels == nu_wheels(8)


def test_lmo_wheel_data_examples():
    data = lmo_wheel_data(ZPoly(0, (1,)), 1, 16)
    assert data.knot_wheels == nu_wheels(16)
    assert data.h1_order == 1

    data = lmo_wheel_data(ZPoly(0, (1, 1)), 1, 16)
    assert data.knot_wheels == aarhus_wheels(TREFOIL, 16)

    data = lmo_wheel_data(ZPoly(0, (1, -1)), 3, 16)
    assert data.knot_wheels == rescale_degree(aarhus_wheels(FIGURE_EIGHT, 16), 3)
    assert data.nu_wheels == nu_wheels(16)


def test_lmo_wheel_data_rejections():
    with pytest.raises(DomainError):
        lmo_wheel_data(ZPoly(1, (1,)), 1, 8)  # z prefactor
    with pytest.raises(DomainError):
        lmo_wheel_data(ZPoly(0, (2, 1)), 1, 8)  # value 2 at t=1
    with pytest.raises(DomainError):
        lmo_wheel_data(ZPoly(0, (1, 1)), 0, 8)
    for coeffs in ((1,) + (0,) * 9 + (1,), (1,) + (0,) * 8 + (1,)):  # z^20, z^18
        with pytest.raises(DomainError, match="z-degree .* truncation order 16"):
            lmo_wheel_data(ZPoly(0, coeffs), 1, 16)
    with pytest.raises(DomainError):
        lmo_wheel_data(ZPoly(0, (1, 1)), 1, 1)  # z-degree 2 above odd order 1
    lmo_wheel_data(ZPoly(0, (1,) + (0,) * 7 + (1,)), 1, 16)  # z^16 at order 16


def test_round_trip_small():
    p = ZPoly(0, (1, 0, Fraction(7),))
    data = lmo_wheel_data(p, 5, 16)
    assert nabla_from_lmo_wheel_data(data, p.z_degree) == p
    # order 0 and odd orders reach the ends of the closed-form series
    rng = random.Random(3)
    for order in (0, 1, 7, 16, 33):
        for kmax in sorted({0, order // 4, order // 2}):
            tail = [Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 4)) for _ in range(kmax)]
            p = ZPoly(0, [1] + tail)
            assert p.z_degree == 2 * kmax <= order
            data = lmo_wheel_data(p, rng.randint(1, 4), order)
            assert data.nu_wheels == nu_wheels(order)
            assert nabla_from_lmo_wheel_data(data, p.z_degree) == p


def test_inverse_rejects_non_polynomial_data():
    data = LmoWheelData(WheelSeries({2: 1}), 1, 16)
    with pytest.raises(DomainError):
        nabla_from_lmo_wheel_data(data, 2)


def test_inverse_needs_enough_degree():
    p = ZPoly(0, (1, 0, 1))  # degree 4
    data = lmo_wheel_data(p, 1, 16)
    with pytest.raises(DomainError):
        nabla_from_lmo_wheel_data(data, 2)


def test_rescale_compatibility():
    for r in (1, 2, 5):
        for coeffs in ((1,), (1, 1), (1, -3, 1)):
            p = ZPoly(0, coeffs)
            scaled = lmo_wheel_data(p, r, 12).knot_wheels
            base = lmo_wheel_data(p, 1, 12).knot_wheels
            assert scaled == rescale_degree(base, r)


def test_twist_family_coefficients_are_polynomial_in_n():
    order = 10
    table = {}
    for n in range(9):
        series = mmr_series(SeifertMatrix([[-1, 1], [0, n]]), 1, order)
        for i in range(order + 1):
            table.setdefault(i, []).append(series.coeff(i))
    for i, values in table.items():
        assert sequence_poly_degree(values) <= i // 2
