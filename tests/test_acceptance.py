"""End-to-end acceptance checks.

One test per shipped guarantee; `pytest -v tests/test_acceptance.py` prints a
pass/fail line for each. Expected values come only from frozen constants or
from the independent routes in oracles.py, and all comparisons are exact
(Fraction arithmetic, no tolerances)."""

import random
import time
from fractions import Fraction

from oracles import (
    cosh_minus_coeffs,
    det_cofactor,
    divide_by_z,
    eliminate_block,
    invert_coeffs,
    log_coeffs,
    matmul,
    mul_coeffs,
    random_symmetric,
    random_unimodular,
    sinh_ratio_coeffs,
)

from nabla_lmo.alexander import nabla_from_seifert
from nabla_lmo.fixtures import load_fixtures
from nabla_lmo.gaussian import (
    StrutQuadratic,
    left_pairing_factor,
    right_pairing_factor,
    wick_pair,
)
from nabla_lmo.hseries import c_series
from nabla_lmo.laurent import HalfLaurent, ZPoly, rewrite_in_z
from nabla_lmo.matrices import det, transpose
from nabla_lmo.mmr import lmo_wheel_data, mmr_series, nabla_from_lmo_wheel_data
from nabla_lmo.seifert import SeifertMatrix, realizability_report, skew_normal_form
from nabla_lmo.surgery import FramedLinkMatrix, surgery_transform
from nabla_lmo.wheels import (
    WheelPolynomial,
    WheelSeries,
    rescale_degree,
    w_nabla,
    wheels_from_series,
)


def conway_determinant(entries):
    """det(t^(1/2)V - t^(-1/2)V*) by first-row cofactor expansion."""
    n = len(entries)
    rows = [
        [
            HalfLaurent({1: entries[i][j]}) - HalfLaurent({-1: entries[j][i]})
            for j in range(n)
        ]
        for i in range(n)
    ]
    d = det_cofactor(rows)
    return d if isinstance(d, HalfLaurent) else HalfLaurent.constant(d)


def block_diag(a, b):
    n, m = len(a), len(b)
    out = [[Fraction(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = Fraction(a[i][j])
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = Fraction(b[i][j])
    return out


def random_framed(rng, max_size, denominators=(1,)):
    """Random symmetric linking matrix with an invertible surgery block."""
    while True:
        n = rng.randint(1, max_size)
        k = rng.randint(0, n)
        entries = random_symmetric(rng, n, denominators)
        if k and det([row[:k] for row in entries[:k]]) == 0:
            continue
        labels = [f"x{i}" for i in range(k)] + [f"a{i}" for i in range(n - k)]
        return FramedLinkMatrix(labels, labels[:k], entries)


def test_criterion_01_fixture_determinants_match_cofactor_oracle():
    started = time.perf_counter()
    by_name = {fx.name: fx for fx in load_fixtures()}
    expected_forms = {
        "unknot": ZPoly(0, (1,)),
        "trefoil": ZPoly(0, (1, 1)),
        "figure_eight": ZPoly(0, (1, -1)),
        **{f"twist_{n}": ZPoly(0, (1, -n)) if n else ZPoly(0, (1,)) for n in range(6)},
    }
    for name, form in expected_forms.items():
        fx = by_name[name]
        result = nabla_from_seifert(fx.seifert, fx.components)
        oracle = conway_determinant(fx.seifert.entries)
        assert result.z_form == form, name
        assert result.polynomial == oracle, name
        assert rewrite_in_z(oracle, fx.components - 1) == form, name
    assert time.perf_counter() - started < 1.0


def test_every_fixture_matches_nabla_and_the_cofactor_oracle():
    fixtures = load_fixtures()
    assert len(fixtures) == 12
    for fx in fixtures:
        result = nabla_from_seifert(fx.seifert, fx.components)
        oracle = conway_determinant(fx.seifert.entries)
        assert result.z_form == fx.expected_nabla, fx.name
        assert result.polynomial == oracle, fx.name
        assert rewrite_in_z(oracle, fx.components - 1) == fx.expected_nabla, fx.name


def test_criterion_02_determinant_membership_and_symmetry():
    rng = random.Random(2024)
    seen_components = set()
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        sm = SeifertMatrix(v)
        corank = skew_normal_form(sm.skew_part).corank
        if corank > 2:
            continue
        components = corank + 1
        seen_components.add(components)
        d = conway_determinant(v)
        assert d.involution() == d
        # membership in z^(l-1) Q[z^2]: the rewrite must succeed ...
        z_form = rewrite_in_z(d, components - 1)
        if not d.is_zero:
            # ... and dividing out the prefactor leaves a polynomial in z^2
            low = min(d.support)
            q = [d.coeff(k) for k in range(low, max(d.support) + 1)]
            for _ in range(components - 1):
                q = divide_by_z(q)
            quotient = HalfLaurent({low + components - 1 + i: c for i, c in enumerate(q)})
            assert quotient.involution() == quotient
            assert rewrite_in_z(quotient, 0).expand() == quotient
        assert nabla_from_seifert(sm, components).z_form == z_form
        checked += 1
    assert checked == 200
    assert seen_components == {1, 2, 3}


def test_criterion_03_surgery_matches_elimination_and_is_transitive():
    rng = random.Random(311)
    transitive_cases = 0
    for _ in range(200):
        m = random_framed(rng, 6, denominators=(1, 1, 2))
        k = len(m.surgery_labels)
        assert surgery_transform(m) == eliminate_block(m.entries, k)

        j = rng.randint(0, k)
        first = [row[:j] for row in m.entries[:j]]
        if j and det(first) == 0:
            continue  # intermediate block not invertible; out of scope
        labels = m.surgery_labels + m.residual_labels
        stage_one = surgery_transform(FramedLinkMatrix(labels, labels[:j], m.entries))
        stage_two = surgery_transform(
            FramedLinkMatrix(labels[j:], labels[j:k], stage_one)
        )
        assert stage_two == surgery_transform(m)
        transitive_cases += 1
    assert transitive_cases > 100


def test_criterion_04_truncated_wick_matches_schur_exponential():
    started = time.perf_counter()
    rng = random.Random(47)
    for _ in range(50):
        m = random_framed(rng, 4, denominators=(1, 2))
        paired = wick_pair(
            left_pairing_factor(m, 3), right_pairing_factor(m, 3), m.surgery_labels
        )
        closed = StrutQuadratic(m.residual_labels, surgery_transform(m)).expand(3)
        assert paired == closed
    assert time.perf_counter() - started < 30.0


def test_criterion_05_normalization_series_and_trefoil_coefficient():
    c = c_series(16)
    assert list(c.coeffs) == invert_coeffs(sinh_ratio_coeffs(16))
    assert c.coeff(2) == Fraction(-1, 24)
    assert c.coeff(4) == Fraction(7, 5760)

    assert mmr_series(SeifertMatrix([]), 1, 16) == c

    zsq = cosh_minus_coeffs(16)
    one_plus_zsq = [Fraction(1)] + zsq[1:]
    product = mul_coeffs(list(c.coeffs), one_plus_zsq, 16)
    assert product[2] == Fraction(23, 24)
    trefoil = mmr_series(SeifertMatrix([[-1, 1], [0, -1]]), 1, 16)
    assert list(trefoil.coeffs) == product
    assert trefoil.coeff(2) == Fraction(23, 24)


def test_criterion_06_unknot_wheel_coefficients_match_log_oracle():
    w = wheels_from_series(c_series(16))
    assert w.coefficient(2) == Fraction(1, 48)
    assert w.coefficient(4) == Fraction(-1, 5760)

    logs = log_coeffs(invert_coeffs(sinh_ratio_coeffs(16)), 16)
    assert logs[2] == Fraction(-1, 24)
    assert logs[4] == Fraction(1, 2880)
    for index in range(2, 17, 2):
        assert w.coefficient(index) == -logs[index] / 2


def test_criterion_07_wheel_data_round_trip():
    started = time.perf_counter()
    polynomials = (
        ZPoly(0, (1,)),
        ZPoly(0, (1, 1)),
        ZPoly(0, (1, -1)),
        ZPoly(0, (1, -3, 1)),
        ZPoly(0, (1, 1, 0, 7)),
    )
    for p in polynomials:
        for tor_order in (1, 2, 3, 5, 25):
            data = lmo_wheel_data(p, tor_order, 16)
            assert nabla_from_lmo_wheel_data(data, 8) == p, (str(p), tor_order)
    assert time.perf_counter() - started < 5.0


def _random_wheel_polynomial(rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        term = tuple(sorted(rng.choice((2, 4, 6)) for _ in range(rng.randint(0, 2))))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[term] = terms.get(term, Fraction(0)) + coeff
    return WheelPolynomial(terms)


def _random_wheel_series(rng, max_index):
    return WheelSeries(
        {
            index: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for index in range(2, max_index + 1, 2)
            if rng.random() < 0.7
        }
    )


def test_criterion_08_weight_system_laws():
    rng = random.Random(88)
    for _ in range(100):
        p, q = _random_wheel_polynomial(rng), _random_wheel_polynomial(rng)
        product = mul_coeffs(w_nabla(p, 12).coeffs, w_nabla(q, 12).coeffs, 12)
        assert list(w_nabla(p * q, 12).coeffs) == product

    for _ in range(100):
        w = _random_wheel_series(rng, 16)
        assert wheels_from_series(w_nabla(w, 16)) == w

    for _ in range(50):
        w = _random_wheel_series(rng, 8)
        r = rng.choice((1, 2, 3, 5, Fraction(1, 2), Fraction(3, 2)))
        substituted = [c * r**m for m, c in enumerate(w_nabla(w, 10).coeffs)]
        assert list(w_nabla(rescale_degree(w, r), 10).coeffs) == substituted


def test_criterion_09_basis_and_stabilization_invariance():
    rng = random.Random(59)
    for fx in load_fixtures():
        n = fx.seifert.size
        for _ in range(20):
            if n == 0:
                break
            p = random_unimodular(rng, n)
            congruent = matmul(matmul(p, fx.seifert.entries), transpose(p))
            result = nabla_from_seifert(SeifertMatrix(congruent), fx.components)
            assert result.z_form == fx.expected_nabla, fx.name
        for framing in (-2, 0, 3):
            stabilized = block_diag(fx.seifert.entries, [[framing, 1], [0, 0]])
            result = nabla_from_seifert(SeifertMatrix(stabilized), fx.components)
            assert result.z_form == fx.expected_nabla, (fx.name, framing)


def test_criterion_10_skew_normal_form_invariants():
    rng = random.Random(67)
    hyperbolic = lambda d: [[0, d], [-d, 0]]
    cases = [
        (hyperbolic(1), (1,), 0),
        (hyperbolic(2), (2,), 0),
        (block_diag(hyperbolic(1), hyperbolic(3)), (1, 3), 0),
        (block_diag(hyperbolic(2), hyperbolic(2)), (2, 2), 0),
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], (1,), 1),
        ([[0, 0], [0, 0]], (), 2),
    ]
    for f, divisors, corank in cases:
        nf = skew_normal_form(f)
        assert nf.elementary_divisors == divisors
        assert nf.corank == corank
        for _ in range(50):
            p = random_unimodular(rng, len(f))
            congruent = matmul(matmul(p, f), transpose(p))
            nf2 = skew_normal_form(congruent)
            assert nf2.elementary_divisors == divisors
            assert nf2.corank == corank

    knot = realizability_report(SeifertMatrix([[-1, 1], [0, -1]]))
    assert knot.realizable_in_s3 is True
    assert (knot.genus, knot.boundary_components) == (1, 1)
    annulus = realizability_report(SeifertMatrix([[0]]))
    assert annulus.realizable_in_s3 is True
    assert (annulus.genus, annulus.boundary_components) == (0, 2)
    rejected = realizability_report(SeifertMatrix([[0, 2], [0, 0]]))
    assert rejected.realizable_in_s3 is False
    rational = realizability_report(SeifertMatrix([[Fraction(1, 2)]]))
    assert rational.realizable_in_s3 is None
