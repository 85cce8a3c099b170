import random
from fractions import Fraction

import pytest

from oracles import random_unimodular
from nabla_lmo.errors import DomainError
from nabla_lmo.matrices import add, as_matrix, det, matmul, scale, transpose
from nabla_lmo.seifert import (
    SeifertMatrix,
    realizability_report,
    skew_normal_form,
)

TREFOIL = [[-1, 1], [0, -1]]


def test_seifert_matrix_validation():
    with pytest.raises(DomainError):
        SeifertMatrix([[1, 2]])
    with pytest.raises(DomainError):
        SeifertMatrix([[0.5]])
    assert SeifertMatrix([]).size == 0
    assert SeifertMatrix([["1/2"]]).integral is False
    assert SeifertMatrix(TREFOIL).integral is True


def test_decompose_examples():
    v = SeifertMatrix(TREFOIL)
    f, u = v.skew_part, v.symmetric_part
    assert f == as_matrix([[0, 1], [-1, 0]])
    assert u == as_matrix([[-1, Fraction(1, 2)], [Fraction(1, 2), -1]])

    sym = SeifertMatrix([[2, 1], [1, 0]])
    f, u = sym.skew_part, sym.symmetric_part
    assert f == as_matrix([[0, 0], [0, 0]])
    assert u == sym.entries

    v = SeifertMatrix([[0, 1], [0, 0]])
    f, u = v.skew_part, v.symmetric_part
    assert f == as_matrix([[0, 1], [-1, 0]])
    assert u == as_matrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])


def test_decompose_recomposes():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        v = SeifertMatrix(rows)
        f, u = v.skew_part, v.symmetric_part
        assert add(u, scale(f, Fraction(1, 2))) == v.entries
        assert transpose(f) == scale(f, Fraction(-1))
        assert transpose(u) == u


def test_skew_normal_form_examples():
    nf = skew_normal_form([[0, 1], [-1, 0]])
    assert nf.elementary_divisors == (1,)
    assert nf.corank == 0

    nf = skew_normal_form([[0, 0], [0, 0]])
    assert nf.elementary_divisors == ()
    assert nf.corank == 2

    nf = skew_normal_form([[0, 2], [-2, 0]])
    assert nf.elementary_divisors == (2,)
    assert nf.corank == 0


def test_skew_normal_form_rejects():
    with pytest.raises(DomainError):
        skew_normal_form([[0, 1], [1, 0]])
    with pytest.raises(DomainError):
        skew_normal_form([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])


def test_transform_certifies_block_form():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randint(-4, 4)
                a[j][i] = -a[i][j]
        nf = skew_normal_form(a)
        p = as_matrix(nf.transform)
        assert det(p) in (1, -1)
        assert matmul(matmul(p, as_matrix(a)), transpose(p)) == nf.block_matrix()
        divisors = nf.elementary_divisors
        assert all(d > 0 for d in divisors)
        assert all(divisors[i + 1] % divisors[i] == 0 for i in range(len(divisors) - 1))
        assert 2 * len(divisors) + nf.corank == n


def test_divisors_are_congruence_invariant():
    rng = random.Random(37)
    base = [[0, 2, 0, 1], [-2, 0, 3, 0], [0, -3, 0, 0], [-1, 0, 0, 0]]
    reference = skew_normal_form(base)
    for _ in range(25):
        p = random_unimodular(rng, 4)
        conj = matmul(matmul(p, as_matrix(base)), transpose(p))
        nf = skew_normal_form([[int(x) for x in row] for row in conj])
        assert nf.elementary_divisors == reference.elementary_divisors
        assert nf.corank == reference.corank


def test_realizability_examples():
    r = realizability_report(SeifertMatrix(TREFOIL))
    assert r.realizable_in_s3 is True
    assert r.genus == 1
    assert r.boundary_components == 1

    r = realizability_report(SeifertMatrix([[0]]))
    assert r.realizable_in_s3 is True
    assert r.genus == 0
    assert r.boundary_components == 2

    r = realizability_report(SeifertMatrix([[0, 2], [0, 0]]))
    assert r.realizable_in_s3 is False
    assert r.genus == 1
    assert r.boundary_components == 1


def test_realizability_non_integral():
    r = realizability_report(SeifertMatrix([["1/2", 1], [0, 1]]))
    assert r.realizable_in_s3 is None
    assert r.genus == 1
    assert r.boundary_components == 1


def test_knot_type_skew_part_is_unimodular():
    rng = random.Random(41)
    for _ in range(40):
        g = rng.randint(1, 3)
        v = [[rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(2 * g)]
        sm = SeifertMatrix(v)
        report = realizability_report(sm)
        if report.boundary_components == 1 and report.realizable_in_s3:
            assert det(sm.skew_part) == 1
