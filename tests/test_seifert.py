import random
from fractions import Fraction

import pytest

from oracles import matmul, random_unimodular, rank_by_minors, skew_divisors_by_pfaffians
from nabla_lmo.errors import DomainError
from nabla_lmo.matrices import as_matrix, det, sub, transpose
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
    assert SeifertMatrix(TREFOIL).skew_part == as_matrix([[0, 1], [-1, 0]])
    assert SeifertMatrix([[2, 1], [1, 0]]).skew_part == as_matrix([[0, 0], [0, 0]])
    assert SeifertMatrix([[0, 1], [0, 0]]).skew_part == as_matrix([[0, 1], [-1, 0]])


def test_decompose_recomposes():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 5)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(n)
        ]
        v = SeifertMatrix(rows)
        f = v.skew_part
        assert sub(v.entries, f) == transpose(v.entries)
        assert transpose(f) == tuple(tuple(-x for x in row) for row in f)


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


def test_skew_normal_form_matches_pfaffian_divisors():
    """The divisors against the gcds of principal Pfaffians, on random skew
    matrices and on unimodular conjugates of block sums with a known chain."""
    rng = random.Random(31)
    cases = []
    for _ in range(60):
        n = rng.randint(0, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = rng.randint(-4, 4)
                a[j][i] = -a[i][j]
        cases.append((a, None))
    for chain in ((1,), (3,), (2, 2), (1, 2, 6), (1, 1, 4), (2, 4, 4), (1, 1, 2, 6)):
        for n in range(2 * len(chain), 9):
            block = [[0] * n for _ in range(n)]
            for i, d in enumerate(chain):
                block[2 * i][2 * i + 1], block[2 * i + 1][2 * i] = d, -d
            for _ in range(5):
                p = random_unimodular(rng, n)
                conj = matmul(matmul(p, as_matrix(block)), transpose(p))
                cases.append(([[int(x) for x in row] for row in conj], chain))
    for a, chain in cases:
        nf = skew_normal_form(a)
        divisors = nf.elementary_divisors
        assert divisors == skew_divisors_by_pfaffians(a), a
        assert chain is None or divisors == chain
        assert all(d > 0 for d in divisors)
        assert all(divisors[i + 1] % divisors[i] == 0 for i in range(len(divisors) - 1))
        assert 2 * len(divisors) + nf.corank == len(a)


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


def test_realizability_paths_agree():
    """An integral V goes through the skew normal form, V/2 (an odd diagonal
    entry makes it non-integral) through the rank of V - V*; both read the
    same surface, and only the first has a verdict."""
    rng = random.Random(79)
    singular = 0
    for i in range(100):
        n = rng.randint(0, 8)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n:
            rows[0][0] = 2 * rng.randint(-2, 2) + 1
        if n and i % 3 == 0:
            # a symmetric row and column make a zero row of V - V*
            j = rng.randrange(n)
            for c in range(n):
                rows[c][j] = rows[j][c]
        v = SeifertMatrix(rows)
        half = SeifertMatrix([[Fraction(x, 2) for x in row] for row in rows])
        whole, halved = realizability_report(v), realizability_report(half)
        assert (halved.genus, halved.boundary_components) == (
            whole.genus,
            whole.boundary_components,
        ), rows
        assert halved.realizable_in_s3 is (None if n else True)
        singular += whole.boundary_components > 1
    assert singular >= 30


def test_realizability_of_rational_matrices():
    """Genus and boundary count from the rank of V - V*, for rational V; every
    third V is an integral U + I/2, whose V - V* is integral while V is not.
    Only an integral V gets a verdict."""
    rng = random.Random(83)
    for i in range(300):
        n = rng.randint(0, 6)
        if i % 3 == 0:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for k in range(n):
                rows[k][k] += Fraction(1, 2)
        else:
            dens = rng.choice(((1, 2), (2, 3, 5), (4, 9)))
            rows = [
                [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(n)] for _ in range(n)
            ]
        v = SeifertMatrix(rows)
        r = rank_by_minors(v.skew_part)
        report = realizability_report(v)
        assert (report.genus, report.boundary_components) == (r // 2, n - r + 1), rows
        integral = all(x.denominator == 1 for row in rows for x in row)
        assert (report.realizable_in_s3 is None) is not integral


def test_knot_type_skew_part_is_unimodular():
    rng = random.Random(41)
    for _ in range(40):
        g = rng.randint(1, 3)
        v = [[rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(2 * g)]
        sm = SeifertMatrix(v)
        report = realizability_report(sm)
        if report.boundary_components == 1 and report.realizable_in_s3:
            assert det(sm.skew_part) == 1
