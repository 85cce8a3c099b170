import random
import re
from fractions import Fraction
from itertools import permutations

import pytest

from oracles import (
    adjugate_inverse,
    det_cofactor,
    matmul,
    random_symmetric_input,
    rank_by_minors,
    signature_by_congruence,
)
from nabla_lmo.errors import DomainError
from nabla_lmo.gaussian import StrutPolynomial, dual_label, right_pairing_factor
from nabla_lmo.matrices import (
    as_matrix,
    det,
    det_poly,
    identity,
    is_symmetric,
    rank,
    schur_complement,
    sub,
    submatrix,
)
from nabla_lmo.surgery import FramedLinkMatrix

RATIONALS = [Fraction(0)] * 4 + [Fraction(k, d) for k in (-5, -1, 1, 2, 7) for d in (1, 2, 3)]


def random_matrix(rng, n, m):
    return as_matrix([[rng.choice(RATIONALS) for _ in range(m)] for _ in range(n)])


def test_empty_matrix():
    assert det(()) == 1
    assert schur_complement((), 0) == ((), 1, (0, 0))
    assert rank(()) == 0


def test_as_matrix_shares_fractions_and_rejects_floats():
    given = [Fraction(1, 3), Fraction(-2, 7)]
    a = as_matrix([given])
    assert all(x is y for x, y in zip(a[0], given))
    assert as_matrix([[1, "2/3"]]) == ((Fraction(1), Fraction(2, 3)),)
    for bad in ([[0.5]], [[1j]]):
        with pytest.raises(TypeError):
            as_matrix(bad)
    with pytest.raises(ValueError):
        as_matrix([[1, 2], [3]])


def test_det_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert det(a) == det_cofactor(a)
    # symmetric input takes the symmetric pivot rule, zero diagonals included
    for _ in range(150):
        a = random_symmetric_input(rng, rng.randint(1, 5))
        assert det(a) == det_cofactor(a)


def test_det_sign_under_row_swaps():
    # permutation matrices: elimination swaps rows and det is the sign of the permutation
    for perm in permutations(range(4)):
        p = as_matrix([[Fraction(j == perm[i]) for j in range(4)] for i in range(4)])
        assert det(p) == det_cofactor(p) in (1, -1)
    # the first pivot sits in the last row
    a = as_matrix([[0, 0, "1/2"], [0, 3, 1], ["-2/3", 1, 0]])
    assert det(a) == det_cofactor(a) == 1


def test_rank_of_rectangular_zero_and_deficient_matrices():
    rng = random.Random(5)
    zero = as_matrix([[0, 0, 0], [0, 0, 0]])
    assert rank(zero) == rank_by_minors(zero) == 0
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        assert rank(a) == rank_by_minors(a)
        # a product through a k-dimensional space has rank at most k
        k = rng.randint(1, min(n, m))
        low = matmul(random_matrix(rng, n, k), random_matrix(rng, k, m))
        assert rank(low) == rank_by_minors(low) <= k
    for _ in range(80):
        a = random_symmetric_input(rng, rng.randint(1, 5))
        assert rank(a) == rank_by_minors(a)


def right_pairing_degree_one(labels, inv):
    """1 - (1/2) sum_xy inv_xy s(∂x,∂y): the degree <= 1 part of the right
    pairing factor over a surgery block with inverse ``inv``."""
    out = StrutPolynomial.zero() + 1
    for i, x in enumerate(labels):
        for j in range(i, len(labels)):
            c = -inv[i][j] if i != j else -inv[i][i] / 2
            out = out + StrutPolynomial({((dual_label(x), dual_label(labels[j])),): c})
    return out


def test_inverse_of_rational_matrices_with_zero_leading_entry():
    """The right pairing factor inverts the surgery block by a bordered
    Schur complement; a zero leading entry needs a row swap there."""
    singular = ([[0, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 1, 2], [1, 0, 1], [2, 1, 4]])
    for rows in singular:
        labels = [f"x{i}" for i in range(len(rows))]
        m = FramedLinkMatrix(labels, labels, rows)
        text = f"singular surgery block over labels ({', '.join(labels)})"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            right_pairing_factor(m, 1)
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        k = rng.randint(2, 5)
        rows = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
        for i in range(k + 1):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = rng.choice(RATIONALS)
        rows[0][0] = Fraction(0)
        block = as_matrix(row[:k] for row in rows[:k])
        if det_cofactor(block) == 0:
            continue
        labels = [f"x{i}" for i in range(k)]
        m = FramedLinkMatrix(labels + ["a"], labels, rows)
        inv = adjugate_inverse(block)
        assert matmul(block, inv) == identity(k)
        assert right_pairing_factor(m, 1) == right_pairing_degree_one(labels, inv)
        checked += 1


def test_singular_matrix_raises():
    singular = [
        [[0]],
        [[1, 2], [2, 4]],
        [["1/2", "1/3", 1], ["1/4", "1/6", "1/2"], [0, 1, 5]],
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    ]
    for rows in singular:
        a = as_matrix(rows)
        assert det(a) == det_cofactor(a) == 0
        with pytest.raises(ValueError, match="^singular matrix$"):
            schur_complement(a, len(a))


def test_schur_complement_matches_block_formula():
    # a singular block whose lower rows would supply the missing pivot
    for rows in ([[0, 1], [1, 0]], [[0, 0, 1], [0, 0, 1], [1, 1, 0]], [["0", "1/2"], ["3", 0]]):
        with pytest.raises(ValueError, match="^singular matrix$"):
            schur_complement(as_matrix(rows), len(rows) - 1)
    rng = random.Random(11)
    # general input, then symmetric input with zero diagonals and singular blocks
    for generate in (lambda n: random_matrix(rng, n, n), lambda n: random_symmetric_input(rng, n)):
        checked = 0
        while checked < 40:
            n, k = rng.randint(1, 5), rng.randint(1, 3)
            if k > n:
                continue
            a = generate(n)
            assert schur_complement(a, 0) == (a, 1, (0, 0))
            top, rest = range(k), range(k, n)
            block = submatrix(a, top, top)
            block_det = det_cofactor(block)
            if block_det == 0:
                with pytest.raises(ValueError, match="^singular matrix$"):
                    schur_complement(a, k)
                continue
            correction = matmul(
                matmul(submatrix(a, rest, top), adjugate_inverse(block)), submatrix(a, top, rest)
            )
            # the det and inertia are those of the pivot block A
            inertia = signature_by_congruence(block) if is_symmetric(block) else None
            assert schur_complement(a, k) == (
                sub(submatrix(a, rest, rest), correction),
                block_det,
                inertia,
            )
            checked += 1


def test_det_poly_matches_cofactor_values():
    def check(p, q):
        coeffs = det_poly(p, q)
        assert len(coeffs) == len(p) + 1
        for t in (Fraction(-2), Fraction(1, 3), Fraction(7)):
            value = sum(c * t ** k for k, c in enumerate(coeffs))
            shifted = [[t * x - y for x, y in zip(rp, rq)] for rp, rq in zip(p, q)]
            assert value == det_cofactor(shifted)
        return coeffs

    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(0, 6)
        check(random_matrix(rng, n, n), random_matrix(rng, n, n))

    # the common denominator 42 is the lcm of neither matrix alone (2 and 21)
    p = as_matrix([["1/2", 1, 0], [0, -1, 3], [2, 0, "1/2"]])
    q = as_matrix([["2/3", 0, 1], ["5/7", 1, 0], [0, "-2/3", "5/7"]])
    check(p, q)
    # a zero P leaves the constant det(-Q); a singular P drops the top degree
    q = random_matrix(rng, 4, 4)
    assert check(as_matrix([[0] * 4] * 4), q)[1:] == [0] * 4
    singular = as_matrix([[1, 2, "1/3"], [2, 4, "2/3"], [0, "5/2", 1]])
    assert check(singular, random_matrix(rng, 3, 3))[3] == 0
    assert check((), ()) == [1]
