import itertools
import random
import time
from fractions import Fraction

import pytest
from oracles import (
    adjugate_inverse,
    exp_linear_by_exponents,
    random_symmetric,
    wick_pair_by_permutations,
)

from nabla_lmo.errors import DomainError
from nabla_lmo.gaussian import (
    StrutPolynomial,
    StrutQuadratic,
    dual_label,
    gaussian_pair,
    left_pairing_factor,
    right_pairing_factor,
    strut_part_of_aarhus,
    wick_pair,
)
from nabla_lmo.matrices import as_matrix
from nabla_lmo.surgery import FramedLinkMatrix, surgery_transform

ONE = StrutPolynomial.zero() + 1


def strut(a, b, c=1):
    return StrutPolynomial({((a, b),): c})


def link(labels, surgery, rows):
    return FramedLinkMatrix(labels, surgery, rows)


def test_strut_polynomial_ring():
    s = strut("a", "b")
    assert s == strut("b", "a")
    assert (s + s) == strut("a", "b", 2)
    assert s - s == StrutPolynomial.zero()
    assert s * ONE == s
    product = strut("a", "a") * strut("a", "b", 3)
    assert product.coeff((("a", "a"), ("a", "b"))) == 3
    assert (2 * s).coeff((("a", "b"),)) == 2
    assert str(strut("b", "a")) == "s(a,b)"


def test_strut_quadratic_validation():
    # the FramedLinkMatrix rules: symmetric, square over the labels, rational
    # entries, labels unique, non-empty and not ∂-marked
    for labels, q in [
        (("a", "b"), [[0, 1], [2, 0]]),
        (("a", "b"), [[0, 1]]),
        (("a",), [[0.5]]),
        (("a", "b"), [[0, 1], [1]]),
        (("a", "a"), [[0, 1], [1, 0]]),
        (("",), [[1]]),
        (("∂x",), [[1]]),
    ]:
        with pytest.raises(DomainError):
            StrutQuadratic(labels, q)
    assert StrutQuadratic(("a",), [[1]]) == FramedLinkMatrix(["a"], [], [[1]])
    assert repr(StrutQuadratic(("a",), [[1]])).startswith("StrutQuadratic(")
    q = StrutQuadratic(("a",), [[4]])
    assert q.expand(2) == (
        ONE + strut("a", "a", 2) + strut("a", "a") * strut("a", "a", 2)
    )


def test_strut_part_of_aarhus_examples():
    m = link(["a"], [], [[0]])
    assert strut_part_of_aarhus(m).entries == as_matrix([[0]])

    m = link(["x", "a"], ["x"], [[1, 1], [1, 0]])
    assert strut_part_of_aarhus(m).entries == as_matrix([[-1]])

    m = link(["x", "a", "b"], ["x"], [[1, 0, 0], [0, 2, 1], [0, 1, 5]])
    assert strut_part_of_aarhus(m).entries == as_matrix([[2, 1], [1, 5]])


def test_strut_part_requires_integral_framing():
    m = link(["x", "a"], ["x"], [["1/2", 1], [1, 0]])
    with pytest.raises(DomainError):
        strut_part_of_aarhus(m)
    # the gluing route has no integrality requirement
    assert gaussian_pair(m).entries == as_matrix([[-2]])


def test_wick_pair_examples():
    assert wick_pair(ONE, ONE, ("x",)) == ONE

    left = strut("a", "x") * strut("b", "x")
    right = strut(dual_label("x"), dual_label("x"))
    assert wick_pair(left, right, ("x",)) == strut("a", "b", 2)

    assert wick_pair(strut("a", "x"), right, ("x",)) == StrutPolynomial.zero()


def test_wick_pair_two_colors():
    left = strut("a", "x") * strut("b", "y")
    right = strut(dual_label("x"), dual_label("y"))
    assert wick_pair(left, right, ("x", "y")) == strut("a", "b")


def test_wick_pair_rejects_closed_circles():
    for x, y in (("x", "x"), ("x", "y")):
        with pytest.raises(DomainError) as exc:
            wick_pair(strut(x, y), strut(dual_label(x), dual_label(y)), ("x", "y"))
        assert str(exc.value) == (
            f"left factor contains the strut ({x},{y}) with both legs among the glue "
            "labels; gluing it would close a circle"
        )


def test_wick_pair_rejects_dual_labels_on_left():
    with pytest.raises(DomainError):
        wick_pair(strut(dual_label("x"), "a"), ONE, ("x",))


def test_wick_pair_is_bilinear():
    rng = random.Random(43)
    xs = ("x",)
    lefts = [strut("a", "x") * strut("a", "x"), strut("a", "a"), ONE]
    rights = [
        strut(dual_label("x"), dual_label("x")),
        ONE,
    ]
    for l1, l2 in itertools.product(lefts, repeat=2):
        for r in rights:
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            assert wick_pair(c1 * l1 + c2 * l2, r, xs) == (
                c1 * wick_pair(l1, r, xs) + c2 * wick_pair(l2, r, xs)
            )
    for r1, r2 in itertools.product(rights, repeat=2):
        for l in lefts:
            c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
            assert wick_pair(l, c1 * r1 + c2 * r2, xs) == (
                c1 * wick_pair(l, r1, xs) + c2 * wick_pair(l, r2, xs)
            )


def random_admissible(rng, max_size=4, surgery_min=1):
    while True:
        n = rng.randint(surgery_min + 1, max_size)
        k = rng.randint(surgery_min, n - 1)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-3, 3))
        labels = [f"c{i}" for i in range(n)]
        m = FramedLinkMatrix(labels, labels[:k], rows)
        try:
            surgery_transform(m)
        except DomainError:
            continue
        return m


def test_route_equivalence():
    rng = random.Random(47)
    for _ in range(100):
        m = random_admissible(rng)
        via_schur = strut_part_of_aarhus(m)
        via_wick = gaussian_pair(m)
        assert via_wick == via_schur
        assert via_wick.entries == surgery_transform(m)
        # the degree-1 factors glue to degree <= 1, so gaussian_pair needs no cut
        paired = wick_pair(
            left_pairing_factor(m, 1), right_pairing_factor(m, 1), m.surgery_labels
        )
        assert all(len(term) <= 1 for term, _ in paired.items())


def test_truncated_wick_consistency():
    rng = random.Random(53)
    for _ in range(12):
        m = random_admissible(rng)
        left = left_pairing_factor(m, 3)
        right = right_pairing_factor(m, 3)
        paired = wick_pair(left, right, m.surgery_labels)
        target = StrutQuadratic(m.residual_labels, surgery_transform(m)).expand(3)
        assert paired == target


def test_no_hidden_label_order_dependence():
    rows = [[2, 1, 0], [1, 1, 1], [0, 1, 3]]
    m1 = link(["x", "a", "b"], ["x"], rows)
    rows_swapped = [[2, 0, 1], [0, 3, 1], [1, 1, 1]]
    m2 = link(["x", "b", "a"], ["x"], rows_swapped)
    q1 = gaussian_pair(m1)
    q2 = gaussian_pair(m2)
    assert q1.labels == ("a", "b")
    assert q2.labels == ("b", "a")
    ab = q1.entries
    ba = q2.entries
    assert ab[0][0] == ba[1][1]
    assert ab[1][1] == ba[0][0]
    assert ab[0][1] == ba[1][0]


def left_entries(m):
    """(strut, coefficient, weight) of the left factor's exponent: every
    pair of labels not both surgery, weight 1/2 when one end is surgery."""
    surgery = set(m.surgery_labels)
    out = []
    for i, a in enumerate(m.labels):
        for j in range(i, m.size):
            b = m.labels[j]
            if a in surgery and b in surgery:
                continue
            c = m.entries[i][j] if i != j else m.entries[i][i] / 2
            w = Fraction(1, 2) if a in surgery or b in surgery else Fraction(1)
            if c != 0:
                out.append(((a, b), c, w))
    return out


def right_entries(m):
    k = len(m.surgery_labels)
    inv = adjugate_inverse([row[:k] for row in m.entries[:k]])
    out = []
    for i, x in enumerate(m.surgery_labels):
        for j in range(i, k):
            c = -inv[i][j] if i != j else -inv[i][i] / 2
            out.append(((dual_label(x), dual_label(m.surgery_labels[j])), c, Fraction(1)))
    return out


BOUNDS = (-1, 0, Fraction(1, 2), 1, Fraction(3, 2), 3)


def test_pairing_factors_match_exponent_oracle():
    rng = random.Random(59)
    for _ in range(8):
        m = random_admissible(rng, max_size=3)
        for bound in BOUNDS:
            assert left_pairing_factor(m, bound) == exp_linear_by_exponents(
                left_entries(m), bound
            )
            assert right_pairing_factor(m, bound) == exp_linear_by_exponents(
                right_entries(m), bound
            )


def test_right_pairing_factor_without_surgery_is_truncated():
    """With no surgery component the right factor is exp(0) = 1, cut off
    like every truncated exponential: 0 below degree 0, 1 from there on."""
    m = link(["a"], [], [[1]])
    assert right_pairing_factor(m, -1) == StrutPolynomial.zero()
    assert right_pairing_factor(m, Fraction(-1, 2)) == StrutPolynomial.zero()
    for degree in (0, 1, 3):
        assert right_pairing_factor(m, degree) == ONE
    assert left_pairing_factor(m, -1) == StrutPolynomial.zero()
    assert gaussian_pair(m) == strut_part_of_aarhus(m) == StrutQuadratic(["a"], [[1]])


def test_expand_matches_exponent_oracle():
    rng = random.Random(61)
    for n in (0, 1, 2, 3):
        labels = [f"a{i}" for i in range(n)]
        q = random_symmetric(rng, n, denominators=(1, 2, 3))
        entries = [
            ((labels[i], labels[j]), q[i][j] if i != j else q[i][i] / 2, 1)
            for i in range(n)
            for j in range(i, n)
        ]
        for bound in BOUNDS:
            assert StrutQuadratic(labels, q).expand(bound) == exp_linear_by_exponents(
                entries, bound
            )


def test_wick_pair_matches_permutation_oracle_on_pairing_factors():
    rng = random.Random(67)
    for degree in (1, 2, 3):
        for _ in range(4):
            m = random_admissible(rng)
            left = left_pairing_factor(m, degree)
            right = right_pairing_factor(m, degree)
            glue = m.surgery_labels
            assert wick_pair(left, right, glue) == wick_pair_by_permutations(left, right, glue)


def random_gluable_pair(rng, glue, partners, degree):
    """A right monomial of degree <= ``degree`` over ∂-labels (same-color
    struts included) and a left monomial with one leg per ∂-leg, partner
    labels drawn from a small pool so that they repeat."""
    right = []
    for _ in range(rng.randint(0, degree)):
        right.append((dual_label(rng.choice(glue)), dual_label(rng.choice(glue))))
    left = [(rng.choice(partners), x[1:]) for s in right for x in s]
    left += [(rng.choice(partners), rng.choice(partners)) for _ in range(rng.randint(0, 1))]
    return left, right


def test_wick_pair_matches_permutation_oracle_on_random_polynomials():
    rng = random.Random(71)
    for degree in (1, 2, 3):
        for glue in (("x",), ("x", "y"), ("y", "x", "z")):
            for _ in range(6):
                lefts, rights = {}, {}
                for _ in range(3):
                    lt, rt = random_gluable_pair(rng, glue, ("a", "b"), degree)
                    lefts[tuple(lt)] = rng.randint(-3, 3)
                    rights[tuple(rt)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                left, right = StrutPolynomial(lefts), StrutPolynomial(rights)
                expected = wick_pair_by_permutations(left, right, glue)
                assert wick_pair(left, right, glue) == expected


def test_wick_pair_repeated_partner_labels():
    # four legs of one color, all with partner a: 4! gluings give s(a,a)^2,
    # one distinct assignment weighted 4!
    left = strut("a", "x") * strut("a", "x") * strut("a", "x") * strut("a", "x")
    right = strut(dual_label("x"), dual_label("x")) * strut(dual_label("x"), dual_label("x"))
    assert wick_pair(left, right, ("x",)) == strut("a", "a", 24) * strut("a", "a")


def test_wick_pair_zero_left_skips_right_checks():
    malformed = strut("a", "b")
    assert wick_pair(StrutPolynomial.zero(), malformed, ("x",)) == StrutPolynomial.zero()


def test_wick_pair_reports_first_left_term_before_right_factor():
    malformed = strut("a", dual_label("x"))
    with pytest.raises(DomainError, match="^left factor must not contain ∂-labeled legs$"):
        wick_pair(strut(dual_label("x"), "a"), malformed, ("x",))
    with pytest.raises(DomainError, match="^right factor strut \\(a,∂x\\) is not a ∂-labeled"):
        wick_pair(ONE + strut("x", "x"), malformed, ("x",))


def test_degree_four_wick_audit():
    # every linking number nonzero, so every strut and gluing is present
    started = time.perf_counter()
    rng = random.Random(73)
    labels = ["x0", "x1", "a0", "a1"]
    audited = 0
    while audited < 2:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                v = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
                rows[i][j] = rows[j][i] = v
        m = FramedLinkMatrix(labels, labels[:2], rows)
        if rows[0][0] * rows[1][1] == rows[0][1] ** 2:
            continue
        paired = wick_pair(
            left_pairing_factor(m, 4), right_pairing_factor(m, 4), m.surgery_labels
        )
        assert paired == StrutQuadratic(m.residual_labels, surgery_transform(m)).expand(4)
        audited += 1
    assert time.perf_counter() - started < 10.0
