import random
from fractions import Fraction

import pytest

from oracles import (
    TORUS_KNOTS,
    burau_alexander,
    det_cofactor,
    matmul,
    positive_braid_seifert,
    torus_alexander,
    torus_braid,
)
from nabla_lmo.alexander import (
    nabla_from_seifert,
    normalize_delta,
)
from nabla_lmo.errors import DomainError
from nabla_lmo.laurent import HalfLaurent, ZPoly
from nabla_lmo.seifert import SeifertMatrix

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]])


def conway_matrix(v):
    n = v.size
    e = v.entries
    return [
        [HalfLaurent({1: e[i][j], -1: -e[j][i]}) for j in range(n)]
        for i in range(n)
    ]


def test_unknot():
    r = nabla_from_seifert(SeifertMatrix([]), 1)
    assert r.z_form == ZPoly(0, (1,))
    assert r.polynomial == HalfLaurent.constant(1)
    assert r.polynomial.evaluate(1) == 1


def test_knot_examples():
    assert nabla_from_seifert(TREFOIL).z_form == ZPoly(0, (1, 1))
    assert nabla_from_seifert(FIGURE_EIGHT).z_form == ZPoly(0, (1, -1))
    for n in range(6):
        twist = SeifertMatrix([[-1, 1], [0, n]])
        assert nabla_from_seifert(twist).z_form == ZPoly(0, (1, -n))


def test_matches_cofactor_oracle():
    rng = random.Random(13)
    # integers plus entries with denominators 2 and 3
    entries = [Fraction(k) for k in range(-3, 4)]
    entries += [Fraction(k, d) for k in (-1, 1, 5) for d in (2, 3)]
    for _ in range(60):
        n = rng.choice((0, 2, 4, 6))
        v = SeifertMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        expected = det_cofactor(conway_matrix(v))
        if not isinstance(expected, HalfLaurent):
            expected = HalfLaurent.constant(expected)
        assert nabla_from_seifert(v, 1).polynomial == expected


def test_trefoil_is_the_closure_of_sigma_1_cubed():
    assert SeifertMatrix(positive_braid_seifert(torus_braid(2, 3))) == TREFOIL


@pytest.mark.parametrize("p, q", TORUS_KNOTS)
def test_torus_knots_match_the_closed_form(p, q):
    """Above genus 3, past the cofactor oracle's reach: braid-closure Seifert
    matrices against the symmetrized closed form of Δ(T(p, q))."""
    genus = (p - 1) * (q - 1) // 2
    v = SeifertMatrix(positive_braid_seifert(torus_braid(p, q)))
    assert v.size == 2 * genus
    delta = torus_alexander(p, q)
    assert nabla_from_seifert(v).polynomial == HalfLaurent(
        {2 * (e - genus): c for e, c in enumerate(delta)}
    )


def _unit_free(p):
    """p times the unit ±t^k that puts its lowest term at t^0 with a positive
    coefficient."""
    low = p.shift(-p.support[0])
    return low if low.coeff(0) > 0 else -low


def _closes_to_knot(word, strands):
    perm = list(range(strands))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    x, length = perm[0], 1
    while x != 0:
        x, length = perm[x], length + 1
    return length == strands


def test_random_positive_braids_match_the_burau_oracle():
    """Knots closing random positive braids on 3–5 strands: the braid-closure
    Seifert matrix against the reduced Burau determinant."""
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        n = rng.randint(3, 5)
        word = [rng.randint(1, n - 1) for _ in range(rng.randint(4, 14))]
        if set(word) != set(range(1, n)) or not _closes_to_knot(word, n):
            continue
        nabla = nabla_from_seifert(SeifertMatrix(positive_braid_seifert(word))).polynomial
        lhs = nabla * (HalfLaurent.constant(1) - HalfLaurent({2 * n: 1}))
        assert _unit_free(lhs) == _unit_free(burau_alexander(word, n)), word
        checked += 1


def test_link_examples():
    r = nabla_from_seifert(SeifertMatrix([[1]]), 2)
    assert r.z_form == ZPoly(1, (1,))
    assert nabla_from_seifert(SeifertMatrix([[-1]]), 2).z_form == ZPoly(1, (-1,))
    assert nabla_from_seifert(SeifertMatrix([[0]]), 2).z_form.is_zero


def test_size_component_mismatch():
    with pytest.raises(DomainError):
        nabla_from_seifert(SeifertMatrix([[1]]), 1)  # size - l + 1 odd
    with pytest.raises(DomainError):
        nabla_from_seifert(SeifertMatrix([]), 2)  # would need negative genus
    with pytest.raises(DomainError):
        nabla_from_seifert(TREFOIL, 0)


def test_membership_failure():
    # two symplectic pairs but l = 3: determinant is 1, not divisible by z^2
    v = SeifertMatrix(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    )
    with pytest.raises(DomainError):
        nabla_from_seifert(v, 3)


def test_involution_symmetry_of_output():
    rng = random.Random(17)
    for _ in range(40):
        n, components = rng.choice(((2, 1), (4, 1), (1, 2), (3, 2)))
        v = SeifertMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        try:
            r = nabla_from_seifert(v, components)
        except DomainError:
            continue
        assert r.z_form.prefactor_exponent == components - 1
        assert r.polynomial.involution() == r.polynomial


def test_normalize_delta_examples():
    t = HalfLaurent({2: 1})
    r = normalize_delta(t, 1)
    assert r.z_form == ZPoly(0, (1,))

    delta = HalfLaurent({4: 1, 2: -1, 0: 1})  # t^2 - t + 1
    r = normalize_delta(delta, 1)
    assert r.polynomial == HalfLaurent({2: 1, 0: -1, -2: 1})
    assert r.z_form == ZPoly(0, (1, 1))

    r = normalize_delta(-delta, 1)
    assert r.z_form == ZPoly(0, (1, 1))


def test_normalize_delta_errors():
    with pytest.raises(DomainError):
        normalize_delta(HalfLaurent.zero(), 1)
    with pytest.raises(DomainError):
        normalize_delta(HalfLaurent({2: 1, -2: -1}), 1)  # antisymmetric
    with pytest.raises(DomainError):
        normalize_delta(HalfLaurent({1: 1, 0: 1}), 1)  # no integer shift
    with pytest.raises(DomainError):
        normalize_delta(HalfLaurent({2: 1, 0: -2, -2: 1}), 1)  # value 0 at t=1
    with pytest.raises(DomainError):
        normalize_delta(HalfLaurent({2: 1, 0: -1, -2: 1}), 2)  # value 1, not 2
    with pytest.raises(DomainError):
        normalize_delta(HalfLaurent.constant(1), 0)


def test_normalize_delta_unit_independence():
    rng = random.Random(29)
    fixtures = [
        HalfLaurent.constant(1),
        HalfLaurent({2: 1, 0: -1, -2: 1}),
        HalfLaurent({2: -1, 0: 3, -2: -1}),
        HalfLaurent({4: 1, 2: -3, 0: 5, -2: -3, -4: 1}),
    ]
    for _ in range(100):
        base = rng.choice(fixtures)
        h1 = int(base.evaluate(1))
        reference = normalize_delta(base, h1)
        j = rng.randint(-6, 6)
        sign = rng.choice((1, -1))
        unit_multiple = base.shift(j) * sign
        r = normalize_delta(unit_multiple, h1)
        assert r.polynomial == reference.polynomial
        assert r.z_form == reference.z_form


def test_basis_invariance_spot():
    p = [[1, 1], [0, 1]]
    from nabla_lmo.matrices import as_matrix, transpose

    conj = matmul(matmul(as_matrix(p), TREFOIL.entries), transpose(as_matrix(p)))
    assert nabla_from_seifert(SeifertMatrix(conj)).z_form == ZPoly(0, (1, 1))


def test_stabilization_spot():
    stabilized = SeifertMatrix(
        [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 0]]
    )
    assert nabla_from_seifert(stabilized).z_form == ZPoly(0, (1, 1))
