import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from oracles import (
    TORUS_KNOTS,
    adjugate_inverse,
    brieskorn_signature_pair,
    det_cofactor,
    matmul,
    positive_braid_seifert,
    random_symmetric_input,
    random_unimodular,
    signature_by_congruence,
    signature_by_descartes,
    torus_braid,
)
from nabla_lmo.cli import main
from nabla_lmo.errors import DomainError
from nabla_lmo.gaussian import gaussian_pair
from nabla_lmo.matrices import as_matrix, is_integral, rank, sub, submatrix, transpose
from nabla_lmo.surgery import (
    FramedLinkMatrix,
    signature_pair,
    surgery_transform,
)


def link(labels, surgery, rows):
    return FramedLinkMatrix(labels, surgery, rows)


def test_construction_validation():
    with pytest.raises(DomainError):
        link(["a", "a"], [], [[0, 1], [1, 0]])  # duplicate label
    with pytest.raises(DomainError):
        link(["a"], ["b"], [[0]])  # unknown surgery label
    with pytest.raises(DomainError):
        link(["a", "b"], [], [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(DomainError):
        link(["∂a"], [], [[0]])  # reserved prefix
    with pytest.raises(DomainError):
        link([""], [], [[0]])  # empty label
    with pytest.raises(DomainError):
        link(["a"], [], [[0, 1]])  # not square


def test_entry_lookup_is_order_independent():
    m = link(["a", "x"], ["x"], [[0, 2], [2, 5]])
    assert m.surgery_labels == ("x",)
    assert m.residual_labels == ("a",)
    # storage is surgery-first; entries follow labels, not input order
    assert m.labels == ("x", "a")
    assert m.entries == as_matrix([[5, 2], [2, 0]])
    assert link(["x", "a"], ["x"], [[5, 2], [2, 0]]) == m
    assert m.integral_surgery is True
    assert link(["x"], ["x"], [["1/2"]]).integral_surgery is False


def test_surgery_transform_examples():
    m = link(["a", "b"], [], [[1, 2], [2, 3]])
    assert surgery_transform(m) == as_matrix([[1, 2], [2, 3]])

    m = link(["x", "a"], ["x"], [[1, 1], [1, 0]])
    assert surgery_transform(m) == as_matrix([[-1]])

    m = link(["x", "a", "b"], ["x"], [[2, 0, 0], [0, 3, 1], [0, 1, 4]])
    assert surgery_transform(m) == as_matrix([[3, 1], [1, 4]])


def test_surgery_transform_singular_block():
    m = link(["x", "y", "a"], ["x", "y"], [[1, 1, 0], [1, 1, 0], [0, 0, 2]])
    with pytest.raises(DomainError) as err:
        surgery_transform(m)
    assert "x" in str(err.value) and "y" in str(err.value)

    # the residual row has a nonzero in the surgery column: a pivot taken
    # from it would hide the singular block and return a matrix
    m = link(["x", "a"], ["x"], [[0, 1], [1, 0]])
    message = "^singular surgery block over labels \\(x\\)$"
    with pytest.raises(DomainError, match=message):
        surgery_transform(m)
    with pytest.raises(DomainError, match=message):
        gaussian_pair(m)


def test_signature_examples():
    assert signature_pair([[1, 0], [0, 1]]) == (2, 0)
    assert signature_pair([[0, 1], [1, 0]]) == (1, 1)
    assert signature_pair([[2, 1], [1, 2]]) == (2, 0)
    assert signature_pair([]) == (0, 0)
    assert signature_pair([[0, 0], [0, -3]]) == (0, 1)


@pytest.mark.parametrize("p, q", TORUS_KNOTS + ((6, 7), (7, 8), (8, 9)))
def test_torus_knot_signatures_match_the_brieskorn_count(p, q):
    v = positive_braid_seifert(torus_braid(p, q))
    symmetrized = [[x + y for x, y in zip(row, col)] for row, col in zip(v, zip(*v))]
    assert signature_pair(symmetrized) == brieskorn_signature_pair(p, q)


def test_signature_sylvester_stability():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(0, 7)
        a = random_symmetric_input(rng, n)
        expected = signature_pair(a)
        assert expected == signature_by_congruence(a)
        if n <= 6:  # the cofactor expansion takes about 0.1 s at n = 7
            assert expected == signature_by_descartes(a)
        pos, neg = expected
        assert pos + neg == rank(a)
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if rank(as_matrix(p)) == n:
                break
        conj = matmul(matmul(as_matrix(p), a), transpose(as_matrix(p)))
        assert signature_pair(conj) == expected


def test_signature_of_a_hyperbolic_sum_at_size():
    """D + H^m, with D diagonal of both signs and H = [[0, 1], [1, 0]], has
    the signature of D plus (m, m). Conjugated by a unimodular P, and with
    its rows and columns interleaved by a seeded permutation: there the
    1 x 1 steps take D's diagonal and leave H^m, whose diagonal is zero, so
    only the 2 x 2 step finds its (m, m), whatever the pivot order."""
    rng = random.Random(60)
    k, m = 60, 10
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k - 2 * m)]
    block = [[0] * k for _ in range(k)]
    for i, x in enumerate(d):
        block[i][i] = x
    for i in range(k - 2 * m, k, 2):
        block[i][i + 1] = block[i + 1][i] = 1
    expected = (sum(x > 0 for x in d) + m, sum(x < 0 for x in d) + m)
    p = [[int(x) for x in row] for row in random_unimodular(rng, k, steps=k)]
    assert signature_pair(as_matrix(matmul(matmul(p, block), transpose(p)))) == expected
    order = list(range(k))
    rng.shuffle(order)
    assert signature_pair([[block[i][j] for j in order] for i in order]) == expected


def random_linking_input(rng):
    """A k0-6 r0-4 linking matrix: a ``random_symmetric_input`` surgery
    block (zero diagonals, singular blocks), half of them cleared to
    integers, bordered by entries with denominators 1, 2 and 5."""
    k, r = rng.randint(0, 6), rng.randint(0, 4)
    block = random_symmetric_input(rng, k)
    if rng.randrange(2):
        scale = lcm(*(x.denominator for row in block for x in row))
        block = tuple(tuple(x * scale for x in row) for row in block)
    a = [list(row) + [None] * r for row in block] + [[None] * (k + r) for _ in range(r)]
    for i in range(k + r):
        for j in range(max(i, k), k + r):
            a[i][j] = a[j][i] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5)))
    return k, r, as_matrix(a)


def test_surgery_command_matches_oracles(capsys, tmp_path):
    """`surgery` on seeded random links: the residual matrix by the block
    formula D - C A^-1 B, the signature by congruence diagonalization and
    |H_1| by cofactor expansion, printed only for an integral block; a
    singular block is one `error:` line and exit 1."""
    rng = random.Random(35)
    path = tmp_path / "link.json"
    seen = Counter()
    for _ in range(200):
        k, r, a = random_linking_input(rng)
        labels = [f"x{i}" for i in range(k)] + [f"a{i}" for i in range(r)]
        rows = [[str(x) for x in row] for row in a]
        path.write_text(json.dumps({"labels": labels, "surgery": labels[:k], "matrix": rows}))
        rc = main(["surgery", "--linking", str(path)])
        out, err = capsys.readouterr()
        top, rest = range(k), range(k, k + r)
        block = submatrix(a, top, top)
        block_det = det_cofactor(block)
        if block_det == 0:
            assert (rc, out, err.count("\n")) == (1, "", 1)
            assert err.startswith("error: singular surgery block")
            seen["singular"] += 1
            continue
        residual = submatrix(a, rest, rest)
        if k:
            left = matmul(submatrix(a, rest, top), adjugate_inverse(block))
            residual = sub(residual, matmul(left, submatrix(a, top, rest)))
        lines = ["labels:" + "".join(f" {x}" for x in labels[k:])]
        lines += [" ".join(str(x) for x in row) for row in residual]
        lines.append(f"signature: {signature_by_congruence(block)}")
        if is_integral(block):
            lines.append(f"h1_order: {abs(block_det)}")
            seen["integral"] += 1
        else:
            seen["fractional"] += 1
        seen["zero diagonal"] += k > 1 and not any(block[i][i] for i in top)
        assert (rc, out, err) == (0, "\n".join(lines) + "\n", ""), a
    assert min(seen.values()) >= 10, seen


def test_transitivity_small():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 1]]
    one_shot = surgery_transform(link(["x", "y", "a"], ["x", "y"], rows))
    stage1 = surgery_transform(link(["x", "y", "a"], ["x"], rows))
    stage2 = surgery_transform(link(["y", "a"], ["y"], stage1))
    assert stage2 == one_shot
