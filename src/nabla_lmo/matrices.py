"""Exact matrices over the rationals, stored as tuples of tuples.

`det`, `rank` and `inverse` share one elimination kernel. It scales each
row once by the lcm of its denominators and then runs integer fraction-free
(Bareiss) elimination on plain ints: every intermediate entry is a minor of
the scaled matrix, so each division is exact and no Fraction is built until
the answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


def _frac(value) -> Fraction:
    if isinstance(value, (float, complex)):
        raise TypeError("floating point entries are not accepted")
    return Fraction(value)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    """Coerce nested ints/strings/Fractions to an immutable rational matrix."""
    out = tuple(tuple(_frac(v) for v in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def submatrix(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def is_square(a: Matrix) -> bool:
    return all(len(row) == len(a) for row in a)


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def is_skew_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == -a[j][i] for i in range(n) for j in range(i, n))


def is_integral(a: Matrix) -> bool:
    return all(x.denominator == 1 for row in a for x in row)


def _eliminate(rows, width: int, reduce: bool = False) -> tuple[int, Fraction, list[list[int]]]:
    """Bareiss elimination of rational ``rows`` over their first ``width``
    columns, with row pivoting; columns without a pivot are skipped. With
    ``reduce`` the rows above each pivot are cleared too (fraction-free
    Gauss-Jordan), so a nonsingular square block ends as d*I, d the last
    pivot.

    Returns (rank, det, work); ``det`` is the determinant of ``rows`` when
    they are ``width`` square, and 0 when that block is singular.
    """
    work = []
    scale = 1
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        scale *= m
        work.append([x.numerator * (m // x.denominator) for x in row])
    sign, prev, r = 1, 1, 0
    for c in range(width):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        p, pivot_row = work[r][c], work[r]
        for i in range(0 if reduce else r + 1, len(work)):
            if i != r:
                f = work[i][c]
                work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], pivot_row)]
        prev = p
        r += 1
    full = r == width == len(work)
    return r, Fraction(sign * prev, scale) if full else Fraction(0), work


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination; ValueError
    when singular. The right half ends as d*A^-1, d the last pivot."""
    n = len(a)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    r, _, work = _eliminate(augmented, n, reduce=True)
    if r < n:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(work))


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free elimination with row pivoting."""
    return _eliminate(a, len(a))[1]


def rank(a: Matrix) -> int:
    return _eliminate(a, len(a[0]) if a else 0)[0]
