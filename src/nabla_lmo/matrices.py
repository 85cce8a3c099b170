"""Exact matrices over the rationals, stored as tuples of tuples.

`det`, `rank`, `schur_complement` and `det_poly` share one elimination
kernel. It scales each row once by the lcm of its denominators and then runs
integer fraction-free (Bareiss) elimination on plain ints: every
intermediate entry is a minor of the scaled matrix, so each division is
exact and no Fraction is built until the answer. A general pivot block gets
row pivoting; a symmetric one gets symmetric pivoting, which also counts its
inertia; `schur_complement` returns its pivot block's det and inertia with the
complement, so one pass serves `surgery`. det(t*P - Q) is interpolated from
determinants of int matrices: `det_poly` clears the denominators of P and
Q once, and its evaluation, differences and expansion run on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


def _frac(value) -> Fraction:
    # Fractions are immutable, so one that is given is shared, not copied
    if isinstance(value, Fraction):
        return value
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


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def _eliminate(
    rows, width: int, pivot_rows: int | None = None
) -> tuple[int, Fraction, tuple[int, int] | None, list[list[int]], list[int]]:
    """Bareiss elimination of rational ``rows`` over their first ``width``
    columns. Pivots are taken from the first ``pivot_rows`` rows only (all
    rows by default), so the rows below are eliminated but never swapped up;
    those rows and the first ``width`` columns form the pivot block.

    A general pivot block gets row pivoting, and columns without a pivot are
    skipped. A symmetric one gets symmetric pivoting instead: a nonzero
    diagonal entry of the remaining block is brought to the front by a row
    and column swap; when the diagonal is zero but entry (i, j) is not, i and
    j go to the next two places and the row search pivots on (j, i) and then
    on (i, j); a zero remaining block ends the pass. The remaining block is
    p * m_i * S, p the last pivot, m_i the row scale and S the Schur
    complement so far, so a 1 x 1 step adds sign(S_ii) to the inertia and a
    2 x 2 step, [[0, c], [c, 0]] up to congruence, adds (1, 1).

    Returns (rank, det, inertia, work, scales): ``work`` holds row i scaled
    by the lcm ``scales[i]`` of its denominators, then permuted and
    eliminated; ``det`` is the determinant of the pivot block when it is
    square and 0 when it is singular; ``inertia`` is its (positive,
    negative) eigenvalue count when it is symmetric and None otherwise.
    """
    work, scales = [], []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        scales.append(m)
        work.append([x.numerator * (m // x.denominator) for x in row])
    limit = len(work) if pivot_rows is None else pivot_rows
    # a_ij = a_ji exactly when the scaled entries satisfy w_ij m_j = w_ji m_i
    symmetric = limit == width and all(
        work[i][j] * scales[j] == work[j][i] * scales[i] for i in range(width) for j in range(i)
    )
    pos = neg = 0
    paired = False  # the second pivot of a 2 x 2 step needs no search
    sign, prev, r = 1, 1, 0
    for c in range(width):
        if paired:
            paired = False
        elif symmetric:
            head = next(([i] for i in range(c, width) if work[i][i]), None) or next(
                ([i, j] for i in range(c, width) for j in range(i + 1, width) if work[i][j]), []
            )
            if not head:
                break
            for place, i in enumerate(head, c):
                if i != place:
                    work[place], work[i] = work[i], work[place]
                    scales[place], scales[i] = scales[i], scales[place]
                    for row in work:
                        row[place], row[i] = row[i], row[place]
            paired = len(head) == 2
            pos += paired or work[c][c] * prev > 0
            neg += paired or work[c][c] * prev < 0
        piv = next((i for i in range(r, limit) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            scales[r], scales[piv] = scales[piv], scales[r]
            sign = -sign
        p, pivot_row = work[r][c], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c]
            work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], pivot_row)]
        prev = p
        r += 1
    det = Fraction(sign * prev, prod(scales[:limit])) if r == width == limit else Fraction(0)
    return r, det, (pos, neg) if symmetric else None, work, scales


def schur_complement(a, k: int) -> tuple[Matrix, Fraction, tuple[int, int] | None]:
    """(D - C A^-1 B, det A, inertia of A) for a = [[A, B], [C, D]], A the
    leading k x k block, its inertia None unless A is symmetric; ValueError
    when A is singular. After k steps with pivots from A's rows, the work
    entry (i, j) below and right of A is p_k * m_i times it, p_k the last
    pivot and m_i the scale of row i (Sylvester's identity)."""
    r, block_det, inertia, work, scales = _eliminate(a, k, k)
    if r < k:
        raise ValueError("singular matrix")
    p = work[k - 1][k - 1] if k else 1
    rest = tuple(
        tuple(Fraction(x, p * m) for x in row[k:]) for row, m in zip(work[k:], scales[k:])
    )
    return rest, block_det, inertia


def det(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    return _eliminate(a, len(a))[1]


def rank(a: Matrix) -> int:
    return _eliminate(a, len(a[0]) if a else 0)[0]


def det_poly(p: Matrix, q: Matrix) -> list[Fraction]:
    """Coefficients, lowest first, of det(t*P - Q) for square P and Q of
    size n. With L the lcm of all denominators of P and Q, f(t) =
    det(t*LP - LQ) = L^n det(t*P - Q) has integer coefficients, and its
    values at t = 0..n, one determinant of an int matrix each, fix it.
    Newton forward differences then stay integral (Δ^k f(0) / k! is an
    integer for an integer polynomial f), so every division is exact; the
    Newton form is expanded by Horner's rule, and only the n + 1
    coefficients are divided by L^n."""
    n = len(p)
    scale = lcm(*(x.denominator for a in (p, q) for row in a for x in row))
    lp, lq = (
        [[x.numerator * (scale // x.denominator) for x in row] for row in a] for a in (p, q)
    )
    diffs = [
        det([[t * x - y for x, y in zip(rp, rq)] for rp, rq in zip(lp, lq)]).numerator
        for t in range(n + 1)
    ]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) // k
    coeffs: list[int] = []
    for k in range(n, -1, -1):
        # coeffs <- coeffs * (t - k) + diffs[k]
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= k * coeffs[j + 1]
        coeffs[0] += diffs[k]
    return [Fraction(c, scale**n) for c in coeffs]
