"""Seifert matrices, their skew parts, and skew normal forms.

The skew part F = V - V* of a Seifert matrix V is the intersection pairing
of the spanning surface. Over the integers, F is congruent to a block sum of
hyperbolic blocks (0, d; -d, 0) with d_1 | d_2 | ... plus a zero block; the
d_i are the elementary divisors computed here, and the size of the zero block
is the corank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import matrices
from .errors import DomainError
from .matrices import Matrix


class SeifertMatrix:
    """A square rational matrix regarded as a Seifert matrix."""

    __slots__ = ("_entries",)

    def __init__(self, rows):
        try:
            entries = matrices.as_matrix(rows)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"invalid Seifert matrix: {exc}") from None
        if not matrices.is_square(entries):
            raise DomainError("Seifert matrix must be square")
        self._entries = entries

    @property
    def entries(self) -> Matrix:
        return self._entries

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def integral(self) -> bool:
        return matrices.is_integral(self._entries)

    @property
    def skew_part(self) -> Matrix:
        """F = V - V*."""
        return matrices.sub(self._entries, matrices.transpose(self._entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __repr__(self) -> str:
        return f"SeifertMatrix({[[str(x) for x in row] for row in self._entries]!r})"


@dataclass(frozen=True)
class SkewNormalForm:
    """Result of reducing an integer skew matrix F by unimodular congruence:
    F is congruent to the block sum of (0, d_i; -d_i, 0) over the elementary
    divisors d_1 | d_2 | ..., followed by a zero block of size ``corank``.
    """

    elementary_divisors: tuple[int, ...]
    corank: int


def skew_normal_form(f) -> SkewNormalForm:
    """Normal form of an integer skew-symmetric matrix under congruence.

    Pivoting is deterministic: the entry of smallest nonzero absolute value
    wins, ties broken by lowest (row, column). Row operations are always
    paired with the matching column operations, so each step is a unimodular
    congruence and the elementary divisors of the input are kept.
    """
    fm = matrices.as_matrix(f)
    if not matrices.is_square(fm):
        raise DomainError("skew normal form needs a square matrix")
    if not matrices.is_integral(fm):
        raise DomainError("skew normal form needs an integer matrix")
    if not matrices.is_skew_symmetric(fm):
        raise DomainError("matrix is not skew-symmetric")
    n = len(fm)
    b = [[int(x) for x in row] for row in fm]

    def swap(i: int, j: int) -> None:
        b[i], b[j] = b[j], b[i]
        for r in range(n):
            b[r][i], b[r][j] = b[r][j], b[r][i]

    def row_op(i: int, j: int, c: int) -> None:
        # row_i += c*row_j paired with col_i += c*col_j
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        for r in range(n):
            b[r][i] += c * b[r][j]

    def find_pivot(start: int) -> Optional[tuple[int, int]]:
        best = None
        for i in range(start, n):
            for j in range(i + 1, n):
                if b[i][j] != 0 and (best is None or abs(b[i][j]) < abs(b[best[0]][best[1]])):
                    best = (i, j)
        return best

    divisors: list[int] = []
    c = 0
    while c + 1 < n:
        pivot = find_pivot(c)
        if pivot is None:
            break
        i, j = pivot
        if i != c:
            swap(i, c)  # j > i >= c, so the second index is untouched
        if j != c + 1:
            swap(j, c + 1)
        if b[c][c + 1] < 0:
            swap(c, c + 1)
        d = b[c][c + 1]
        # Clear columns c and c+1 below the pivot block; leftover residues are
        # strictly smaller than d, so re-picking the pivot terminates.
        clean = True
        for k in range(c + 2, n):
            q = b[k][c + 1] // d
            if q:
                row_op(k, c, -q)
            if b[k][c + 1] != 0:
                clean = False
            q = b[k][c] // d
            if q:
                row_op(k, c + 1, q)
            if b[k][c] != 0:
                clean = False
        if not clean:
            continue
        # Enforce d | (remaining block) so the divisors form a chain.
        bad = next(
            ((i2, j2) for i2 in range(c + 2, n) for j2 in range(i2 + 1, n) if b[i2][j2] % d != 0),
            None,
        )
        if bad is not None:
            row_op(c, bad[0], 1)
            continue
        divisors.append(d)
        c += 2
    return SkewNormalForm(tuple(divisors), n - 2 * len(divisors))


@dataclass(frozen=True)
class RealizabilityReport:
    """Surface data read off a Seifert matrix.

    ``realizable_in_s3`` is None for non-integral matrices, where the
    elementary-divisor test does not apply.
    """

    realizable_in_s3: Optional[bool]
    genus: int
    boundary_components: int


def realizability_report(v: SeifertMatrix) -> RealizabilityReport:
    """Genus and boundary count of the spanning surface, plus the standard
    realizability test: an integral V arises from a surface in S^3 exactly
    when every elementary divisor of F equals 1."""
    f = v.skew_part
    if v.integral:
        snf = skew_normal_form(f)
        genus = len(snf.elementary_divisors)
        boundary = snf.corank + 1
        realizable: Optional[bool] = all(d == 1 for d in snf.elementary_divisors)
    else:
        r = matrices.rank(f)
        genus = r // 2
        boundary = (v.size - r) + 1
        realizable = None
    return RealizabilityReport(realizable, genus, boundary)
