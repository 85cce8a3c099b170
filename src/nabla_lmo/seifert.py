"""Seifert matrices, their skew parts, and skew normal forms.

The skew part F = V - V* of a Seifert matrix V is the intersection pairing
of the spanning surface. Over the integers, F is congruent to a block sum of
hyperbolic blocks (0, d; -d, 0) with d_1 | d_2 | ... plus a zero block; the
d_i are the elementary divisors, and the size of the zero block is the
corank. The Smith form of F lists each d_i twice, so they are read off a
Smith reduction of F, every other invariant factor.
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
    """The congruence class of an integer skew matrix F: F is congruent to
    the block sum of (0, d_i; -d_i, 0) over the elementary divisors
    d_1 | d_2 | ..., followed by a zero block of size ``corank``.
    """

    elementary_divisors: tuple[int, ...]
    corank: int


def skew_normal_form(f) -> SkewNormalForm:
    """Elementary divisors and corank of an integer skew-symmetric matrix.

    F is congruent to the block sum of (0, d_i; -d_i, 0) and a zero block
    (Newman, Integral Matrices, IV.1), so its Smith form is
    diag(d_1, d_1, d_2, d_2, ..., 0, ...): the invariant factors come in equal
    pairs, and every other one is an elementary divisor. The reduction uses
    independent row and column operations: an entry of least nonzero absolute
    value in the remaining block becomes the pivot, and its row and column are
    reduced modulo it until both are clear. A pivot that does not divide the
    remaining block gets a row holding an offending entry added to its own,
    and the reduction goes on.
    """
    fm = matrices.as_matrix(f)
    if not matrices.is_square(fm):
        raise DomainError("skew normal form needs a square matrix")
    if not matrices.is_integral(fm):
        raise DomainError("skew normal form needs an integer matrix")
    n = len(fm)
    b = [[int(x) for x in row] for row in fm]
    if any(b[i][j] != -b[j][i] for i in range(n) for j in range(i, n)):
        raise DomainError("matrix is not skew-symmetric")
    # rows and columns before c are clear off the diagonal, so every operation
    # works on rows and columns c.. only
    factors: list[int] = []
    while len(factors) < n:
        c = len(factors)
        least, top = 0, c
        for r in range(c, n):
            m = min(map(abs, filter(None, b[r][c:])), default=0)
            if m and (not least or m < least):
                least, top = m, r
        if not least:
            break
        b[c], b[top] = b[top], b[c]
        pivot = b[c]
        j = next(j for j in range(c, n) if abs(pivot[j]) == least)
        if j != c:
            for row in b[c:]:
                row[c], row[j] = row[j], row[c]
        p = pivot[c]
        tail = pivot[c:]
        clear = True
        for row in b[c + 1 :]:
            q = row[c] // p
            if q:
                row[c:] = [x - q * y for x, y in zip(row[c:], tail)]
            clear = clear and not row[c]
        for k in range(c + 1, n):
            q = pivot[k] // p
            if q:
                for row in b[c:]:
                    row[k] -= q * row[c]
            clear = clear and not pivot[k]
        if not clear:
            continue
        if least > 1:
            bad = next((row for row in b[c + 1 :] if any(x % p for x in row[c + 1 :])), None)
            if bad is not None:
                b[c] = [x + y for x, y in zip(pivot, bad)]
                continue
        factors.append(least)
    return SkewNormalForm(tuple(factors[::2]), n - len(factors))


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
