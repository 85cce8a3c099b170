"""Linking matrices of framed links and the effect of integral surgery.

A framed link here is just its symmetric linking matrix over a label set
split into surgery components X' and residual components X''. Integrating out
the surgery block is a Schur complement; its signature pair (which
normalizes the associated invariants) is the inertia that a symmetric
elimination counts pivot by pivot; its determinant counts first homology.
One pass of the elimination kernel of `matrices` yields all three.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import matrices
from .errors import DomainError
from .matrices import Matrix


class FramedLinkMatrix:
    """Symmetric rational linking matrix over labels X' (surgery) + X''.

    Entries are stored with the surgery labels first, in the order given.
    Labels must be unique, non-empty, and must not start with the reserved
    dual marker "∂".
    """

    __slots__ = ("_surgery", "_residual", "_entries")

    def __init__(self, labels: Sequence[str], surgery: Iterable[str], entries):
        labels = tuple(str(x) for x in labels)
        surgery = tuple(str(x) for x in surgery)
        if len(set(labels)) != len(labels):
            raise DomainError("duplicate labels")
        for lab in labels:
            if not lab or lab.startswith("∂"):
                raise DomainError(f"invalid label {lab!r}")
        if len(set(surgery)) != len(surgery) or any(x not in labels for x in surgery):
            raise DomainError("surgery labels must be a subset of the labels")
        try:
            m = matrices.as_matrix(entries)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"invalid linking matrix: {exc}") from None
        if not matrices.is_square(m) or len(m) != len(labels):
            raise DomainError("linking matrix shape does not match the labels")
        if not matrices.is_symmetric(m):
            raise DomainError("linking matrix must be symmetric")
        surgery_set = set(surgery)
        residual = tuple(x for x in labels if x not in surgery_set)
        order = [labels.index(x) for x in surgery + residual]
        self._surgery = surgery
        self._residual = residual
        self._entries = matrices.submatrix(m, order, order)

    @property
    def surgery_labels(self) -> tuple[str, ...]:
        return self._surgery

    @property
    def residual_labels(self) -> tuple[str, ...]:
        return self._residual

    @property
    def labels(self) -> tuple[str, ...]:
        return self._surgery + self._residual

    @property
    def entries(self) -> Matrix:
        return self._entries

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def integral_surgery(self) -> bool:
        """True when every framing (diagonal entry on X') is an integer."""
        k = len(self._surgery)
        return all(self._entries[i][i].denominator == 1 for i in range(k))

    @property
    def surgery_block(self) -> Matrix:
        k = len(self._surgery)
        return matrices.submatrix(self._entries, range(k), range(k))

    @property
    def residual_block(self) -> Matrix:
        k, n = len(self._surgery), self.size
        return matrices.submatrix(self._entries, range(k, n), range(k, n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FramedLinkMatrix):
            return NotImplemented
        return (
            self._surgery == other._surgery
            and self._residual == other._residual
            and self._entries == other._entries
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(surgery={self._surgery!r}, residual={self._residual!r})"
        )


def _integrate_out(m: FramedLinkMatrix, rows) -> tuple[Matrix, Fraction, tuple[int, int]]:
    """Schur complement of the leading X' block of ``rows``, with that
    block's det and signature pair; DomainError naming the labels when the
    block is singular."""
    try:
        return matrices.schur_complement(rows, len(m.surgery_labels))
    except ValueError:
        labels = ", ".join(m.surgery_labels)
        raise DomainError(f"singular surgery block over labels ({labels})") from None


def surgery_transform(m: FramedLinkMatrix) -> Matrix:
    """Linking matrix of the residual components after the surgery components
    are integrated out: the Schur complement of the X' block."""
    return _integrate_out(m, m.entries)[0]


def signature_pair(a) -> tuple[int, int]:
    """(number of positive, number of negative) eigenvalues of a symmetric
    rational matrix A, by Sylvester's law of inertia and Haynsworth's
    In(A) = In(B) + In(A/B), counted in one symmetric elimination pass: each
    leading block B is a nonzero diagonal entry of the Schur complement so
    far or, when its diagonal is zero, [[0, c], [c, 0]] of inertia (1, 1)."""
    am = matrices.as_matrix(a)
    if not matrices.is_square(am) or not matrices.is_symmetric(am):
        raise DomainError("signature needs a symmetric square matrix")
    return matrices._eliminate(am, len(am))[2]

