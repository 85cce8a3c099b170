"""The Conway-normalized Alexander polynomial from Seifert matrices.

For a Seifert matrix V of an ℓ-component link, the polynomial is
det(t^(1/2) V - t^(-1/2) V*), which always lies in z^(ℓ-1) · Q[z^2] for
z = t^(1/2) - t^(-1/2) and is fixed by t^(1/2) -> -t^(-1/2). For V of size
n it equals t^(-n/2) det(tV - V*), and det(tV - V*) is a polynomial in t of
degree at most n, whose coefficients `matrices.det_poly` gives: with the
denominators of V cleared once, one integer determinant at each of the
n+1 integers t = 0..n, then Newton interpolation on ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _terms, matrices
from .errors import DomainError
from .laurent import HalfLaurent, ZPoly, rewrite_in_z
from .seifert import SeifertMatrix


@dataclass(frozen=True)
class NablaResult:
    """A Conway-normalized polynomial with its z-form.

    ``z_form`` carries the prefactor z^(ℓ-1) of an ℓ-component link; its
    expansion equals ``polynomial`` exactly.
    """

    polynomial: HalfLaurent
    z_form: ZPoly


def nabla_from_seifert(v: SeifertMatrix, components: int = 1) -> NablaResult:
    """det(t^(1/2) V - t^(-1/2) V*) together with its z-form.

    DomainError when the size is incompatible with the component count
    (size = 2*genus + components - 1) or when the determinant fails to lie
    in z^(components-1) * Q[z^2].
    """
    if not isinstance(v, SeifertMatrix):
        v = SeifertMatrix(v)
    if components < 1:
        raise DomainError("a link has at least one component")
    rank = v.size - components + 1
    if rank < 0 or rank % 2 != 0:
        raise DomainError(
            f"size {v.size} is impossible for {components} components: "
            "need size = 2*genus + components - 1"
        )
    coeffs = matrices.det_poly(v.entries, matrices.transpose(v.entries))
    d = HalfLaurent({2 * k - v.size: c for k, c in enumerate(coeffs)})
    try:
        z_form = rewrite_in_z(d, components - 1)
    except DomainError:
        raise DomainError(
            f"determinant {d} does not lie in z^{components - 1}*Q[z^2]; "
            f"input is not a valid Seifert matrix for a {components}-component link"
        ) from None
    return NablaResult(d, z_form)


def normalize_delta(delta: HalfLaurent, h1_order: int) -> NablaResult:
    """Recover the Conway normalization from an Alexander polynomial known
    only up to units +-t^(i/2).

    There is at most one integer i making t^(i/2)*delta invariant under
    t^(1/2) -> -t^(-1/2); the sign is fixed by requiring the value at t = 1
    to be +h1_order (the order of first homology of the ambient manifold).
    """
    if h1_order < 1:
        raise DomainError("h1_order must be a positive integer")
    if delta.is_zero:
        raise DomainError("zero polynomial cannot be normalized (knot case only)")
    support = delta.support
    lo, hi = support[0], support[-1]
    if (lo + hi) % 2 != 0:
        raise DomainError("no symmetrizing shift t^(i/2) with integer i exists")
    shift = -(lo + hi) // 2
    shifted = delta.shift(shift)
    if shifted.involution() != shifted:
        raise DomainError(
            "polynomial is not symmetric under t^(1/2) -> -t^(-1/2) after shifting"
        )
    value = shifted.evaluate(1)
    if value == h1_order:
        eps = 1
    elif value == -h1_order:
        eps = -1
    elif value == 0:
        raise DomainError("value at t = 1 vanishes: link case, not supported here")
    else:
        raise DomainError(
            f"value at t = 1 is {_terms.text(value)}, not +-{h1_order}; inconsistent h1_order"
        )
    nabla = shifted * Fraction(eps, h1_order)
    return NablaResult(nabla, rewrite_in_z(nabla, 0))
