"""Strut algebra and formal Gaussian integration over surgery labels.

A strut is an edge with two labeled ends; struts over a fixed label set
generate a commutative polynomial algebra, with a monomial stored as a sorted
multiset of sorted label pairs. Exponentials of quadratic forms in struts
encode linking data; such a quadratic, a `StrutQuadratic`, is the linking
matrix of a framed link with no surgery components. Pairing a strut
polynomial with legs labeled in X'' ∪ X' against a polynomial of dual
(∂-labeled) struts glues every X' leg to a ∂ leg of the same color in all
possible ways; on exponentials of quadratics this reproduces the Schur
complement of the X' block. Both routes are implemented so each can check
the other.

Degrees count struts, matching the half-vertex grading of diagram algebras.
When truncating the left pairing factor, a mixed strut (one X'' leg, one X'
leg) weighs 1/2: gluing consumes mixed struts in pairs, each surviving output
strut eating two of them, so this weight makes truncated pairings agree
exactly with the truncated closed form. Truncation counts in half-strut
units, so a strut costs 2, a mixed strut 1, and degree d allows floor(2d).
The pairing of the degree-1 factors needs no further cut: a left monomial
holds at most two mixed struts and a right one at most one ∂-strut, so
every glued monomial has at most one strut, and `gaussian_pair` reads the
exponent off it.

Truncated exponentials are built one monomial at a time: each monomial is a
non-decreasing sequence of struts whose costs fit the budget, reached once,
with its coefficient prod c^k/k! extended by one factor per strut. Gluing is
a contraction: each ∂-strut acts as a second derivative, taking one remaining
leg at each end, weighted by the number of legs with that color and partner
label it could have taken; so interchangeable legs are counted, not
enumerated. A left monomial meets only the right monomials with the same leg
count in every color.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import floor
from typing import Iterable, Sequence, Union

from . import _terms, matrices
from .errors import DomainError
from .matrices import Matrix
from .surgery import FramedLinkMatrix, _integrate_out, surgery_transform

Scalar = Union[int, Fraction]
Strut = tuple[str, str]
Term = tuple[Strut, ...]

DUAL_MARK = "∂"

#: Largest count k·r of mixed linking pairs (k surgery, r residual components)
#: ``aarhus-struts --route wick|both`` accepts; k = 0 counts as k = 1, since
#: the r(r+1)/2 residual struts are still expanded. On a 2-vCPU Xeon host with
#: Python 3.11, ``--route wick`` on dense links takes 8.7 s at k1 r600, 2.4 s
#: at k24 r25 and 6.3 s at k150 r4; at k·r = 900, 5.2 s at k30 r30 but 20 s
#: at k1 r900.
MAX_WICK_PAIRS = 600


def dual_label(label: str) -> str:
    """The ∂-label glued against ordinary legs of the same color."""
    return DUAL_MARK + label


def _strut(a: str, b: str) -> Strut:
    return (a, b) if a <= b else (b, a)


def _term(struts: Iterable[Strut]) -> Term:
    return tuple(sorted(_strut(a, b) for a, b in struts))


class StrutPolynomial(_terms.TermPoly):
    """A polynomial in commuting struts with rational coefficients."""

    __slots__ = ()
    _key = staticmethod(_term)
    _combine = staticmethod(_terms.sorted_union)
    _unit = ()

    def __str__(self) -> str:
        return _terms.signed_sum(
            (c, "*".join(f"s({a},{b})" for a, b in term) or None) for term, c in self.items()
        )


class StrutQuadratic(FramedLinkMatrix):
    """exp((1/2) * sum_ij q_ij s(i,j)) presented by its symmetric matrix q:
    the strut part of a framed link with no surgery components, so the
    labels and q obey the `FramedLinkMatrix` rules."""

    __slots__ = ()

    def __init__(self, labels: Sequence[str], q):
        super().__init__(labels, (), q)

    def expand(self, max_degree: int) -> StrutPolynomial:
        """The exponential expanded as a strut polynomial of degree <= max_degree."""
        return _exp_linear(_form_entries(self.labels, self.entries), max_degree)


def _form_entries(labels: Sequence[str], q: Matrix) -> list[tuple[Strut, Fraction, int]]:
    """The exponent (1/2) * sum_ij q_ij s(i,j) of a symmetric form as
    _exp_linear entries: one per nonzero entry of the upper triangle, the
    diagonal halved, each of cost 2."""
    entries = []
    for i, a in enumerate(labels):
        for j in range(i, len(labels)):
            c = q[i][j] if i != j else q[i][i] / 2
            if c != 0:
                entries.append((_strut(a, labels[j]), c, 2))
    return entries


def _exp_linear(
    entries: Sequence[tuple[Strut, Fraction, int]], max_degree: Scalar
) -> StrutPolynomial:
    """exp(sum of coeff*strut), keeping monomials of degree <= max_degree.

    entries lists (strut, coefficient, cost) with the cost in half-strut
    units; a monomial taking k_i copies of strut i costs sum k_i * cost_i,
    is kept when that is at most floor(2 * max_degree), and has coefficient
    prod c_i^k_i / k_i!. Each monomial is visited once, as a non-decreasing
    sequence of indices into the entries sorted by strut, so its struts come
    out sorted; its coefficient grows by c/k when the k-th copy of a strut
    is appended.
    """
    budget = floor(2 * Fraction(max_degree))
    if budget < 0:
        return StrutPolynomial.zero()
    ordered = sorted(entries, key=lambda e: e[0])
    struts = [s for s, _, _ in ordered]
    costs = [cost for _, _, cost in ordered]
    # steps[j][k - 1] = c_j / k: the factor added by the k-th copy of strut j
    steps = [
        [Fraction(c) / k for k in range(1, budget // cost + 1)]
        for (_, c, _), cost in zip(ordered, costs)
    ]
    # entry indices by cost, so a monomial scans only the entries that fit
    by_cost: dict[int, list[int]] = {}
    for j, cost in enumerate(costs):
        by_cost.setdefault(cost, []).append(j)
    acc: dict[Term, Fraction] = {}
    # (monomial, coefficient, budget left, index of its last strut, copies of it)
    pending = [((), Fraction(1), budget, 0, 0)]
    while pending:
        term, coeff, left, last, copies = pending.pop()
        acc[term] = acc.get(term, 0) + coeff
        for cost, fits in by_cost.items():
            if cost > left:
                continue
            for j in fits[bisect_left(fits, last):]:
                k = copies + 1 if j == last else 1
                factor = steps[j][k - 1]
                pending.append((term + (struts[j],), coeff * factor, left - cost, j, k))
    return StrutPolynomial._from_normalized(acc)


def strut_part_of_aarhus(m: FramedLinkMatrix) -> StrutQuadratic:
    """Strut exponent left after integrating out the surgery components,
    by the closed matrix route: exp((1/2) * Schur complement). The Schur
    complement is the linking matrix of the residual components, now a
    framed link with no surgery components.

    Requires integral framings on the surgery components.
    """
    if not m.integral_surgery:
        raise DomainError("surgery framings must be integers")
    return StrutQuadratic(m.residual_labels, surgery_transform(m))


def left_pairing_factor(m: FramedLinkMatrix, max_degree: Scalar) -> StrutPolynomial:
    """Truncated exp of the residual-residual and mixed strut part of the
    linking data. Mixed struts weigh 1/2 toward the truncation bound."""
    e = m.entries
    k = len(m.surgery_labels)
    res = m.residual_labels
    entries = _form_entries(res, m.residual_block)
    for i, a in enumerate(res):
        for x, lab in enumerate(m.surgery_labels):
            c = e[k + i][x]
            if c != 0:
                entries.append((_strut(a, lab), c, 1))
    return _exp_linear(entries, max_degree)


def right_pairing_factor(m: FramedLinkMatrix, max_degree: int) -> StrutPolynomial:
    """Truncated exp(-(1/2) * sum l^xy s(∂x,∂y)) over the inverse of the
    surgery block; this is the Gaussian weight glued against X' legs."""
    # the Schur complement of A in [[A, I], [I, 0]] is -A^-1
    eye = matrices.identity(len(m.surgery_labels))
    bordered = [a + e for a, e in zip(m.surgery_block, eye)] + [e + (0,) * len(e) for e in eye]
    neg_inv = _integrate_out(m, bordered)[0]
    entries = _form_entries([dual_label(x) for x in m.surgery_labels], neg_inv)
    return _exp_linear(entries, max_degree)


def wick_pair(
    left: StrutPolynomial, right: StrutPolynomial, glue_labels: Sequence[str]
) -> StrutPolynomial:
    """Glue every x-labeled leg of ``left`` to a ∂x-labeled leg of ``right``.

    Monomial pairs whose leg counts disagree for some color contribute zero.
    Struts of ``left`` with both legs in the glue set would close up into
    circles and are rejected; ``right`` may contain ∂-labeled struts only.
    The result is bilinear in both arguments.

    Each right monomial acts as a product of second derivatives; see
    ``_contract``. Right monomials are grouped by their leg counts per
    color; the grouping is built after the first left monomial has been
    checked, so a zero left factor never inspects the right one.
    """
    glue = tuple(dict.fromkeys(str(x) for x in glue_labels))
    gset = set(glue)
    dual_of = {dual_label(x): x for x in glue}
    # right monomials by leg count per color: (end colors per strut, coefficient)
    by_counts: dict[frozenset, list[tuple[list[Strut], Fraction]]] | None = None

    acc: dict[Term, Fraction] = {}
    for lterm, lc in left.items():
        pure: list[Strut] = []
        # per glue color that has legs: partner label -> number of legs
        legs: dict[str, dict[str, int]] = {}
        for a, b in lterm:
            if a.startswith(DUAL_MARK) or b.startswith(DUAL_MARK):
                raise DomainError("left factor must not contain ∂-labeled legs")
            a_glued, b_glued = a in gset, b in gset
            if a_glued and b_glued:
                raise DomainError(
                    f"left factor contains the strut ({a},{b}) with both legs "
                    "among the glue labels; gluing it would close a circle"
                )
            if a_glued or b_glued:
                x, partner = (a, b) if a_glued else (b, a)
                on_x = legs.setdefault(x, {})
                on_x[partner] = on_x.get(partner, 0) + 1
            else:
                pure.append((a, b))
        if by_counts is None:
            by_counts = {}
            for rterm, rc in right.items():
                ends: list[Strut] = []
                for a, b in rterm:
                    if a not in dual_of or b not in dual_of:
                        raise DomainError(
                            f"right factor strut ({a},{b}) is not a ∂-labeled strut "
                            "over the glue labels"
                        )
                    ends.append((dual_of[a], dual_of[b]))
                count = Counter(x for end in ends for x in end)
                by_counts.setdefault(frozenset(count.items()), []).append((ends, rc))
        shape = frozenset((x, sum(on_x.values())) for x, on_x in legs.items())
        for ends, rc in by_counts.get(shape, ()):
            gluings: dict[Term, int] = {}
            _contract(ends, legs, pure, [], 1, gluings)
            weight = lc * rc
            for key, n in gluings.items():
                acc[key] = acc.get(key, 0) + weight * n
    return StrutPolynomial._from_normalized(_terms.drop_zeros(acc))


def _contract(
    ends: Sequence[Strut], legs: dict[str, dict[str, int]], pure: list[Strut],
    glued: list[Strut], ways: int, gluings: dict[Term, int],
) -> None:
    """Apply the ∂-struts ``ends[len(glued):]`` to the remaining ``legs`` and
    add to ``gluings`` how many ways reach each monomial.

    The ∂-strut with end colors (x, y) takes one x-leg with partner a and one
    y-leg with partner b, in ca * cb ways when the legs left number ca and cb,
    and adds the strut s(a,b); so every bijection between legs and ∂-legs is
    counted once. Counts are restored on return. The recursion is as deep as
    the right monomial has struts, which the truncation degree bounds.
    """
    if len(glued) == len(ends):
        key = tuple(sorted(pure + glued))
        gluings[key] = gluings.get(key, 0) + ways
        return
    x, y = ends[len(glued)]
    on_x, on_y = legs[x], legs[y]
    for a, ca in [(a, ca) for a, ca in on_x.items() if ca]:
        on_x[a] = ca - 1
        for b, cb in [(b, cb) for b, cb in on_y.items() if cb]:
            on_y[b] = cb - 1
            glued.append(_strut(a, b))
            _contract(ends, legs, pure, glued, ways * ca * cb, gluings)
            glued.pop()
            on_y[b] = cb
        on_x[a] = ca


def gaussian_pair(m: FramedLinkMatrix) -> StrutQuadratic:
    """Strut exponent after integrating out the surgery components, computed
    by enumerating gluings instead of the matrix identity.

    The pairing of the exponentials is again the exponential of a quadratic,
    so its degree-1 part determines the exponent; pairing the degree-1
    factors gives exactly that part.
    """
    left = left_pairing_factor(m, Fraction(1))
    right = right_pairing_factor(m, 1)
    paired = wick_pair(left, right, m.surgery_labels)
    res = m.residual_labels
    index = {lab: i for i, lab in enumerate(res)}
    n = len(res)
    q = [[Fraction(0)] * n for _ in range(n)]
    for term, c in paired.items():
        if not term:
            if c != 1:
                raise DomainError("pairing lost normalization; constant term != 1")
            continue
        (a, b), = term
        i, j = index[a], index[b]
        if i == j:
            q[i][i] = 2 * c
        else:
            q[i][j] = c
            q[j][i] = c
    return StrutQuadratic(res, q)
