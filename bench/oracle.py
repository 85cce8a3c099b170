"""Reference arithmetic and output parsers used to check benchmark ops.

Nothing here imports nabla_lmo: determinants, block elimination and series
are recomputed on plain lists of Fractions, and the calculator's printed
output is parsed by this module's own term scanner.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial


# --- matrices -------------------------------------------------------------

def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        piv = a[c][c]
        d *= piv
        for r in range(c + 1, n):
            f = a[r][c] / piv
            if f:
                ar, ac = a[r], a[c]
                for j in range(c + 1, n):
                    ar[j] -= f * ac[j]
    return d


def conway_at(v, s: Fraction) -> Fraction:
    """det(s*V - s^-1*V^T), the Conway polynomial at t^(1/2) = s."""
    n = len(v)
    inv = 1 / Fraction(s)
    return det([[s * v[i][j] - inv * v[j][i] for j in range(n)] for i in range(n)])


def eliminate_leading(entries, k: int):
    """Bottom-right block left after row-eliminating the first k columns of
    a matrix whose leading k x k block is invertible."""
    a = [[Fraction(x) for x in row] for row in entries]
    n = len(a)
    for c in range(k):
        p = next(r for r in range(c, k) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c]
        for r in range(c + 1, n):
            f = a[r][c] / piv[c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], piv)]
    return [row[k:] for row in a[k:]]


# --- polynomials and series ----------------------------------------------

def z_poly_to_half_laurent(coeffs, prefactor: int = 0) -> dict[int, Fraction]:
    """Expand z^s * sum b_j z^(2j), z = t^(1/2) - t^(-1/2), into
    {half-exponent: coefficient} by the binomial theorem."""
    out: dict[int, Fraction] = {}
    for j, b in enumerate(coeffs):
        e = prefactor + 2 * j
        for i in range(e + 1):
            k = e - 2 * i
            out[k] = out.get(k, Fraction(0)) + Fraction(b) * comb(e, i) * (-1) ** i
    return {k: c for k, c in out.items() if c}


def eval_half_laurent(poly: dict[int, Fraction], s: Fraction) -> Fraction:
    return sum((c * Fraction(s) ** k for k, c in poly.items()), Fraction(0))


def s_mul(a, b, order: int):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def s_inverse(a, order: int):
    """1/a by the coefficient recurrence, for a[0] != 0."""
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / Fraction(a[0])
    for m in range(1, order + 1):
        out[m] = -out[0] * sum(
            (a[k] * out[m - k] for k in range(1, min(m, len(a) - 1) + 1)), Fraction(0)
        )
    return out


def s_log(a, order: int):
    """log a = integral of a'/a, for a[0] == 1."""
    a = list(a[: order + 1]) + [Fraction(0)] * (order + 1 - len(a))
    deriv = [m * a[m] for m in range(1, order + 1)]
    q = s_mul(deriv, s_inverse(a, order), order - 1) if order else []
    return [Fraction(0)] + [q[m - 1] / m for m in range(1, order + 1)]


def c_series(order: int):
    """h / (e^(h/2) - e^(-h/2)) as the inverse of sinh(h/2)/(h/2)."""
    sinh_ratio = [Fraction(0)] * (order + 1)
    for m in range(0, order + 1, 2):
        sinh_ratio[m] = Fraction(1, 2 ** m * factorial(m + 1))
    return s_inverse(sinh_ratio, order)


def exp_substitute(poly: dict[int, Fraction], order: int):
    """sum c_k e^(k h / 2): the Laurent polynomial at t^(1/2) = e^(h/2)."""
    return [
        sum((c * Fraction(k, 2) ** m for k, c in poly.items()), Fraction(0)) / factorial(m)
        for m in range(order + 1)
    ]


def wheels_of_series(f, order: int) -> dict[int, Fraction]:
    """Even-wheel exponents a_2n = -(1/2) [h^(2n)] log f."""
    lg = s_log(f, order)
    return {m: -lg[m] / 2 for m in range(2, order + 1, 2) if lg[m]}


def mmr_coeffs(poly: dict[int, Fraction], order: int):
    return s_mul(c_series(order), exp_substitute(poly, order), order)


def interpolate_conway(v) -> dict[int, Fraction]:
    """The whole polynomial det(t^(1/2) V - t^(-1/2) V^T) by Lagrange
    interpolation of the degree-n polynomial det(tV - V^T) at t = 1..n+1."""
    n = len(v)
    xs = list(range(1, n + 2))
    ys = [det([[x * v[i][j] - v[j][i] for j in range(n)] for i in range(n)]) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [Fraction(0)] + basis
                for d in range(len(basis) - 1):
                    basis[d] -= xj * basis[d + 1]
                denom *= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += yi * b / denom
    # t^d -> half-exponent 2d - n after dividing by t^(n/2)
    return {2 * d - n: c for d, c in enumerate(coeffs) if c}


# --- parsers for the calculator's printed output --------------------------

_SPLIT = re.compile(r" ([+-]) ")


def _signed_terms(text: str):
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _SPLIT.split(text)
    yield sign, parts[0]
    for i in range(1, len(parts), 2):
        yield (1 if parts[i] == "+" else -1), parts[i + 1]


def _coeff_mono(term: str, sep: str = "*"):
    if sep in term:
        c, mono = term.split(sep, 1)
        return Fraction(c), mono
    if term[0].isdigit():
        return Fraction(term), None
    return Fraction(1), term


def _power(mono: str | None, var: str) -> int | Fraction:
    if mono is None:
        return 0
    if mono == var:
        return 1
    if not mono.startswith(var + "^"):
        raise ValueError(f"unexpected monomial {mono!r}")
    e = mono[len(var) + 1:]
    if e.startswith("(") and e.endswith(")"):
        num, den = e[1:-1].split("/")
        return Fraction(int(num), int(den))
    return int(e)


def parse_t_poly(text: str) -> dict[int, Fraction]:
    """'a*t^(k/2) + ...' -> {half-exponent: coeff}."""
    if text.strip() == "0":
        return {}
    out: dict[int, Fraction] = {}
    for sign, term in _signed_terms(text):
        c, mono = _coeff_mono(term)
        k = int(2 * Fraction(_power(mono, "t")))
        out[k] = out.get(k, Fraction(0)) + sign * c
    return out


def parse_z_poly(text: str) -> dict[int, Fraction]:
    """'1 + a*z^2 + ...' -> {z-exponent: coeff}."""
    if text.strip() == "0":
        return {}
    out: dict[int, Fraction] = {}
    for sign, term in _signed_terms(text):
        c, mono = _coeff_mono(term)
        e = int(_power(mono, "z"))
        out[e] = out.get(e, Fraction(0)) + sign * c
    return out


def parse_h_series(text: str) -> tuple[list[Fraction], int | None]:
    """'... + O(h^N)' -> (coefficients c_0..c_(N-1), N-1); the zero series
    prints as '0', without its order."""
    if text.strip() == "0":
        return [], None
    body, _, tail = text.strip().rpartition(" + O(h^")
    order = int(tail.rstrip(")")) - 1
    cs = [Fraction(0)] * (order + 1)
    if body and body != "0":
        for sign, term in _signed_terms(body):
            c, mono = _coeff_mono(term)
            cs[int(_power(mono, "h"))] += sign * c
    return cs, order


def parse_wheels(text: str) -> dict[int, Fraction]:
    """'exp( a w2 - b w4 )' -> {2: a, 4: -b}."""
    text = text.strip()
    if not (text.startswith("exp( ") and text.endswith(" )")):
        raise ValueError(f"not a wheel series: {text[:40]!r}")
    body = text[5:-2]
    if body == "0":
        return {}
    out = {}
    for sign, term in _signed_terms(body):
        c, mono = _coeff_mono(term, " ") if " " in term else (Fraction(1), term)
        out[int(mono[1:])] = sign * c
    return out


def z_text(coeffs) -> str:
    """Render sum b_j z^(2j) the way a user would type it."""
    parts = []
    for j, b in enumerate(coeffs):
        if b:
            mono = "" if j == 0 else f"*z^{2 * j}"
            parts.append(f"{'+' if b > 0 else '-'}{abs(b)}{mono}")
    return "".join(parts).lstrip("+") or "0"


def t_text(poly: dict[int, Fraction]) -> str:
    """Render a Laurent polynomial in t^(1/2) as input text."""
    parts = []
    for k, c in sorted(poly.items()):
        mono = "" if k == 0 else (f"*t^{k // 2}" if k % 2 == 0 else f"*t^({k}/2)")
        parts.append(f"{'+' if c > 0 else '-'}{abs(c)}{mono}")
    return "".join(parts).lstrip("+") or "0"
