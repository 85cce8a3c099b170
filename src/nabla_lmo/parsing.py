"""Text and file input: polynomial expressions and JSON matrix files.

The expression grammar accepts sums of signed terms ``[coeff][*]var[^exp]``
where coeff is a rational p or p/q and exponents are integers (``t^-1``,
``z^4``), parenthesized integers, or half-integers ``t^(k/2)``. Each entry
point reads one variable plus constants (``parse_half_laurent`` t, the one
variable with negative and half-integer exponents; ``parse_z_poly`` z;
``parse_h_series`` h), and any other variable is a syntax error at its
position. z exponents, and the z-degree of a t-expression's Conway form
(half the span of its t^(1/2) exponents), are at most ``MAX_ORDER``;
integers past Python's int conversion limit and zero denominators are
rejected. Whitespace is ignored everywhere. h-series text may end in the
``+ O(h^N)`` marker produced by the renderer.

Matrix files are JSON with rational entries written as strings ("-1",
"1/2") or plain integers; floating point numbers and exponent notation
("1e5") are rejected.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _terms
from .errors import DomainError, ParseError
from .limits import MAX_LINK_LABELS, MAX_ORDER, MAX_TOR_DIGITS

if TYPE_CHECKING:
    from .hseries import HSeries
    from .laurent import HalfLaurent, ZPoly
    from .mmr import LmoWheelData
    from .seifert import SeifertMatrix
    from .surgery import FramedLinkMatrix
    from .wheels import WheelSeries

_TERM = re.compile(
    r"""
    (?P<sign>[+-])?
    (?:
        (?P<num>\d+)(?:/(?P<den>0*[1-9]\d*))?
        (?:\*(?=[tzh]))?
    )?
    (?:
        (?P<var>[tzh])
        (?:\^
            (?:
                (?P<iexp>-?\d+)
              | \((?P<pnum>-?\d+)(?:/(?P<pden>\d+))?\)
            )
        )?
    )?
    """,
    re.VERBOSE,
)

_O_TAIL = re.compile(r"\+O\(h\^(\d+)\)$")


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"syntax error at position {pos}: integer longer than {limit} digits"
        ) from None


def _scan_terms(text: str, var: str) -> tuple[dict[int, Fraction], int | None]:
    """The terms of an expression in ``var`` and constants, summed by exponent
    with zero sums dropped, and N - 1 for a trailing ``+ O(h^N)`` marker (None
    without one).

    A constant has exponent 0. Only t takes negative and /2 exponents, and a
    t exponent counts halves (the key of t^(1/2)); only h text may carry the
    marker. Errors carry the position in the whitespace-stripped text.
    """
    stripped = re.sub(r"\s+", "", text)
    tail = _O_TAIL.search(stripped)
    o_order = None
    if tail:
        if var != "h":
            raise ParseError("O(h^N) marker is only meaningful for h-series")
        o_order = _int(tail.group(1), tail.start(1)) - 1
        stripped = stripped[: tail.start()]
    if not stripped:
        raise ParseError("empty expression")
    powers: dict[int, Fraction] = {}
    pos = 0
    while pos < len(stripped):
        m = _TERM.match(stripped, pos)
        if not m or m.end() == pos:
            raise ParseError(f"syntax error at position {pos}: {stripped[pos:pos + 10]!r}")
        if m.group("num") is None and m.group("var") is None:
            raise ParseError(f"syntax error at position {pos}: expected a term")
        if pos and m.group("sign") is None:
            raise ParseError(f"syntax error at position {pos}: expected '+' or '-'")
        if m.group("var") not in (None, var):
            raise ParseError(f"syntax error at position {m.start('var')}: expected variable {var}")
        num, den = m.group("num"), m.group("den") or "1"
        coeff = Fraction(_int(num, pos), _int(den, pos)) if num else Fraction(1)
        if m.group("sign") == "-":
            coeff = -coeff
        pden = m.group("pden")
        if pden not in (None, "2"):
            raise ParseError(f"syntax error at position {pos}: only /2 exponents are supported")
        if pden and var != "t":
            raise ParseError(f"syntax error at position {pos}: {var} takes integer exponents")
        # the exponent groups only match after a variable; a bare variable has exponent 1
        exp = _int(m.group("iexp") or m.group("pnum") or "1", pos) if m.group("var") else 0
        if exp < 0 and var != "t":
            raise ParseError(f"syntax error at position {pos}: negative {var} exponent")
        if var == "t" and not pden:
            exp *= 2
        powers[exp] = powers.get(exp, Fraction(0)) + coeff
        pos = m.end()
    return {e: c for e, c in powers.items() if c != 0}, o_order


def parse_half_laurent(text: str) -> HalfLaurent:
    """Parse a polynomial in t, whose exponents may be half-integers."""
    from .laurent import HalfLaurent

    coeffs, _ = _scan_terms(text, "t")
    if coeffs and max(coeffs) - min(coeffs) > 2 * MAX_ORDER:
        raise ParseError(
            f"t exponents give z-degree {Fraction(max(coeffs) - min(coeffs), 2)} (half the "
            f"span of the t^(1/2) exponents), which exceeds the limit {MAX_ORDER} "
            "(the largest truncation order)"
        )
    return HalfLaurent(coeffs)


def parse_z_poly(text: str) -> ZPoly:
    """Parse a polynomial in z whose exponents share one parity."""
    from .laurent import ZPoly

    powers, _ = _scan_terms(text, "z")
    if not powers:
        return ZPoly(0, ())
    if max(powers) > MAX_ORDER:
        raise ParseError(
            f"z exponent {max(powers)} exceeds the limit {MAX_ORDER} "
            "(the largest truncation order)"
        )
    s = min(powers)
    if any((e - s) % 2 != 0 for e in powers):
        raise ParseError("z exponents must share one parity")
    return ZPoly(s, [powers.get(e, Fraction(0)) for e in range(s, max(powers) + 1, 2)])


def parse_h_series(text: str, order: int) -> HSeries:
    """Parse h-polynomial text into a series at the given order; a trailing
    O(h^N) marker must agree with that order."""
    from .hseries import HSeries

    powers, o_order = _scan_terms(text, "h")
    if o_order is not None and o_order != order:
        raise ParseError(f"O(h^{o_order + 1}) marker disagrees with order {order}")
    return HSeries([powers.get(e, Fraction(0)) for e in range(order + 1)], order)


#: How much of a rejected value an error message repeats.
_ECHO_CHARS = 40


def _echo(value) -> str:
    """repr(value) for an error message; past ``_ECHO_CHARS`` characters, its
    start and its length."""
    shown = repr(value)
    if len(shown) <= _ECHO_CHARS:
        return shown
    return f"{shown[:_ECHO_CHARS]}... ({len(shown)} characters)"


def _rational(value, context: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{context}: expected an exact rational, got {_echo(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ParseError(f"{context}: cannot parse rational {_echo(value)}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{context}: cannot parse rational {_echo(value)}") from None
    raise ParseError(f"{context}: expected an exact rational, got {_echo(value)}")


def read_text(path: str) -> str:
    """The text of the file ``path``; ParseError when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc})") from None


def _load_json(path: str):
    """The JSON value in ``path``; ParseError when an object repeats a key."""

    def unique_keys(pairs: list) -> dict:
        out = dict(pairs)
        if len(out) < len(pairs):
            seen = set()
            for k, _ in pairs:
                if k in seen:
                    raise ParseError(f"{path}: duplicate key {_echo(k)}")
                seen.add(k)
        return out

    try:
        return json.loads(read_text(path), object_pairs_hook=unique_keys)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    except ValueError:  # an integer literal with more digits than Python converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: invalid JSON (a number longer than {limit} digits)") from None


def _matrix_rows(data, path: str):
    if not isinstance(data, list) or any(not isinstance(row, list) for row in data):
        raise ParseError(f"{path}: \"matrix\" must be an array of arrays")
    return [[_rational(v, f"{path} matrix entry") for v in row] for row in data]


def read_seifert_file(path: str) -> tuple[SeifertMatrix, int]:
    """Read a Seifert matrix JSON file: {"matrix": [...], "components"?,
    "name"?}. Returns (matrix, components); the name is checked, not kept."""
    from .seifert import SeifertMatrix

    data = _load_json(path)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ParseError(f"{path}: expected an object with a \"matrix\" key")
    rows = _matrix_rows(data["matrix"], path)
    components = data.get("components", 1)
    if not isinstance(components, int) or isinstance(components, bool) or components < 1:
        raise ParseError(f"{path}: \"components\" must be a positive integer")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{path}: \"name\" must be a string")
    try:
        matrix = SeifertMatrix(rows)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return matrix, components


def read_linking_file(path: str) -> FramedLinkMatrix:
    """Read a linking matrix JSON file: {"labels": [...], "surgery": [...],
    "matrix": [...]} with the matrix indexed by the labels order; at most
    ``MAX_LINK_LABELS`` labels, checked before any entry is converted."""
    from .surgery import FramedLinkMatrix

    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("labels", "surgery", "matrix"):
        if key not in data:
            raise ParseError(f"{path}: missing \"{key}\" key")
    labels = data["labels"]
    surgery = data["surgery"]
    if not isinstance(labels, list) or any(not isinstance(x, str) for x in labels):
        raise ParseError(f"{path}: \"labels\" must be an array of strings")
    if len(labels) > MAX_LINK_LABELS:
        raise ParseError(
            f"{path}: \"labels\" may list at most {MAX_LINK_LABELS} components, got {len(labels)}"
        )
    if not isinstance(surgery, list) or any(not isinstance(x, str) for x in surgery):
        raise ParseError(f"{path}: \"surgery\" must be an array of strings")
    rows = _matrix_rows(data["matrix"], path)
    try:
        return FramedLinkMatrix(labels, surgery, rows)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None


def lmo_data_to_json(data: LmoWheelData) -> str:
    """Serialize wheel data deterministically (indices ascending)."""

    def wheels(w: WheelSeries) -> dict[str, str]:
        return {str(k): _terms.text(v) for k, v in w.coefficients.items()}

    payload = {
        "order": data.order,
        "h1_order": data.h1_order,
        "knot_wheels": wheels(data.knot_wheels),
        "nu_wheels": wheels(data.nu_wheels),
    }
    return json.dumps(payload, indent=2)


def _wheels_from_json(obj, context: str) -> WheelSeries:
    from .wheels import WheelSeries

    if not isinstance(obj, dict):
        raise ParseError(f"{context}: expected an object of index -> coefficient")
    coeffs = {}
    for k, v in obj.items():
        try:
            idx = int(k)
        except ValueError:
            idx = None
        if idx is None or k != str(idx):  # only the text lmo_data_to_json writes
            raise ParseError(f"{context}: bad wheel index {_echo(k)}")
        coeffs[idx] = _rational(v, context)
    try:
        return WheelSeries(coeffs)
    except DomainError as exc:
        raise ParseError(f"{context}: {exc}") from None


def read_lmo_file(path: str) -> LmoWheelData:
    """Read wheel data JSON as written by ``lmo_data_to_json``."""
    from .mmr import LmoWheelData, nu_wheels

    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("order", "h1_order", "knot_wheels", "nu_wheels"):
        if key not in data:
            raise ParseError(f"{path}: missing \"{key}\" key")
    order = data["order"]
    h1 = data["h1_order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ParseError(f"{path}: \"order\" must be a non-negative integer")
    if order > MAX_ORDER:
        raise ParseError(f"{path}: \"order\" must be at most {MAX_ORDER}, got {order}")
    if not isinstance(h1, int) or isinstance(h1, bool) or h1 < 1:
        raise ParseError(f"{path}: \"h1_order\" must be a positive integer")
    if h1 >= 10 ** MAX_TOR_DIGITS:
        raise ParseError(
            f"{path}: \"h1_order\" must be below 10^{MAX_TOR_DIGITS}, "
            f"got a {len(str(h1))}-digit number"
        )
    knot = _wheels_from_json(data["knot_wheels"], f"{path} knot_wheels")
    nu = _wheels_from_json(data["nu_wheels"], f"{path} nu_wheels")
    if nu != nu_wheels(order):
        raise ParseError(
            f"{path}: nu_wheels disagree with the unknot normalization at this order"
        )
    try:
        return LmoWheelData(knot, h1, order)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
