"""Command-line front end.

Every command is a pure function of its inputs and prints identical bytes
across runs. Exit codes: 0 success, 1 mathematically rejected input,
2 parse or I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import _terms
from .alexander import NablaResult, nabla_from_seifert, normalize_delta
from .errors import DomainError, ParseError
from .fixtures import load_fixtures
from .gaussian import MAX_WICK_PAIRS, gaussian_pair, strut_part_of_aarhus
from .hseries import DEFAULT_ORDER, MAX_ORDER
from .matrices import Matrix, is_integral
from .mmr import (
    MAX_TOR_DIGITS,
    aarhus_wheels,
    lmo_wheel_data,
    mmr_series,
    nabla_from_lmo_wheel_data,
)
from .parsing import (
    lmo_data_to_json,
    parse_half_laurent,
    parse_h_series,
    parse_z_poly,
    read_linking_file,
    read_lmo_file,
    read_seifert_file,
    read_text,
)
from .surgery import _integrate_out
from .wheels import wheels_from_series


def _resolve_order(value: Optional[int]) -> int:
    if value is None:
        return DEFAULT_ORDER
    if value < 0:
        raise ParseError(f"truncation order must be non-negative, got {value}")
    if value > MAX_ORDER:
        raise ParseError(f"truncation order must be at most {MAX_ORDER}, got {value}")
    return value


def _resolve_tor(value: int) -> int:
    if value >= 10 ** MAX_TOR_DIGITS:
        raise ParseError(
            f"--tor must be below 10^{MAX_TOR_DIGITS}, got a {len(str(value))}-digit number"
        )
    return value


def _nabla_text(result: NablaResult) -> str:
    return f"{result.z_form}\n{result.polynomial}"


def _labeled_matrix_text(labels: Sequence[str], m: Matrix) -> list[str]:
    return ["labels:" + "".join(f" {x}" for x in labels)] + [
        " ".join(_terms.text(x) for x in row) for row in m
    ]


def _cmd_nabla(args) -> str:
    matrix, components = read_seifert_file(args.seifert)
    return _nabla_text(nabla_from_seifert(matrix, components))


def _cmd_normalize_delta(args) -> str:
    delta = parse_half_laurent(args.delta)
    return _nabla_text(normalize_delta(delta, args.h1))


def _cmd_surgery(args) -> str:
    m = read_linking_file(args.linking)
    residual, block_det, signature = _integrate_out(m, m.entries)
    lines = _labeled_matrix_text(m.residual_labels, residual)
    lines.append(f"signature: {signature}")
    if is_integral(m.surgery_block):
        lines.append(f"h1_order: {_terms.text(abs(block_det))}")
    return "\n".join(lines)


def _cmd_aarhus_struts(args) -> str:
    m = read_linking_file(args.linking)
    k, r = len(m.surgery_labels), len(m.residual_labels)
    # k = 0 still expands the r(r+1)/2 residual struts, so it counts as k = 1
    pairs = max(k, 1) * r
    if args.route != "schur" and pairs > MAX_WICK_PAIRS:
        counted = "" if k else f", counted as 1·{r}"
        raise ParseError(
            f"--route {args.route} takes k·r <= {MAX_WICK_PAIRS} mixed linking pairs, "
            f"got k·r = {k}·{r}{counted} = {pairs}"
        )
    # gaussian_pair alone would integrate out a fractional framing; every
    # route refuses it, as strut_part_of_aarhus does
    if not m.integral_surgery:
        raise DomainError("surgery framings must be integers")
    if args.route == "schur":
        q = strut_part_of_aarhus(m)
    elif args.route == "wick":
        q = gaussian_pair(m)
    else:
        q = strut_part_of_aarhus(m)
        if gaussian_pair(m) != q:
            raise DomainError("wick and schur routes disagree")
    return "\n".join(_labeled_matrix_text(q.labels, q.entries))


def _cmd_mmr(args) -> str:
    matrix, components = read_seifert_file(args.seifert)
    return str(mmr_series(matrix, components, _resolve_order(args.order)))


def _cmd_wheels(args) -> str:
    order = _resolve_order(args.order)
    if args.from_seifert is not None:
        matrix, components = read_seifert_file(args.from_seifert)
        if components != 1:
            raise DomainError("wheel data is defined for knots (1 component)")
        return str(aarhus_wheels(matrix, order))
    source = args.from_series
    try:
        series = parse_h_series(source, order)
    except ParseError:
        if not os.path.isfile(source):
            raise
        series = parse_h_series(read_text(source).strip(), order)
    return str(wheels_from_series(series))


def _wheel_data_text(data, as_json: bool) -> str:
    if as_json:
        return lmo_data_to_json(data)
    return (
        f"order: {data.order}\n"
        f"h1_order: {data.h1_order}\n"
        f"knot_wheels: {data.knot_wheels}\n"
        f"nu_wheels: {data.nu_wheels}"
    )


def _refuse_flags(mode: str, flags: dict) -> None:
    """ParseError for the first of ``flags`` (name to parsed value) that was
    given although ``mode`` does not use it."""
    for flag, value in flags.items():
        if value is not None and value is not False:
            raise ParseError(f"{flag} does not apply with {mode}")


def _cmd_lmo(args) -> str:
    if args.invert is not None:
        _refuse_flags("--invert", {"--tor": args.tor, "--order": args.order, "--json": args.json})
        if args.max_z_degree is not None and args.max_z_degree < 0:
            raise ParseError(f"--max-z-degree must be non-negative, got {args.max_z_degree}")
        data = read_lmo_file(args.invert)
        max_z = args.max_z_degree if args.max_z_degree is not None else data.order
        return str(nabla_from_lmo_wheel_data(data, max_z))
    _refuse_flags("--nabla", {"--max-z-degree": args.max_z_degree})
    if args.tor is None:
        raise ParseError("--tor is required with --nabla")
    tor = _resolve_tor(args.tor)
    p = parse_z_poly(args.nabla)
    data = lmo_wheel_data(p, tor, _resolve_order(args.order))
    return _wheel_data_text(data, args.json)


def _cmd_roundtrip(args) -> str:
    p = parse_z_poly(args.nabla)
    order = _resolve_order(args.order)
    tor = _resolve_tor(args.tor)
    data = lmo_wheel_data(p, tor, order)
    recovered = nabla_from_lmo_wheel_data(data, max(p.z_degree, 0))
    if recovered != p:
        raise DomainError(f"round trip failed: {p} came back as {recovered}")
    return f"roundtrip ok: {p} (tor_order={tor}, order={order})"


def _cmd_fixtures(args) -> str:
    lines = []
    for fx in load_fixtures():
        rows = "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in fx.seifert.entries
        ) + "]"
        lines.append(
            f"{fx.name}: components={fx.components}, "
            f"nabla = {fx.expected_nabla}, matrix = {rows}"
        )
    return "\n".join(lines)


def _add_order_flag(sub) -> None:
    sub.add_argument(
        "--order",
        type=int,
        default=None,
        help=f"series truncation order (default: {DEFAULT_ORDER})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nabla-lmo",
        description=(
            "Exact calculator for Conway-normalized Alexander polynomials, "
            "surgery linking calculus, and even-wheel invariant data."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser(
        "nabla", help="Conway-normalized polynomial from a Seifert matrix file"
    )
    p.add_argument("--seifert", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_nabla)

    p = commands.add_parser(
        "normalize-delta",
        help="rescale an Alexander polynomial to its Conway normalization",
    )
    p.add_argument("--delta", required=True, metavar="EXPR", help="polynomial in t")
    p.add_argument(
        "--h1", required=True, type=int, metavar="N", help="order of first homology"
    )
    p.set_defaults(func=_cmd_normalize_delta)

    p = commands.add_parser(
        "surgery", help="linking matrix after surgery on the marked sublink"
    )
    p.add_argument("--linking", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_surgery)

    p = commands.add_parser(
        "aarhus-struts",
        help="strut-quadratic matrix of the surgered link, by either route",
    )
    p.add_argument("--linking", required=True, metavar="FILE")
    p.add_argument("--route", choices=("wick", "schur", "both"), default="both")
    p.set_defaults(func=_cmd_aarhus_struts)

    p = commands.add_parser(
        "mmr", help="normalized exponential series of a Seifert matrix"
    )
    p.add_argument("--seifert", required=True, metavar="FILE")
    _add_order_flag(p)
    p.set_defaults(func=_cmd_mmr)

    p = commands.add_parser("wheels", help="even-wheel coefficients of a series")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--from-series",
        metavar="FILE|EXPR",
        help="inline h-series, or a file holding one when EXPR does not parse",
    )
    source.add_argument("--from-seifert", metavar="FILE")
    _add_order_flag(p)
    p.set_defaults(func=_cmd_wheels)

    p = commands.add_parser(
        "lmo", help="wheel data of a rank-one manifold, or its inversion"
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--nabla", metavar="EXPR", help="polynomial in z")
    source.add_argument("--invert", metavar="FILE", help="wheel-data JSON file")
    p.add_argument("--tor", type=int, metavar="R", help="order of torsion homology")
    p.add_argument("--max-z-degree", type=int, default=None, metavar="K",
                   help="largest z-degree --invert recognizes (default: the file's order)")
    p.add_argument("--json", action="store_true", help="print wheel data as JSON")
    _add_order_flag(p)
    p.set_defaults(func=_cmd_lmo)

    p = commands.add_parser(
        "roundtrip", help="check that wheel data reproduces its polynomial"
    )
    p.add_argument("--nabla", required=True, metavar="EXPR")
    p.add_argument("--tor", required=True, type=int, metavar="R")
    _add_order_flag(p)
    p.set_defaults(func=_cmd_roundtrip)

    p = commands.add_parser("fixtures", help="built-in examples")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command. Its whole output is formatted before anything is
    printed, so a rejected input, or an output stdout cannot encode, leaves
    stdout empty. A reader that closes stdout early ends the run quietly,
    with exit 0."""
    args = build_parser().parse_args(argv)
    try:
        # flushed here, so a closed pipe is met in this try and not at shutdown
        print(args.func(args), flush=True)
        return 0
    except BrokenPipeError:
        # what is left in the buffer goes to devnull at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
