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

from .alexander import NablaResult, nabla_from_seifert, normalize_delta
from .errors import DomainError, ParseError
from .fixtures import load_fixtures
from .gaussian import gaussian_pair, strut_part_of_aarhus
from .hseries import DEFAULT_ORDER, MAX_ORDER
from .matrices import Matrix, is_integral
from .mmr import (
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
)
from .surgery import h1_order, signature_pair, surgery_transform
from .wheels import wheels_from_series

ORDER_ENV = "NABLA_LMO_ORDER"


def _resolve_order(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get(ORDER_ENV)
        if env is None:
            return DEFAULT_ORDER
        try:
            value = int(env)
        except ValueError:
            raise ParseError(f"{ORDER_ENV}={env!r} is not an integer") from None
    if value < 0:
        raise ParseError(f"truncation order must be non-negative, got {value}")
    if value > MAX_ORDER:
        raise ParseError(f"truncation order must be at most {MAX_ORDER}, got {value}")
    return value


def _print_nabla(result: NablaResult) -> None:
    print(result.z_form)
    print(result.polynomial)


def _print_labeled_matrix(labels: Sequence[str], m: Matrix) -> None:
    print("labels:" + "".join(f" {x}" for x in labels))
    for row in m:
        print(" ".join(str(x) for x in row))


def _cmd_nabla(args) -> int:
    matrix, components, _ = read_seifert_file(args.seifert)
    _print_nabla(nabla_from_seifert(matrix, components))
    return 0


def _cmd_normalize_delta(args) -> int:
    delta = parse_half_laurent(args.delta)
    _print_nabla(normalize_delta(delta, args.h1))
    return 0


def _cmd_surgery(args) -> int:
    m = read_linking_file(args.linking)
    transformed = surgery_transform(m)
    _print_labeled_matrix(m.residual_labels, transformed)
    pos, neg = signature_pair(m.surgery_block)
    print(f"signature: ({pos}, {neg})")
    if is_integral(m.surgery_block):
        print(f"h1_order: {h1_order(m.surgery_block)}")
    return 0


def _cmd_aarhus_struts(args) -> int:
    m = read_linking_file(args.linking)
    if args.route == "schur":
        q = strut_part_of_aarhus(m)
    elif args.route == "wick":
        q = gaussian_pair(m)
    else:
        q = strut_part_of_aarhus(m)
        if gaussian_pair(m) != q:
            raise DomainError("wick and schur routes disagree")
    _print_labeled_matrix(q.labels, q.matrix)
    return 0


def _cmd_mmr(args) -> int:
    matrix, components, _ = read_seifert_file(args.seifert)
    print(mmr_series(matrix, components, _resolve_order(args.order)))
    return 0


def _cmd_wheels(args) -> int:
    order = _resolve_order(args.order)
    if args.from_seifert is not None:
        matrix, components, _ = read_seifert_file(args.from_seifert)
        if components != 1:
            raise DomainError("wheel data is defined for knots (1 component)")
        print(aarhus_wheels(matrix, order))
        return 0
    source = args.from_series
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            try:
                source = fh.read().strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"{source}: not UTF-8 text ({exc})") from None
    print(wheels_from_series(parse_h_series(source, order)))
    return 0


def _print_wheel_data(data, as_json: bool) -> None:
    if as_json:
        print(lmo_data_to_json(data))
        return
    print(f"order: {data.order}")
    print(f"h1_order: {data.h1_order}")
    print(f"knot_wheels: {data.knot_wheels}")
    print(f"nu_wheels: {data.nu_wheels}")


def _cmd_lmo(args) -> int:
    if args.invert is not None:
        data = read_lmo_file(args.invert)
        max_z = args.max_z_degree if args.max_z_degree is not None else data.order
        print(nabla_from_lmo_wheel_data(data, max_z))
        return 0
    if args.tor is None:
        raise ParseError("--tor is required with --nabla")
    p = parse_z_poly(args.nabla)
    data = lmo_wheel_data(p, args.tor, _resolve_order(args.order))
    _print_wheel_data(data, args.json)
    return 0


def _cmd_roundtrip(args) -> int:
    p = parse_z_poly(args.nabla)
    order = _resolve_order(args.order)
    data = lmo_wheel_data(p, args.tor, order)
    recovered = nabla_from_lmo_wheel_data(data, max(p.z_degree, 0))
    if recovered != p:
        raise DomainError(f"round trip failed: {p} came back as {recovered}")
    print(f"roundtrip ok: {p} (tor_order={args.tor}, order={order})")
    return 0


def _cmd_fixtures(args) -> int:
    for fx in load_fixtures():
        rows = "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in fx.seifert.entries
        ) + "]"
        print(
            f"{fx.name}: components={fx.components}, "
            f"nabla = {fx.expected_nabla}, matrix = {rows}"
        )
    return 0


def _add_order_flag(sub) -> None:
    sub.add_argument(
        "--order",
        type=int,
        default=None,
        help=f"series truncation order (default: ${ORDER_ENV} or {DEFAULT_ORDER})",
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
        help="h-series, given inline or as a file",
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
