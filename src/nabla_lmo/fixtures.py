"""Built-in Seifert matrices with known Conway polynomials.

Each fixture records a Seifert matrix, its link component count, and the
polynomial the package must compute for it. ``load_fixtures`` only builds
the table; the tests check every recorded polynomial against
`alexander.nabla_from_seifert` and against a cofactor expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import ZPoly
from .seifert import SeifertMatrix


@dataclass(frozen=True)
class Fixture:
    name: str
    seifert: SeifertMatrix
    components: int
    expected_nabla: ZPoly
    note: str


def _zp(prefactor: int, *coeffs) -> ZPoly:
    return ZPoly(prefactor, [Fraction(c) for c in coeffs])


_TABLE = (
    ("unknot", [], 1, _zp(0, 1), "0x0 Seifert matrix"),
    ("trefoil", [[-1, 1], [0, -1]], 1, _zp(0, 1, 1), "genus-1 knot, nabla = 1 + z^2"),
    ("figure_eight", [[1, 1], [0, -1]], 1, _zp(0, 1, -1), "genus-1 knot, nabla = 1 - z^2"),
    ("twist_0", [[-1, 1], [0, 0]], 1, _zp(0, 1), "twist family n=0"),
    ("twist_1", [[-1, 1], [0, 1]], 1, _zp(0, 1, -1), "twist family n=1"),
    ("twist_2", [[-1, 1], [0, 2]], 1, _zp(0, 1, -2), "twist family n=2"),
    ("twist_3", [[-1, 1], [0, 3]], 1, _zp(0, 1, -3), "twist family n=3"),
    ("twist_4", [[-1, 1], [0, 4]], 1, _zp(0, 1, -4), "twist family n=4"),
    ("twist_5", [[-1, 1], [0, 5]], 1, _zp(0, 1, -5), "twist family n=5"),
    ("two_unlink", [[0]], 2, ZPoly(1, ()), "2-component unlink, nabla = 0"),
    ("hopf_positive", [[1]], 2, _zp(1, 1), "positive Hopf link, nabla = z"),
    ("hopf_negative", [[-1]], 2, _zp(1, -1), "negative Hopf link, nabla = -z"),
)


def load_fixtures() -> tuple[Fixture, ...]:
    return tuple(
        Fixture(name, SeifertMatrix(rows), components, expected, note)
        for name, rows, components, expected, note in _TABLE
    )
