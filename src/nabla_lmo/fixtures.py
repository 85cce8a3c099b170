"""Built-in Seifert matrices with known Conway polynomials.

Each fixture records a name, a Seifert matrix, its link component count,
and the polynomial the package must compute for it; `fixtures list` prints
all four. ``load_fixtures`` only builds the table; the tests check every
recorded polynomial against `alexander.nabla_from_seifert` and against a
cofactor expansion.
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


def _zp(prefactor: int, *coeffs) -> ZPoly:
    return ZPoly(prefactor, [Fraction(c) for c in coeffs])


_TABLE = (
    ("unknot", [], 1, _zp(0, 1)),  # 0x0 Seifert matrix
    ("trefoil", [[-1, 1], [0, -1]], 1, _zp(0, 1, 1)),  # genus-1 knot
    ("figure_eight", [[1, 1], [0, -1]], 1, _zp(0, 1, -1)),  # genus-1 knot
    # the twist family: twist_n has nabla = 1 - n z^2
    ("twist_0", [[-1, 1], [0, 0]], 1, _zp(0, 1)),
    ("twist_1", [[-1, 1], [0, 1]], 1, _zp(0, 1, -1)),
    ("twist_2", [[-1, 1], [0, 2]], 1, _zp(0, 1, -2)),
    ("twist_3", [[-1, 1], [0, 3]], 1, _zp(0, 1, -3)),
    ("twist_4", [[-1, 1], [0, 4]], 1, _zp(0, 1, -4)),
    ("twist_5", [[-1, 1], [0, 5]], 1, _zp(0, 1, -5)),
    ("two_unlink", [[0]], 2, ZPoly(1, ())),
    ("hopf_positive", [[1]], 2, _zp(1, 1)),
    ("hopf_negative", [[-1]], 2, _zp(1, -1)),
)


def load_fixtures() -> tuple[Fixture, ...]:
    return tuple(
        Fixture(name, SeifertMatrix(rows), components, expected)
        for name, rows, components, expected in _TABLE
    )
