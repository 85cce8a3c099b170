"""Exact calculator for Conway-normalized Alexander polynomials of links
and rank-one manifolds, surgery linking calculus, formal Gaussian strut
integration, and the even-wheel data they determine."""

from .alexander import (
    NablaResult,
    nabla_from_seifert,
    normalize_delta,
)
from .errors import DomainError, ParseError
from .gaussian import (
    StrutPolynomial,
    StrutQuadratic,
    gaussian_pair,
    left_pairing_factor,
    right_pairing_factor,
    strut_part_of_aarhus,
    wick_pair,
)
from .hseries import (
    DEFAULT_ORDER,
    HSeries,
    c_series,
    substitute_exp,
)
from .laurent import HalfLaurent, ZPoly, rewrite_in_z
from .mmr import (
    LmoWheelData,
    aarhus_wheels,
    lmo_wheel_data,
    mmr_series,
    nabla_from_lmo_wheel_data,
    nu_wheels,
)
from .seifert import (
    RealizabilityReport,
    SeifertMatrix,
    SkewNormalForm,
    realizability_report,
    skew_normal_form,
)
from .surgery import (
    FramedLinkMatrix,
    signature_pair,
    surgery_transform,
)
from .wheels import (
    WheelPolynomial,
    WheelSeries,
    rescale_degree,
    w_nabla,
    wheels_from_series,
)

__all__ = [
    "DEFAULT_ORDER",
    "DomainError",
    "FramedLinkMatrix",
    "HSeries",
    "HalfLaurent",
    "LmoWheelData",
    "NablaResult",
    "ParseError",
    "RealizabilityReport",
    "SeifertMatrix",
    "SkewNormalForm",
    "StrutPolynomial",
    "StrutQuadratic",
    "WheelPolynomial",
    "WheelSeries",
    "ZPoly",
    "aarhus_wheels",
    "c_series",
    "gaussian_pair",
    "left_pairing_factor",
    "lmo_wheel_data",
    "mmr_series",
    "nabla_from_lmo_wheel_data",
    "nabla_from_seifert",
    "normalize_delta",
    "nu_wheels",
    "realizability_report",
    "rescale_degree",
    "rewrite_in_z",
    "right_pairing_factor",
    "signature_pair",
    "skew_normal_form",
    "strut_part_of_aarhus",
    "substitute_exp",
    "surgery_transform",
    "w_nabla",
    "wheels_from_series",
    "wick_pair",
]

__version__ = "0.1.0"
