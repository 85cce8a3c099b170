"""Exact calculator for Conway-normalized Alexander polynomials of links
and rank-one manifolds, surgery linking calculus, formal Gaussian strut
integration, and the even-wheel data they determine.

Importing the package loads none of its modules: each exported name loads
its home module on first access (PEP 562), so a command pays only for the
modules it runs."""

import importlib

#: Home module of each exported name.
_EXPORTS = {
    "alexander": ("NablaResult", "nabla_from_seifert", "normalize_delta"),
    "errors": ("DomainError", "ParseError"),
    "gaussian": (
        "StrutPolynomial", "StrutQuadratic", "gaussian_pair", "left_pairing_factor",
        "right_pairing_factor", "strut_part_of_aarhus", "wick_pair",
    ),
    "hseries": ("HSeries", "c_series", "substitute_exp"),
    "laurent": ("HalfLaurent", "ZPoly", "rewrite_in_z"),
    "limits": ("DEFAULT_ORDER",),
    "mmr": (
        "LmoWheelData", "aarhus_wheels", "lmo_wheel_data", "mmr_series",
        "nabla_from_lmo_wheel_data", "nu_wheels",
    ),
    "seifert": (
        "RealizabilityReport", "SeifertMatrix", "SkewNormalForm", "realizability_report",
        "skew_normal_form",
    ),
    "surgery": ("FramedLinkMatrix", "signature_pair", "surgery_transform"),
    "wheels": (
        "WheelPolynomial", "WheelSeries", "rescale_degree", "w_nabla", "wheels_from_series",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its home module on first access and kept
    in the package namespace from then on."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
