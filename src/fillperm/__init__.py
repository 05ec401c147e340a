"""Filling permutations: verify, glue, extend and search combinatorial
certificates for minimally intersecting curve pairs on punctured surfaces."""

from .arcs import curve_advance, reversal_pairing
from .moves import available_sites, double_bigon, extend_to
from .permutations import Permutation
from .search import (
    SearchLimitError,
    SearchQuery,
    SearchResult,
    canonical_form,
    enumerate_solutions,
    naive_enumerate,
)
from .svg import render_svg
from .tables import (
    CrossValidation,
    CrossValidationError,
    cross_validate,
    min_intersection,
)
from .verify import (
    CertificateError,
    CheckResult,
    FillingInstance,
    GluedSurface,
    ValidationReport,
    glue,
    validate,
    vertex_classes,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "CheckResult",
    "CrossValidation",
    "CrossValidationError",
    "FillingInstance",
    "GluedSurface",
    "Permutation",
    "SearchLimitError",
    "SearchQuery",
    "SearchResult",
    "ValidationReport",
    "available_sites",
    "canonical_form",
    "cross_validate",
    "curve_advance",
    "double_bigon",
    "enumerate_solutions",
    "extend_to",
    "glue",
    "min_intersection",
    "naive_enumerate",
    "render_svg",
    "reversal_pairing",
    "validate",
    "vertex_classes",
]
