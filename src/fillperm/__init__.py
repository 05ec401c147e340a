"""Filling permutations: verify, glue, extend and search combinatorial
certificates for minimally intersecting curve pairs on punctured surfaces."""

from .arcs import (
    ALPHA,
    BETA,
    ArcLabel,
    curve_advance,
    index_of,
    label_of,
    parse_label,
    reversal_pairing,
)
from .moves import SurgerySite, available_sites, double_bigon, extend_to
from .permutations import CycleDecomposition, Permutation
from .search import (
    SearchLimitError,
    SearchQuery,
    SearchResult,
    canonical_form,
    enumerate_solutions,
    naive_enumerate,
    symmetry_group,
)
from .svg import render_svg
from .tables import (
    CrossValidation,
    CrossValidationError,
    NoFillingPairError,
    cross_validate,
    min_intersection,
)
from .verify import (
    CheckResult,
    FillingInstance,
    GluedSurface,
    ValidationReport,
    check_filling_equation,
    corner_rotation,
    faces_as_words,
    glue,
    validate,
    vertex_classes,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "ArcLabel",
    "CheckResult",
    "CrossValidation",
    "CrossValidationError",
    "CycleDecomposition",
    "FillingInstance",
    "GluedSurface",
    "NoFillingPairError",
    "Permutation",
    "SearchLimitError",
    "SearchQuery",
    "SearchResult",
    "SurgerySite",
    "ValidationReport",
    "available_sites",
    "canonical_form",
    "check_filling_equation",
    "corner_rotation",
    "cross_validate",
    "curve_advance",
    "double_bigon",
    "enumerate_solutions",
    "extend_to",
    "faces_as_words",
    "glue",
    "index_of",
    "label_of",
    "min_intersection",
    "naive_enumerate",
    "parse_label",
    "render_svg",
    "reversal_pairing",
    "symmetry_group",
    "validate",
    "vertex_classes",
]
