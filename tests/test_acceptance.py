"""End-to-end acceptance checks for the whole package.

Each test prints one summary line (visible under ``pytest -rA`` or
``-s``) so a run doubles as a checklist.  Timing bounds are generous for
warm code paths but still catch order-of-magnitude regressions.
"""

import importlib.util
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from fillperm import (
    FillingInstance,
    Permutation,
    SearchQuery,
    double_bigon,
    enumerate_solutions,
    extend_to,
    glue,
    min_intersection,
    naive_enumerate,
    validate,
    vertex_classes,
)
from fillperm.arcs import label_texts
from conftest import _symmetry_elements, compose, conjugate, corner_rotation, cycles_of, identity, small_parameter_grid


@contextmanager
def summary(slug: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {slug}: FAIL")
        raise
    print(f"acceptance {slug}: PASS")


@pytest.fixture(scope="module")
def genus2_p3_n5_solutions():
    return enumerate_solutions(SearchQuery(2, 3, 5, max_seconds=60.0))


def rotations(word: tuple) -> set[tuple]:
    return {word[i:] + word[:i] for i in range(len(word))}


def test_certificate_verifies_under_a_millisecond(genus2_instance):
    with summary("certificate-valid"):
        report = validate(genus2_instance)
        assert report.valid and report.n == 5
        assert len(report.checks) == 9
        best = min(
            _timed(lambda: validate(genus2_instance)) for _ in range(5)
        )
        assert best < 0.001, f"validation took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_face_words_up_to_rotation(genus2_sigma):
    with summary("face-words"):
        surface = glue(genus2_sigma, 3)
        texts = label_texts(surface.n)
        got = [tuple(texts[j] for j in cycle) for cycle in surface.face_cycles]
        wanted = [
            ("a1", "b1", "a5'", "b2'"),
            ("a2", "b4", "a3'", "b3'", "a5", "b2", "a4'", "b4'", "a3", "b5", "a1'", "b1'"),
            ("b3", "a2'", "b5'", "a4"),
        ]
        assert len(got) == 3
        for word, target in zip(got, wanted):
            assert word in rotations(target)


def test_euler_bookkeeping(genus2_sigma):
    with summary("euler-bookkeeping"):
        surf = glue(genus2_sigma, punctures=3)
        assert surf.vertex_count == 5
        assert surf.edge_count == 10
        assert surf.face_count == 3
        assert surf.euler_characteristic == -2
        assert surf.genus == 2
        assert all(len(c) == 4 for c in vertex_classes(genus2_sigma))
        report = validate(FillingInstance(genus2_sigma, 2, 3))
        assert next(c for c in report.checks if c.name == "connectivity").passed


def test_odd_puncture_ladder_certifies_upper_bound(genus2_instance):
    with summary("puncture-ladder"):
        current = genus2_instance
        for target in range(5, 52, 2):
            step = min(
                _timed(lambda: double_bigon(current, 1)) for _ in range(3)
            )
            assert step < 0.010, f"one move took {step * 1e3:.2f} ms at n={current.n}"
            current = extend_to(current, target)
            assert validate(current).valid
            assert current.n == min_intersection(2, target)
            # feasibility: p <= n + 2 - 2g holds with equality slack 2
            assert current.punctures <= current.n + 2 - 2 * current.genus


def test_closed_genus2_empty_at_three_crossings():
    with summary("genus2-floor"):
        elapsed = time.perf_counter()
        result = enumerate_solutions(SearchQuery(2, 0, 3))
        elapsed = time.perf_counter() - elapsed
        assert result.raw_count == 0
        assert elapsed < 10.0


def test_sphere_parity_wall(sphere4_sigma):
    with summary("sphere-parity"):
        for punctures in range(0, 6):
            assert enumerate_solutions(SearchQuery(0, punctures, 3)).raw_count == 0
        hits = enumerate_solutions(SearchQuery(0, 4, 2))
        assert hits.raw_count > 0
        assert sphere4_sigma in hits.solutions
        assert validate(FillingInstance(sphere4_sigma, 0, 4)).bigons == 4  # all four faces are bigons


def test_torus_base_case(torus_sigma):
    with summary("torus-base"):
        result = enumerate_solutions(SearchQuery(1, 0, 1))
        assert {str(p) for p in result.solutions} == {"(1,2,3,4)", "(1,4,3,2)"}
        assert result.solutions == naive_enumerate(SearchQuery(1, 0, 1)).solutions
        for sigma in result.solutions:
            surf = glue(sigma, punctures=0)
            assert surf.face_count == 1 and len(surf.face_cycles[0]) == 4
            assert surf.vertex_count == 1
            assert surf.genus == 1


def test_oracle_equivalence_through_degree_eight():
    with summary("oracle-equivalence"):
        for genus, punctures, n in small_parameter_grid():
            query = SearchQuery(genus, punctures, n)
            fast = enumerate_solutions(query).solutions
            slow = naive_enumerate(query).solutions
            assert fast == slow, (genus, punctures, n)


def test_search_rediscovers_certificate(genus2_sigma, genus2_p3_n5_solutions):
    with summary("search-completeness"):
        result = genus2_p3_n5_solutions
        assert result.wall_time < 60.0
        assert result.raw_count > 0
        assert genus2_sigma in result.solutions


def test_table_spot_values():
    with summary("table-fidelity"):
        expected = {
            (1, 0): 1, (3, 0): 5, (3, 2): 6,
            (0, 4): 2, (0, 5): 4, (0, 6): 4,
            (2, 0): 4, (2, 2): 4, (2, 3): 5, (2, 4): 6,
        }
        for surface, value in expected.items():
            assert min_intersection(*surface) == value, surface
        # genus-2 floor and the general formula overlap at p = 2
        assert min_intersection(2, 2) == 2 * 2 + 2 - 2 == 4


def test_structural_properties_of_every_found_solution(genus2_p3_n5_solutions):
    with summary("property-suite"):
        pools = [
            (1, 0, enumerate_solutions(SearchQuery(1, 0, 3)).solutions),
            (0, 4, enumerate_solutions(SearchQuery(0, 4, 2)).solutions),
            (2, 3, genus2_p3_n5_solutions.solutions),
        ]
        for genus, punctures, solutions in pools:
            n = solutions[0].degree // 4
            elements = _symmetry_elements(n)
            pool = set(solutions)
            for sigma in solutions:
                # conjugation closure under both basepoint shifts
                for e in elements:
                    assert conjugate(sigma, e) in pool
                # corner rotation: free of fixed points, order four
                rot = corner_rotation(sigma)
                assert all(rot.images[j - 1] != j for j in range(1, sigma.degree + 1))
                r2 = compose(rot, rot)
                assert compose(r2, r2) == identity(sigma.degree)
                assert all(len(c) == 4 for c in vertex_classes(sigma))
                # faces reassemble the permutation exactly
                assert Permutation.parse(str(sigma), degree=sigma.degree) == sigma
                surf = glue(sigma, punctures)
                assert surf.face_cycles == tuple(cycles_of(sigma))
                # parity reversal forces even cycle lengths
                assert validate(FillingInstance(sigma, genus, punctures)).parity_offender is None
                assert all(len(c) % 2 == 0 for c in surf.face_cycles)


PUBLIC_API = [
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


def test_public_api_is_pinned():
    """Every public name, so that a change to the package's API shows up as a diff here."""
    import fillperm

    with summary("public-api"):
        assert sorted(fillperm.__all__) == PUBLIC_API
        assert all(hasattr(fillperm, name) for name in PUBLIC_API)


def test_permutation_surface_is_pinned():
    """The checked image tuple, its cycle notation and nothing else: the group algebra lives in conftest."""
    assert sorted(name for name in dir(Permutation) if not name.startswith("_")) == ["degree", "images", "parse"]


SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # perfbench/spans.py (read, never changed) looks each name up by a bare getattr and wraps parse as a
    # classmethod: a missing name crashes every traced run.  So arcs.reversal_pairing and arcs.curve_advance,
    # which no code path calls, stay until the tracer's arcs.structure_map layer points elsewhere.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert all(attr in Permutation.__dict__ for _, attr in spans.METHODS)
    assert isinstance(Permutation.__dict__["parse"], classmethod)
