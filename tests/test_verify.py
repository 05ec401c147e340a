"""Validation checks and surface gluing, anchored on the genus-2 certificate."""

import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fillperm import (
    CertificateError,
    FillingInstance,
    Permutation,
    SearchQuery,
    enumerate_solutions,
    glue,
    validate,
    vertex_classes,
)
from fillperm import _kernel, search

from conftest import compose, corner_rotation, identity, label_of

CHECK_NAMES = [
    "degree-divisible-by-4",
    "parity-reversing",
    "filling-equation",
    "cycle-count",
    "two-cycle-bound",
    "puncture-feasibility",
    "vertex-classes",
    "euler-characteristic",
    "connectivity",
]


def failing_names(report) -> set[str]:
    return {c.name for c in report.failures()}


class TestGenus2Certificate:
    def test_all_nine_checks_pass(self, genus2_instance):
        report = validate(genus2_instance)
        assert report.valid
        assert report.n == 5
        assert [c.name for c in report.checks] == CHECK_NAMES

    def test_checks_and_verdict_are_computed_once(self, genus2_instance):
        report = dataclasses.replace(validate(genus2_instance), components=2)
        assert report.checks is report.checks
        assert report.valid is False
        assert report.__dict__.keys() >= {"checks", "valid"}

    def test_report_lines(self, genus2_instance):
        lines = validate(genus2_instance).lines()
        assert lines[0] == "n=5"
        assert lines[1] == "degree-divisible-by-4: PASS (degree 20 = 4*5)"
        assert lines[4] == "cycle-count: PASS (3 faces force genus 2)"
        assert lines[-1] == "result: VALID"

    def test_face_words(self, genus2_sigma):
        assert glue(genus2_sigma, 3).lines() == [
            "F1: a1 b1 a5' b2' *",
            "F2: a2 b4 a3' b3' a5 b2 a4' b4' a3 b5 a1' b1' *",
            "F3: b3 a2' b5' a4 *",
        ]

    def test_vertex_classes(self, genus2_sigma):
        assert vertex_classes(genus2_sigma) == (
            (1, 12, 13, 10),
            (2, 9, 14, 11),
            (3, 18, 15, 6),
            (4, 7, 16, 19),
            (5, 20, 17, 8),
        )

    def test_corner_rotation_has_order_four(self, genus2_sigma):
        rot = corner_rotation(genus2_sigma)
        fourth = compose(compose(compose(rot, rot), rot), rot)
        assert fourth == identity(20)
        assert all(rot.images[j - 1] != j for j in range(1, 21))


class TestGluedSurface:
    def test_euler_bookkeeping(self, genus2_sigma):
        surf = glue(genus2_sigma, punctures=3)
        assert (surf.vertex_count, surf.edge_count, surf.face_count) == (5, 10, 3)
        assert surf.euler_characteristic == -2
        assert surf.genus == 2

    def test_every_face_punctured_when_p_equals_f(self, genus2_sigma):
        surf = glue(genus2_sigma, punctures=3)
        assert surf.puncture_assignment == (1, 1, 1)
        assert surf.lines() == [
            "F1: a1 b1 a5' b2' *",
            "F2: a2 b4 a3' b3' a5 b2 a4' b4' a3 b5 a1' b1' *",
            "F3: b3 a2' b5' a4 *",
        ]

    def test_bigons_claim_punctures_first(self, sphere4_sigma):
        surf = glue(sphere4_sigma, punctures=4)
        assert surf.puncture_assignment == (1, 1, 1, 1)
        assert all(len(c) == 2 for c in surf.face_cycles)

    def test_faces_reassemble_the_permutation(self, genus2_sigma):
        surf = glue(genus2_sigma, punctures=3)
        rebuilt = Permutation.parse("".join(f"({','.join(map(str, c))})" for c in surf.face_cycles), degree=20)
        assert rebuilt == genus2_sigma

    def test_torus_square(self, torus_sigma):
        surf = glue(torus_sigma, punctures=0)
        assert (surf.vertex_count, surf.edge_count, surf.face_count) == (1, 2, 1)
        assert surf.genus == 1
        assert surf.lines() == ["F1: a1 b1 a1' b1'"]


class TestGlueRejections:
    def test_non_filling_permutation(self):
        with pytest.raises(ValueError):
            glue(identity(4), punctures=0)

    def test_unpunctured_bigon(self, sphere4_sigma):
        with pytest.raises(ValueError, match="bigon"):
            glue(sphere4_sigma, punctures=3)

    def test_more_punctures_than_faces(self, torus_sigma):
        with pytest.raises(ValueError, match="exceeds"):
            glue(torus_sigma, punctures=2)

    def test_negative_punctures(self, torus_sigma):
        with pytest.raises(ValueError):
            glue(torus_sigma, punctures=-1)

    def test_only_a_bad_certificate_is_a_certificate_error(self, torus_sigma, sphere4_sigma):
        """The command line exits 2 on a CertificateError and 1 on any other ValueError."""
        for sigma, punctures in ((identity(4), 0), (sphere4_sigma, 3), (torus_sigma, 2)):
            with pytest.raises(CertificateError):
                glue(sigma, punctures)
        for sigma, punctures, message in (
            (torus_sigma, -1, "punctures must be non-negative"),
            (Permutation((2, 1)), 0, "degree 2 is not a multiple of 4"),
        ):
            with pytest.raises(ValueError, match=message) as plain:
                glue(sigma, punctures)
            assert not isinstance(plain.value, CertificateError)


class TestIndividualFailures:
    def test_parity_failure_is_localized(self):
        report = validate(FillingInstance(Permutation.parse("(1,3)(2,4)"), 1, 0))
        assert "parity-reversing" in failing_names(report)

    def test_equation_failure_with_good_parity(self):
        report = validate(FillingInstance(Permutation.parse("(1,2)(3,4)"), 1, 0))
        assert report.parity_offender is None and report.equation_offender is not None
        assert "filling-equation" in failing_names(report)
        assert "parity-reversing" not in failing_names(report)

    def test_wrong_genus_trips_cycle_count_and_euler(self, torus_sigma):
        report = validate(FillingInstance(torus_sigma, 0, 0))
        assert failing_names(report) == {"cycle-count", "euler-characteristic"}

    def test_unpunctured_bigons_trip_the_bound(self, sphere4_sigma):
        report = validate(FillingInstance(sphere4_sigma, 0, 1))
        assert failing_names(report) == {"two-cycle-bound"}

    def test_excess_punctures_trip_feasibility(self, torus_sigma):
        report = validate(FillingInstance(torus_sigma, 1, 2))
        assert failing_names(report) == {"puncture-feasibility"}

    def test_small_corner_orbits_are_caught(self):
        report = validate(FillingInstance(Permutation.parse("(1,2)(3,4)"), 1, 0))
        assert "vertex-classes" in failing_names(report)
        detail = next(c.detail for c in report.checks if c.name == "vertex-classes")
        assert "size 2" in detail

    def test_disconnected_gluing_is_caught(self):
        report = validate(FillingInstance(identity(8), 0, 0))
        detail = next(c for c in report.checks if c.name == "connectivity")
        assert not detail.passed
        assert "4 components" in detail.detail

    @pytest.mark.parametrize("images, genus, punctures, fields", [
        ((3, 4, 1, 2), 1, 0, (1, 1, 0, (1, 3), (1, 3, 1), 2, 2, (1, 1), 4, 2)),
        ((2, 1, 4, 3), 1, 0, (1, 1, 0, None, (1, 3, 1), 2, 2, (1, 2), 2, 1)),
        ((1, 2, 3, 4, 5, 6, 7, 8), 0, 0, (2, 0, 0, (1, 1), (1, 5, 3), 8, 0, (1, 2), 8, 4)),
        ((1, 2, 3, 4), 1, 0, (1, 1, 0, (1, 1), (1, 3, 1), 4, 0, (1, 2), 4, 2)),
        ((1, 2, 4, 3), 0, 0, (1, 0, 0, (1, 1), (1, 4, 1), 3, 1, None, 2, 1)),
        ((1, 2, 5, 6, 3, 4, 7, 8), 0, 0, (2, 0, 0, (1, 1), None, 6, 2, None, 4, 2)),  # on the equation, parity fails
    ])
    def test_rejected_reports_keep_every_field(self, images, genus, punctures, fields):
        # A rejected candidate counts its faces with the general walk: faces and bigons are its cycles and 2-cycles.
        assert dataclasses.astuple(validate(FillingInstance(Permutation(images), genus, punctures))) == fields

    def test_failure_lines_carry_details(self):
        report = validate(FillingInstance(identity(4), 1, 0))
        assert not report.valid
        assert report.lines()[-1] == "result: INVALID"
        assert any("FAIL" in line for line in report.lines())

    # No corpus case fails vertex-classes or connectivity alone (and none can
    # fail vertex-classes alone), so these two terms of ``valid`` are seen
    # only on reports built by hand.

    def test_bad_orbit_alone_invalidates(self, genus2_instance):
        report = dataclasses.replace(validate(genus2_instance), bad_orbit=(1, 2))
        assert report.valid is False
        assert failing_names(report) == {"vertex-classes"}

    def test_two_components_alone_invalidate(self, genus2_instance):
        report = dataclasses.replace(validate(genus2_instance), components=2)
        assert report.valid is False
        assert failing_names(report) == {"connectivity"}

    def test_filling_equation_forces_four_cycle_corners(self):
        # The corner rotation squares to reversal after advance, a
        # fixed-point-free involution, exactly on the filling equation; then
        # every corner orbit has size 4 and there are n vertices:
        # chi = n - 2n + faces.  Connectivity needs parity as well.
        rev, adv = _kernel.structure_maps(2)
        square = tuple(rev[k] for k in adv)
        seen = {True: 0, False: 0}
        for images in itertools.permutations(range(1, 9)):
            s = (0, *images)
            c = _kernel.corner_rotation(s, rev)
            on_equation = _kernel.equation_offender(s, rev, adv) is None
            assert on_equation == (tuple(c[k] for k in c) == square)
            if not on_equation:
                continue
            report = validate(FillingInstance(Permutation(images), 0, 0))
            assert report.bad_orbit is None
            assert report.euler_characteristic == report.faces - 2
            reversing = _kernel.parity_offender(s) is None
            assert (report.parity_offender is None) == reversing
            assert report.components == _kernel.components(s, rev) == (1 if reversing else 2)
            seen[reversing] += 1
        assert seen == {True: 8, False: 4}

    def test_reversal_after_advance_is_a_fixed_point_free_involution(self):
        # On the filling equation the corner rotation squares to this map, so
        # validate reads "every corner orbit is a 4-cycle" off the equation.
        for n in range(1, 65):
            rev, adv = _kernel.structure_maps(n)
            square = [rev[k] for k in adv]
            assert square[0] == 0 and sorted(square) == list(range(4 * n + 1))
            assert all(square[j] != j and square[square[j]] == j for j in range(1, 4 * n + 1))

    def test_four_cycle_corners_without_the_equation_take_the_walk(self):
        # (1,2,4,3)'s corner rotation is one 4-cycle whose square is not reversal after advance.
        report = validate(FillingInstance(Permutation((1, 2, 4, 3)), 0, 0))
        assert report.equation_offender is not None and report.bad_orbit is None
        assert report.euler_characteristic == 1 - 2 + report.faces
        rev, adv = _kernel.structure_maps(2)
        seen = 0
        for images in itertools.permutations(range(1, 9)):
            sigma = Permutation(images)
            classes = vertex_classes(sigma)
            if any(len(c) != 4 for c in classes) or _kernel.equation_offender((0, *images), rev, adv) is None:
                continue
            report = validate(FillingInstance(sigma, 0, 0))
            assert report.bad_orbit is None
            assert report.euler_characteristic == len(classes) - 4 + report.faces
            seen += 1
        assert seen == 1248


class TestEquationProvesTheBijection:
    """validate's filling-equation check rejects every map that is not a bijection, so a search may wrap its images unchecked."""

    def test_every_non_bijection_at_n1_fails_the_equation(self):
        rev, adv = _kernel.structure_maps(1)
        rejected = 0
        for images in itertools.product(range(5), repeat=4):
            if sorted(images) != [1, 2, 3, 4]:
                assert _kernel.equation_offender((0, *images), rev, adv) is not None, images
                rejected += 1
        assert rejected == 5**4 - 24

    @given(st.data())
    def test_one_overwritten_image_is_the_same_bijection_or_fails_the_equation(self, data):
        n = data.draw(st.integers(1, 4))
        w = data.draw(st.permutations(range(n)))
        s = _kernel.from_crossings(w, data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        j, v = data.draw(st.integers(1, 4 * n)), data.draw(st.integers(0, 4 * n))
        before, s[j] = s[j], v
        rev, adv = _kernel.structure_maps(n)
        assert v == before or _kernel.equation_offender(s, rev, adv) is not None

    def test_a_repeated_image_in_a_relabelled_copy_is_caught(self):
        sigma = enumerate_solutions(SearchQuery(2, 3, 5, limit=1)).solutions[0]
        images = _kernel._conjugate((0, *sigma.images), 5, 0, 1)[1:]
        assert search._certify(tuple(images), 2, 3).images == tuple(images)
        images[3] = images[4]
        with pytest.raises(RuntimeError, match="internal inconsistency: search produced an invalid candidate"):
            search._certify(tuple(images), 2, 3)


@pytest.fixture(scope="module")
def filling_permutations():
    """Every parity-reversing permutation on the filling equation with n <= 5, keyed by n."""
    return {
        n: [
            sigma
            for genus in range((n + 1) // 2 + 1)
            for sigma in enumerate_solutions(SearchQuery(genus, n + 2 - 2 * genus, n)).solutions
        ]
        for n in range(1, 6)
    }


class TestDerivedChecks:
    """validate reads vertex classes, chi and connectivity off parity and the filling equation."""

    def test_count_is_the_crossing_sequence_count(self, filling_permutations):
        # A pair is its crossings' order along the second curve and their signs:
        # 2^n n! of them, that is 2, 8, 48, 384 and 3840.
        assert [len(filling_permutations[n]) for n in range(1, 6)] == [2**n * math.factorial(n) for n in range(1, 6)]

    def test_walks_agree_with_the_derived_values(self, filling_permutations):
        for n, sigmas in filling_permutations.items():
            for sigma in sigmas:
                classes = vertex_classes(sigma)
                faces, _ = _kernel.faces((0, *sigma.images))
                assert len(classes) == n and all(len(c) == 4 for c in classes)
                assert _kernel.components((0, *sigma.images), _kernel.structure_maps(n)[0]) == 1
                report = validate(FillingInstance(sigma, 0, 0))
                assert (report.bad_orbit, report.components) == (None, 1)
                assert report.euler_characteristic == len(classes) - 2 * n + faces

    def test_glue_guards_cannot_fire(self, filling_permutations):
        # Neither "internal inconsistency" RuntimeError in glue is reachable.
        for sigmas in filling_permutations.values():
            for sigma in sigmas:
                faces = _kernel.faces((0, *sigma.images))[0]
                surf = glue(sigma, faces)
                assert surf.euler_characteristic % 2 == 0


@st.composite
def claimed_instances(draw):
    """A permutation of degree 4n <= 40 with a claimed genus and puncture count, and whether it must be valid.

    A third are uniform, a third are crossing sequences (filling permutations)
    and a third are crossing sequences with two images swapped.  A crossing
    sequence is claimed with its own genus and a feasible puncture count
    about half the time.
    """
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(("uniform", "crossings", "swapped")))
    if kind == "uniform":
        images = list(draw(st.permutations(range(1, 4 * n + 1))))
    else:
        w = draw(st.permutations(range(n)))
        images = _kernel.from_crossings(w, draw(st.lists(st.booleans(), min_size=n, max_size=n)))[1:]
        if kind == "swapped":
            i, j = draw(st.lists(st.integers(0, 4 * n - 1), min_size=2, max_size=2, unique=True))
            images[i], images[j] = images[j], images[i]
    faces, bigons = _kernel.faces((0, *images))
    own = draw(st.booleans())
    genus = max(0, (n + 2 - faces) // 2) if own else draw(st.integers(0, 6))  # too many faces claim genus 0
    punctures = draw(st.integers(bigons, faces)) if own else draw(st.integers(0, 14))
    return Permutation(images), genus, punctures, own and kind == "crossings"


@given(claimed_instances())
def test_validate_fuzz(case):
    sigma, genus, punctures, must_be_valid = case
    report = validate(FillingInstance(sigma, genus, punctures))
    assert len(report.lines()) == 11
    assert report.valid or not must_be_valid
    if report.valid:
        surface = glue(sigma, punctures)
        assert (surface.genus, sum(surface.puncture_assignment)) == (genus, punctures)


class TestInstanceConstruction:
    def test_degree_must_be_quarterable(self):
        with pytest.raises(ValueError):
            FillingInstance(identity(6), 1, 0)

    def test_negative_parameters_rejected(self, torus_sigma):
        with pytest.raises(ValueError):
            FillingInstance(torus_sigma, -1, 0)
        with pytest.raises(ValueError):
            FillingInstance(torus_sigma, 1, -1)

    def test_n_property(self, genus2_sigma):
        assert FillingInstance(genus2_sigma, 2, 3).n == 5


def frozen_corpus() -> list[tuple[Permutation, int, int]]:
    """A fixed seeded corpus of (sigma, genus, punctures) cases.

    Random permutations and random parity-reversing ones of degree 4..40
    fail the checks in many different places; every solution of three
    small searches is taken at its own genus and punctures, one genus
    up, and one puncture up and down.
    """
    rng = random.Random(20261017)
    cases = []
    for _ in range(3000):
        images = list(range(1, 4 * rng.randint(1, 10) + 1))
        rng.shuffle(images)
        cases.append((Permutation(images), rng.randint(0, 3), rng.randint(0, 5)))
    for _ in range(3000):
        half = 2 * rng.randint(1, 10)
        odds = list(range(1, 2 * half, 2))
        evens = list(range(2, 2 * half + 1, 2))
        rng.shuffle(odds)
        rng.shuffle(evens)
        images = [evens[i // 2] if i % 2 == 0 else odds[i // 2] for i in range(2 * half)]
        cases.append((Permutation(images), rng.randint(0, 3), rng.randint(0, 5)))
    for genus, punctures, n in ((2, 3, 5), (0, 4, 2), (1, 0, 1)):
        for sigma in enumerate_solutions(SearchQuery(genus, punctures, n)).solutions:
            for g, p in ((genus, punctures), (genus + 1, punctures), (genus, punctures + 1), (genus, punctures - 1)):
                if p >= 0:
                    cases.append((sigma, g, p))
    return cases


@pytest.fixture(scope="module")
def corpus():
    return frozen_corpus()


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


# Recorded with the object-level checks, before they moved onto the
# integer kernel; any change to a report line or a gluing shows here.
CORPUS_SIZE = 15222
CORPUS_VALID = 4626
VALIDATE_SHA256 = "f318d4d932f0df410159b9a9b96ba8c968299cbdf5805f62c138a16934d5796e"
GLUE_SHA256 = "5c704b5aec595de677c43d8d7e27bcadb71a95d1be33d7dd98249d2648790657"


class TestFrozenOutputs:
    def test_validate_report_lines(self, corpus):
        reports = [validate(FillingInstance(*case)) for case in corpus]
        assert (len(reports), sum(r.valid for r in reports)) == (CORPUS_SIZE, CORPUS_VALID)
        assert _digest("\n".join(r.lines()) for r in reports) == VALIDATE_SHA256
        # The verdict comes from the raw values and the check text is built apart from it.
        assert all(r.valid == (not r.failures()) and len(r.checks) == 9 for r in reports)

    def test_gluing_and_corner_structure(self, corpus):
        def describe(sigma: Permutation, punctures: int) -> str:
            rev, adv = _kernel.structure_maps(sigma.degree // 4)
            on_equation = _kernel.equation_offender((0, *sigma.images), rev, adv) is None
            head = f"{vertex_classes(sigma)} {corner_rotation(sigma).images} {on_equation}"
            try:
                surf = glue(sigma, punctures)
            except ValueError as exc:
                return f"{head} error: {exc}"
            # The text GLUE_SHA256 was recorded from: the surface's fields with its face words third, then
            # the two fields glue no longer stores, its edge pairing j <-> j+2n and its vertex classes.
            fields = [(f.name, getattr(surf, f.name)) for f in dataclasses.fields(surf)]
            fields[2:2] = [
                ("faces", tuple(tuple(label_of(j, surf.n) for j in c) for c in surf.face_cycles)),
                ("edge_pairing", tuple((j, j + 2 * surf.n) for j in range(1, 2 * surf.n + 1))),
                ("vertex_classes", vertex_classes(sigma)),
            ]
            return f"{head} GluedSurface({', '.join(f'{name}={value!r}' for name, value in fields)})"

        assert _digest(describe(sigma, punctures) for sigma, _, punctures in corpus) == GLUE_SHA256
