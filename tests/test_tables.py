"""Closed-form minima, their edge cases, and agreement with the search."""

import pytest

from fillperm import (
    CrossValidationError,
    FillingInstance,
    SearchQuery,
    cross_validate,
    enumerate_solutions,
    min_intersection,
    validate,
)


SPOT_VALUES = [
    ((1, 0), 1),
    ((3, 0), 5),
    ((3, 2), 6),
    ((0, 4), 2),
    ((0, 5), 4),
    ((0, 6), 4),
    ((2, 0), 4),
    ((2, 2), 4),
    ((2, 3), 5),
    ((2, 4), 6),
]


@pytest.mark.parametrize("surface, expected", SPOT_VALUES)
def test_spot_values(surface, expected):
    assert min_intersection(*surface) == expected


@pytest.mark.parametrize("punctures", range(0, 4))
def test_sphere_needs_four_punctures(punctures):
    assert min_intersection(0, punctures) is None


def test_sphere_parity_staircase():
    # Even counts step up by two, odd counts round up to the next even value.
    assert [min_intersection(0, p) for p in range(4, 11)] == [2, 4, 4, 6, 6, 8, 8]


def test_genus2_floor_then_general_formula():
    assert [min_intersection(2, p) for p in range(0, 6)] == [4, 4, 4, 5, 6, 7]


def test_high_genus_closed_vs_punctured():
    for g in (1, 3, 4, 5):
        assert min_intersection(g, 0) == 2 * g - 1
        for p in (1, 2, 7):
            assert min_intersection(g, p) == 2 * g + p - 2


@pytest.mark.parametrize("surface", [(-1, 0), (0, -1)])
def test_negative_parameters_rejected(surface):
    with pytest.raises(ValueError):
        min_intersection(*surface)


class TestCrossValidation:
    def test_torus_minimum_confirmed(self):
        cv = cross_validate(1, 0, n_max=3)
        assert cv.counts == ((1, 2), (2, 4), (3, 12))
        assert cv.smallest_nonempty == 1
        assert cv.expected == 1

    def test_sphere_four_minimum_confirmed(self):
        cv = cross_validate(0, 4, n_max=2)
        assert cv.smallest_nonempty == 2
        assert cv.expected == 2

    def test_undefined_surface_with_empty_search_passes(self):
        cv = cross_validate(0, 2, n_max=2)
        assert cv.smallest_nonempty is None
        assert cv.expected is None

    def test_below_threshold_probe_passes(self):
        # Closed form says 4; probing n <= 3 must stay empty.
        cv = cross_validate(2, 0, n_max=3)
        assert cv.smallest_nonempty is None
        assert cv.expected == 4

    def test_one_punctured_torus_minimum_confirmed(self):
        cv = cross_validate(1, 1, n_max=2)
        assert cv.smallest_nonempty == 1 == cv.expected

    @pytest.mark.parametrize(
        "genus, punctures, n_max",
        [(g, p, 5) for g in range(4) for p in range(7)] + [(0, p, 6) for p in range(4)],
    )
    def test_counts_equal_the_unpruned_raw_counts(self, genus, punctures, n_max):
        # cross_validate walks one crossing sequence per basepoint-shift class up to
        # the mirror and the index reversal, and adds n * period for each class it
        # visits and for each image it weights; the full search must see the same totals.
        cv = cross_validate(genus, punctures, n_max=n_max)
        assert [n for n, _ in cv.counts] == list(range(1, n_max + 1))
        for n, count in cv.counts:
            assert count == enumerate_solutions(SearchQuery(genus, punctures, n)).raw_count

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            cross_validate(2, 3, n_max)

    def test_witness_comes_from_the_propagation_search(self):
        cv = cross_validate(1, 0, n_max=3)
        assert str(cv.witness) == "(1,2,3,4)"
        assert validate(FillingInstance(cv.witness, 1, 0)).valid
        assert cross_validate(0, 2, n_max=2).witness is None

    # Counts recorded when every n from 1 was walked.
    @pytest.mark.parametrize(
        "genus, punctures, n_max, walks, counts",
        [
            (3, 2, 7, 3, (0, 0, 0, 0, 0, 18768, 381416)),
            (4, 1, 7, 1, (0, 0, 0, 0, 0, 0, 65856)),
            (0, 4, 4, 4, (0, 4, 0, 16)),
            (30000, 0, 3, 0, (0, 0, 0)),
        ],
    )
    def test_walks_start_where_a_face_fits(self, monkeypatch, genus, punctures, n_max, walks, counts):
        # n + 2 - 2g < 1 faces below n = 2g - 1, so those counts are 0 without a walk.
        import fillperm.tables as tables

        real = tables.shift_classes
        walked = []

        def counted(genus, punctures, n, *budgets):
            walked.append(n)
            return real(genus, punctures, n, *budgets)

        monkeypatch.setattr(tables, "shift_classes", counted)
        cv = cross_validate(genus, punctures, n_max)
        assert len(walked) == walks
        assert cv.counts == tuple(enumerate(counts, start=1))

    @pytest.mark.parametrize(
        "punctures, max_seconds, message",
        [(0, -1.0, "max_seconds must be non-negative"), (0, float("nan"), "max_seconds must be non-negative"),
         (-1, 1.0, "genus and punctures must be non-negative")],
    )
    def test_entry_checks_hold_when_no_n_is_walked(self, punctures, max_seconds, message):
        with pytest.raises(ValueError, match=message):
            cross_validate(30000, punctures, 3, max_seconds=max_seconds)

    # The disagreement paths only fire when the walk, the search and the
    # table contradict each other, so a lying stub stands in for a real bug.

    @staticmethod
    def lying_walk(monkeypatch, raw_count):
        import fillperm.tables as tables

        real = tables.shift_classes

        def lying(genus, punctures, n, *budgets):
            classes, raw, nodes = real(genus, punctures, n, *budgets)
            return classes, raw_count(n, raw), nodes

        monkeypatch.setattr(tables, "shift_classes", lying)

    def test_solution_below_closed_form_raises(self, monkeypatch):
        self.lying_walk(monkeypatch, lambda n, raw: max(raw, 1))
        with pytest.raises(CrossValidationError, match="below the closed form"):
            cross_validate(2, 0, n_max=3)

    def test_solution_on_unfillable_surface_raises(self, monkeypatch):
        self.lying_walk(monkeypatch, lambda n, raw: max(raw, 1))
        with pytest.raises(CrossValidationError, match="admits none"):
            cross_validate(0, 1, n_max=1)

    def test_missed_minimum_raises(self, monkeypatch):
        self.lying_walk(monkeypatch, lambda n, raw: 0 if n == 1 else raw)
        with pytest.raises(CrossValidationError, match="!="):
            cross_validate(1, 0, n_max=2)

    def test_missing_witness_raises(self, monkeypatch):
        import fillperm.tables as tables

        real = tables.enumerate_solutions

        def suppressed(query):
            r = real(query)
            return type(r)((), 0, r.nodes_explored, r.wall_time)

        monkeypatch.setattr(tables, "enumerate_solutions", suppressed)
        with pytest.raises(CrossValidationError, match="no witness at n = 5"):
            cross_validate(2, 3, n_max=5)
