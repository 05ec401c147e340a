"""Propagation search and shift-class walk vs. the brute-force oracle, plus symmetry machinery."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fillperm import (
    FillingInstance,
    Permutation,
    SearchLimitError,
    SearchQuery,
    canonical_form,
    curve_advance,
    enumerate_solutions,
    naive_enumerate,
    reversal_pairing,
    validate,
)
from fillperm import _kernel
from fillperm.cli import main
from fillperm.permutations import MAX_DEGREE
from fillperm.search import shift_classes

from conftest import _symmetry_elements, compose, conjugate, identity, small_parameter_grid, symmetry_group


@st.composite
def quarter_degree_permutations(draw):
    """Permutations of degree 4..24 or 68..80, half of them parity-reversing like every solution.

    At n = 17..20 a canonical form tries more shift maps than the kernel keeps cached.
    """
    half = 2 * draw(st.integers(1, 6) | st.integers(17, 20))
    if not draw(st.booleans()):
        return Permutation(draw(st.permutations(range(1, 2 * half + 1))))
    evens = draw(st.permutations(range(2, 2 * half + 1, 2)))
    odds = draw(st.permutations(range(1, 2 * half, 2)))
    return Permutation(v for pair in zip(evens, odds) for v in pair)


class TestKnownSets:
    def test_torus_base_case(self):
        result = enumerate_solutions(SearchQuery(1, 0, 1))
        assert [str(p) for p in result.solutions] == ["(1,2,3,4)", "(1,4,3,2)"]
        assert result.raw_count == 2

    def test_closed_genus2_needs_more_than_three(self):
        assert enumerate_solutions(SearchQuery(2, 0, 3)).raw_count == 0

    @pytest.mark.parametrize("punctures", range(0, 6))
    def test_sphere_rejects_odd_small_n(self, punctures):
        assert enumerate_solutions(SearchQuery(0, punctures, 3)).raw_count == 0

    def test_sphere_four_punctures_at_two(self, sphere4_sigma):
        result = enumerate_solutions(SearchQuery(0, 4, 2))
        assert sphere4_sigma in result.solutions
        assert result.raw_count == 4
        assert all(validate(FillingInstance(p, 0, 4)).bigons == 4 for p in result.solutions)

    def test_closed_torus_counts_grow(self):
        assert enumerate_solutions(SearchQuery(1, 0, 2)).raw_count == 4
        assert enumerate_solutions(SearchQuery(1, 0, 3)).raw_count == 12

    def test_infeasible_queries_are_vacuously_empty(self):
        assert enumerate_solutions(SearchQuery(3, 0, 2)).solutions == ()
        assert enumerate_solutions(SearchQuery(1, 3, 1)).solutions == ()


@pytest.mark.parametrize("genus, punctures, n", small_parameter_grid())
def test_oracle_equivalence(genus, punctures, n):
    query = SearchQuery(genus, punctures, n)
    assert enumerate_solutions(query).solutions == naive_enumerate(query).solutions


@pytest.mark.parametrize("genus, punctures, n", small_parameter_grid())
def test_oracle_limits_and_pruning(genus, punctures, n):
    """Both routes keep the same lexicographic prefix, and the shift-class walk's quotient agrees with brute force."""
    query = SearchQuery(genus, punctures, n, limit=2)
    assert naive_enumerate(query).solutions == enumerate_solutions(query).solutions
    oracle = naive_enumerate(SearchQuery(genus, punctures, n))
    classes = {tuple(_kernel.canonical((0, *p.images), n)) for p in oracle.solutions}
    assert shift_classes(genus, punctures, n)[:2] == (len(classes), oracle.raw_count)


# Search tree recorded before the segment bookkeeping replaced the per-node
# path walks: nodes explored, raw count and a SHA-256 of the sorted solution
# images.  The emptiness rows are the benchmark's sphere sweep.
EMPTY_DIGEST = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
SPHERE_NODES = {
    0: (2, 12, 54, 360, 3178, 35076),
    1: (2, 12, 78, 600, 5674, 65364),
    2: (2, 12, 78, 632, 6290, 74788),
    3: (2, 12, 78, 632, 6330, 75924),
}
PINNED_TREES = [
    *(((0, p, n), {}, nodes, 0, EMPTY_DIGEST)
      for p, row in SPHERE_NODES.items() for n, nodes in enumerate(row, 1)),
    ((2, 3, 5), {}, 6210, 2300, "dbd02ed9666a451583a582e9fc568d15fb0310f61b038bba40d537289b287e81"),
    ((1, 2, 3), {}, 78, 48, "a358bef55da88d63d4e120ddb14407749ece4f93d95d7d85828274265247f988"),
    ((2, 3, 5), {"limit": 7}, 21, 7, "4e64ca2ee73c1898a683dfdad54c91ca1d02cbabfce928c5dedddd7db580a3d3"),
]


def test_pinned_search_trees():
    assert sum(map(sum, SPHERE_NODES.values())) == 275192
    for params, options, nodes, raw, digest in PINNED_TREES:
        result = enumerate_solutions(SearchQuery(*params, **options))
        images = repr(sorted(p.images for p in result.solutions)).encode()
        assert (result.nodes_explored, result.raw_count, hashlib.sha256(images).hexdigest()) == (
            nodes, raw, digest), (params, options)


class TestOutputDiscipline:
    def test_solutions_sorted_and_distinct(self):
        sols = enumerate_solutions(SearchQuery(1, 0, 3)).solutions
        assert sorted(set(sols), key=lambda p: p.images) == list(sols)

    def test_runs_are_deterministic(self):
        a = enumerate_solutions(SearchQuery(1, 2, 3))
        b = enumerate_solutions(SearchQuery(1, 2, 3))
        assert a.solutions == b.solutions
        assert a.nodes_explored == b.nodes_explored

    def test_every_solution_validates(self):
        for sigma in enumerate_solutions(SearchQuery(1, 2, 3)).solutions:
            assert validate(FillingInstance(sigma, 1, 2)).valid


class TestBudgets:
    def test_limit_truncates(self):
        result = enumerate_solutions(SearchQuery(1, 0, 3, limit=5))
        assert result.raw_count == 5
        full = enumerate_solutions(SearchQuery(1, 0, 3))
        assert result.solutions == full.solutions[:5]

    def test_node_budget(self):
        with pytest.raises(SearchLimitError, match="node budget"):
            enumerate_solutions(SearchQuery(2, 3, 5, max_nodes=50))

    def test_time_budget(self):
        with pytest.raises(SearchLimitError, match="time budget"):
            enumerate_solutions(SearchQuery(2, 3, 5, max_seconds=0.0))

    @pytest.mark.parametrize("kwargs", [
        {"genus": -1, "punctures": 0, "n": 1},
        {"genus": 0, "punctures": -1, "n": 1},
        {"genus": 0, "punctures": 0, "n": 0},
        {"genus": 1, "punctures": 0, "n": 1, "limit": 0},
    ])
    def test_query_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SearchQuery(**kwargs)


class TestNaive:
    def test_capped_at_degree_eight(self):
        with pytest.raises(ValueError, match="degree 8"):
            naive_enumerate(SearchQuery(1, 0, 3))

    @pytest.mark.parametrize("budget", [{"max_nodes": 5}, {"max_seconds": 0}])
    def test_budgets_stop_the_oracle(self, budget):
        with pytest.raises(SearchLimitError):
            naive_enumerate(SearchQuery(1, 0, 2, **budget))

    def test_naive_flag_routes(self, capsys):
        # `fillperm search --naive` prints what the oracle returns, and the walk's class count.
        assert main(["search", "--genus", "1", "--punctures", "0", "--n", "1", "--naive"]) == 0
        direct = naive_enumerate(SearchQuery(1, 0, 1))
        lines = capsys.readouterr().out.splitlines()
        assert lines == [*map(str, direct.solutions), f"count=2 dedup=2 nodes={direct.nodes_explored}"]


class TestSymmetry:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_have_order_n(self, n):
        for gen in symmetry_group(n):
            power = identity(4 * n)
            for _ in range(n):
                power = compose(gen, power)
            assert power == identity(4 * n)
            if n > 1:
                assert gen != identity(4 * n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_commute(self, n):
        a, b = symmetry_group(n)
        assert compose(a, b) == compose(b, a)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relabeling_fixes_the_structure_maps(self, n):
        # This is why conjugation maps solutions to solutions.
        q, t = reversal_pairing(n), curve_advance(n)
        for e in symmetry_group(n):
            assert conjugate(q, e) == q
            assert conjugate(t, e) == t

    @pytest.mark.parametrize("genus, punctures, n", [(1, 0, 3), (0, 4, 2), (1, 2, 2)])
    def test_solution_sets_closed_under_conjugation(self, genus, punctures, n):
        sols = set(enumerate_solutions(SearchQuery(genus, punctures, n)).solutions)
        assert sols
        for sigma in sols:
            for e in _symmetry_elements(n):
                assert conjugate(sigma, e) in sols

    def test_canonical_form_is_idempotent_and_invariant(self):
        for sigma in enumerate_solutions(SearchQuery(1, 2, 3)).solutions:
            canon = canonical_form(sigma)
            assert canonical_form(canon) == canon
            for e in _symmetry_elements(3):
                assert canonical_form(conjugate(sigma, e)) == canon

    @given(quarter_degree_permutations())
    def test_canonical_form_matches_conjugation_reference(self, sigma):
        conjugates = (conjugate(sigma, e) for e in _symmetry_elements(sigma.degree // 4))
        assert canonical_form(sigma) == min(conjugates, key=lambda p: p.images)

    def test_dedup_counts(self, capsys):
        for (genus, punctures, n), classes in ((("0", "4", "2"), 1), (("1", "0", "1"), 2)):
            assert main(["search", "--genus", genus, "--punctures", punctures, "--n", n, "--dedup"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == classes + 1  # the representatives, then the summary


class TestShiftClasses:
    """The crossing-sequence walk: one necklace per basepoint-shift class, n * period solutions each."""

    @pytest.mark.parametrize("params, classes, raw", [
        ((2, 3, 5), 92, 2300),
        ((2, 4, 6), 664, 23616),
        ((1, 2, 4), 14, 176),
        ((0, 4, 6), 2, 72),
        ((2, 5, 7), 3712, 181888),  # the paper's first cell past the earlier tables
    ])
    def test_pinned_class_and_raw_counts(self, params, classes, raw):
        assert shift_classes(*params)[:2] == (classes, raw)

    @pytest.mark.parametrize("punctures, n", [(3, 5), (4, 6)])
    def test_classes_are_the_cli_dedup_count(self, capsys, punctures, n):
        assert main(["search", "--genus", "2", "--punctures", str(punctures), "--n", str(n), "--dedup"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1].split()
        assert f"dedup={shift_classes(2, punctures, n)[0]}" in summary

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sphere_solutions_balance_their_signs(self, n):
        # On the sphere the algebraic intersection number is 0: half the crossings are right-handed.
        # With p = n + 2, every face may hold a puncture, so this is every sphere solution.
        for sigma in enumerate_solutions(SearchQuery(0, n + 2, n)).solutions:
            assert 2 * sum(_kernel.crossings((0, *sigma.images), n)[1]) == n

    def test_budgets(self):
        with pytest.raises(SearchLimitError, match="node budget 50 exhausted"):
            shift_classes(2, 4, 6, max_nodes=50)
        with pytest.raises(SearchLimitError, match="time budget 0.0s exhausted"):
            shift_classes(2, 4, 6, max_seconds=0.0)
        # Under 256 nodes the clock is never read.
        assert shift_classes(1, 4, 4, max_seconds=0.0)[2] < 256

    @pytest.mark.parametrize("args, budgets", [
        ((-1, 0, 1), {}),
        ((0, -1, 1), {}),
        ((0, 0, 0), {}),
        ((1, 0, MAX_DEGREE // 4 + 1), {}),
        ((1, 0, 1), {"max_nodes": -1}),
        ((1, 0, 1), {"max_seconds": -1.0}),
        ((1, 0, 1), {"max_seconds": float("nan")}),
    ])
    def test_entry_checks(self, args, budgets):
        with pytest.raises(ValueError):
            shift_classes(*args, **budgets)
