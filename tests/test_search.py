"""Propagation search and shift-class walk vs. the brute-force oracle, plus symmetry machinery."""

import functools
import hashlib
import itertools
import math
import tracemalloc

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


@st.composite
def partial_crossing_sets(draw):
    """n <= 7 and some crossings (k, c, right) with distinct indices k and distinct positions c."""
    n = draw(st.integers(1, 7))
    count = draw(st.integers(0, n))
    indices = draw(st.permutations(range(n)))[:count]
    positions = draw(st.permutations(range(n)))[:count]
    hands = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return n, list(zip(indices, positions, hands))


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
# images.  The emptiness rows are the benchmark's sphere sweep.  The complete
# searches' node counts were re-recorded when they began walking one
# second-curve basepoint; a limited search still walks every root.
EMPTY_DIGEST = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
SPHERE_NODES = {
    0: (2, 6, 18, 86, 626, 5814),
    1: (2, 6, 26, 150, 1138, 10902),
    2: (2, 6, 26, 158, 1258, 12462),
    3: (2, 6, 26, 158, 1266, 12654),
}
PINNED_TREES = [
    *(((0, p, n), {}, nodes, 0, EMPTY_DIGEST)
      for p, row in SPHERE_NODES.items() for n, nodes in enumerate(row, 1)),
    ((2, 3, 5), {}, 1242, 2300, "dbd02ed9666a451583a582e9fc568d15fb0310f61b038bba40d537289b287e81"),
    ((1, 2, 3), {}, 26, 48, "a358bef55da88d63d4e120ddb14407749ece4f93d95d7d85828274265247f988"),
    ((2, 3, 5), {"limit": 7}, 21, 7, "4e64ca2ee73c1898a683dfdad54c91ca1d02cbabfce928c5dedddd7db580a3d3"),
]


def test_pinned_search_trees():
    assert sum(map(sum, SPHERE_NODES.values())) == 46800
    for params, options, nodes, raw, digest in PINNED_TREES:
        result = enumerate_solutions(SearchQuery(*params, **options))
        images = repr(sorted(p.images for p in result.solutions)).encode()
        assert (result.nodes_explored, result.raw_count, hashlib.sha256(images).hexdigest()) == (
            nodes, raw, digest), (params, options)


# Every cell with g <= 3 and n <= 5, punctures up to one past the face count, and S_2,4 at n = 6.
QUOTIENT_CELLS = [
    *((g, p, n) for g in range(4) for n in range(1, 6) for p in range(max(1, n + 4 - 2 * g))),
    (2, 4, 6),
]
# Cells where the bigon and face prunes cut the subtrees under crossing 0's other positions
# differently from the walked one, whose relabelled copies they are solution for solution but not
# node for node, since each fills its symbols in its own order: (nodes of the complete search,
# nodes of the all-roots walk).
UNEVEN_TREES = {
    (0, 0, 4): (86, 360),
    (0, 0, 5): (626, 3178),
    (0, 1, 5): (1138, 5674),
    (1, 0, 4): (86, 360),
    (1, 0, 5): (626, 3178),
    (1, 1, 5): (1138, 5674),
    (2, 0, 4): (86, 360),
    (2, 0, 5): (626, 3178),
    (2, 1, 5): (1138, 5674),
    (3, 0, 5): (546, 2810),
    (3, 1, 5): (546, 2810),
}


@pytest.mark.parametrize("genus, punctures, n", QUOTIENT_CELLS)
def test_basepoint_quotient_matches_the_all_roots_walk(genus, punctures, n):
    # A limit above the raw count walks every root, one copy per leaf, as the search did before the
    # quotient.  test_oracle_equivalence checks the complete search against brute force up to degree 8.
    complete = enumerate_solutions(SearchQuery(genus, punctures, n))
    every_root = enumerate_solutions(SearchQuery(genus, punctures, n, limit=complete.raw_count + 1))
    assert complete.solutions == every_root.solutions
    if (genus, punctures, n) in UNEVEN_TREES:
        assert (complete.nodes_explored, every_root.nodes_explored) == UNEVEN_TREES[genus, punctures, n]
    else:
        assert complete.nodes_explored * n == every_root.nodes_explored


@functools.lru_cache(maxsize=None)
def all_roots_solution_set(genus, punctures, n):
    # The limit is never reached, so the search walks every root and relabels nothing.
    return frozenset(enumerate_solutions(SearchQuery(genus, punctures, n, limit=10**9)).solutions)


@given(st.integers(0, 3), st.integers(0, 7), st.integers(1, 5))
def test_unit_shift_orbits_meet_position_zero_once(genus, punctures, n):
    # The quotient's premise, through the reference conjugation: the second-curve unit shift maps
    # solutions to solutions, freely, and each orbit has crossing 0 at position 0 exactly once.
    shift = symmetry_group(n)[1]
    solutions = all_roots_solution_set(genus, punctures, n)
    for sigma in solutions:
        orbit = [sigma]
        for _ in range(n - 1):
            orbit.append(conjugate(orbit[-1], shift))
        assert conjugate(orbit[-1], shift) == sigma
        assert len(set(orbit)) == n
        assert solutions.issuperset(orbit)
        assert sum(_kernel.crossings((0, *s.images), n)[0][0] == 0 for s in orbit) == 1


def test_complete_search_memory_is_linear_in_n():
    # The relabelled copies are conjugated one unit shift at a time: a table of the n shift maps
    # would take over 100 MB at n = 2000.
    tracemalloc.start()
    try:
        with pytest.raises(SearchLimitError, match="node budget 1 exhausted"):
            enumerate_solutions(SearchQuery(1, 0, 2000, max_nodes=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("genus, punctures, n", [(2, 4, 6), (0, 4, 6), (1, 0, 5), (2, 3, 5), (1, 2, 3)])
def test_one_node_is_one_chain_call_in_both_engines(monkeypatch, genus, punctures, n):
    # Each node places the crossing of one _kernel.chain call; the walk also rebuilds every counted
    # class with from_crossings, which places its n crossings through the same call.
    calls = []
    real = _kernel.chain

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernel, "chain", counted)
    for limit in (None, 5):
        calls.clear()
        result = enumerate_solutions(SearchQuery(genus, punctures, n, limit=limit))
        assert len(calls) == result.nodes_explored > 0, limit
    calls.clear()
    classes, _, nodes = shift_classes(genus, punctures, n)
    assert len(calls) == nodes + n * classes
    assert classes > 0


@given(partial_crossing_sets())
def test_every_guess_places_a_whole_crossing(placed):
    # The lemma that lets enumerate_solutions place a guess's four pairs without a collision test.
    n, placed = placed
    rev, adv = _kernel.structure_maps(n)
    sigma, used = [0] * (4 * n + 1), [False] * (4 * n + 1)
    for k, c, right in placed:
        for side, image in _kernel.chain(2 * k + 1, _kernel.incoming(c, right, n), rev, adv):
            assert not sigma[side] and not used[image]
            sigma[side], used[image] = image, True
    if len(placed) == n:
        assert all(sigma[1:]) and all(used[1:])
        return
    k0 = min(set(range(n)) - {k for k, _, _ in placed})
    c0 = min(set(range(n)) - {c for _, c, _ in placed})
    j = sigma.index(0, 1)
    assert j == min(2 * k0 + 1, 2 * c0 + 2) <= 2 * n
    for v in range(1 + j % 2, 4 * n + 1, 2):
        if not used[v]:
            sides, images = zip(*_kernel.chain(j, v, rev, adv))
            assert len(set(sides)) == len(set(images)) == 4
            assert not any(sigma[a] for a in sides) and not any(used[b] for b in images)


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

    def test_canonical_form_rejects_a_degree_off_four(self):
        with pytest.raises(ValueError, match="degree 6 is not a multiple of 4"):
            canonical_form(Permutation((2, 1, 4, 3, 6, 5)))

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


def mirror(w, eps):
    """Every crossing's handedness flipped."""
    return w, [not e for e in eps]


def reversal(w, eps):
    """The index reversal (w, eps) -> (w o r, eps o r) with r(k) = -k mod n."""
    n = len(w)
    return [w[-k % n] for k in range(n)], [eps[-k % n] for k in range(n)]


def tilt(w):
    """Second-curve steps d with 2d < n, minus those with 2d > n."""
    n = len(w)
    steps = [(w[(k + 1) % n] - w[k]) % n for k in range(n)]
    return sum((2 * d < n) - (2 * d > n) for d in steps if d)


def crossing_sequences(n, slice_at_zero=False):
    """Every crossing sequence of n crossings, or only those with w(0) = 0."""
    for w in itertools.permutations(range(n)):
        if not (slice_at_zero and w[0]):
            for eps in itertools.product((False, True), repeat=n):
                yield list(w), list(eps)


# Closed meanders with 2m crossings, m = 1..6 (OEIS A005315; Lando and Zvonkin, *Plane and
# projective meanders*, 1993).
MEANDERS = (1, 2, 8, 42, 262, 1828)


class TestShiftClasses:
    """The crossing-sequence walk: one necklace per basepoint-shift class, n * period solutions each,
    quotiented further by the mirror and the index reversal, and on even-n sphere cells restricted
    to alternating crossings."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mirror_and_reversal_are_involutions(self, n):
        for w, eps in crossing_sequences(n):
            for symmetry in (mirror, reversal):
                assert symmetry(*symmetry(w, eps)) == (w, eps)

    @pytest.mark.parametrize("n, slice_at_zero", [*((n, False) for n in range(1, 6)), (6, True)])
    def test_mirror_and_reversal_keep_faces_and_bigons(self, n, slice_at_zero):
        for w, eps in crossing_sequences(n, slice_at_zero):
            shape = _kernel.faces(_kernel.from_crossings(w, eps))
            for symmetry in (mirror, reversal):
                assert _kernel.faces(_kernel.from_crossings(*symmetry(w, eps))) == shape

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mirror_and_reversal_map_shift_classes_onto_shift_classes(self, n):
        # The walk's weights rest on this: each image of a class is a whole class of the same
        # period, and left-handed count and tilt are class invariants that the images send to
        # n - lefts and -tilt.
        classes = {}
        for w, eps in crossing_sequences(n):
            form = tuple(_kernel.canonical(_kernel.from_crossings(w, eps), n))
            classes.setdefault(form, []).append((w, eps))
        for members in classes.values():
            invariants = {(eps.count(False), tilt(w)) for w, eps in members}
            assert len(invariants) == 1
            ((lefts, slope),) = invariants
            for symmetry, image in ((mirror, (n - lefts, slope)), (reversal, (lefts, -slope))):
                images = {tuple(_kernel.canonical(_kernel.from_crossings(*symmetry(*m)), n)) for m in members}
                assert len(images) == 1
                (target,) = images
                assert len(classes[target]) == len(members)
                w, eps = classes[target][0]
                assert (eps.count(False), tilt(w)) == image

    @pytest.mark.parametrize("genus, punctures", [*((g, p) for g in range(4) for p in range(7)), (0, 7), (0, 8)])
    def test_classes_and_raw_counts_match_the_search(self, genus, punctures):
        # Past the brute-force oracle's degree 8: the propagation search's solutions, sorted into
        # shift classes by their canonical forms.  The sphere rows run to n = 6, where the walk
        # places alternating crossings only and the search places every symbol.
        for n in range(1, 7 if genus == 0 else 6):
            solutions = enumerate_solutions(SearchQuery(genus, punctures, n)).solutions
            forms = {tuple(_kernel.canonical((0, *sigma.images), n)) for sigma in solutions}
            assert shift_classes(genus, punctures, n)[:2] == (len(forms), len(solutions)), n

    @pytest.mark.parametrize("params, classes", [((2, 3, 5), 92), ((2, 4, 6), 664)])
    def test_every_counted_class_is_validated_once(self, monkeypatch, params, classes):
        import fillperm.search as search

        real = search.validate
        forms = []

        def counted(instance):
            forms.append(tuple(_kernel.canonical((0, *instance.sigma.images), params[2])))
            return real(instance)

        monkeypatch.setattr(search, "validate", counted)
        assert shift_classes(*params)[0] == classes
        assert len(set(forms)) == len(forms) == classes

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
        # On the sphere each curve separates, so the crossings alternate in handedness along both
        # curves, which is what the walk restricts even-n sphere cells to, and the algebraic
        # intersection number is 0: half the crossings are right-handed.  With p = n + 2, every
        # face may hold a puncture, so this is every sphere solution, none at odd n.
        solutions = enumerate_solutions(SearchQuery(0, n + 2, n)).solutions
        assert len(solutions) == {2: 4, 4: 16, 6: 96}.get(n, 0)
        for sigma in solutions:
            w, eps = _kernel.crossings((0, *sigma.images), n)
            hand_at = dict(zip(w, eps))  # handedness by position along the second curve
            for k in range(n):
                assert eps[k] != eps[(k + 1) % n]
                assert hand_at[k] != hand_at[(k + 1) % n]
            assert 2 * sum(eps) == n

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_sphere_totals_are_closed_meander_counts(self, n):
        # An outside oracle: the sphere's filling permutations number 2n times the closed meanders
        # with n crossings.
        assert shift_classes(0, n + 2, n)[1] == 2 * n * MEANDERS[n // 2 - 1]

    @pytest.mark.parametrize("genus, punctures, n, nodes", [
        (0, 3, 5, 172),  # odd n: every crossing sequence, as before the alternating restriction
        (0, 3, 7, 11379),
        (0, 3, 6, 32),  # even n: alternating crossings only
        (0, 12, 10, 2789),
        (2, 3, 5, 170),  # genus >= 1: every crossing sequence, up to the quotients
        (2, 4, 6, 1736),
        (1, 2, 4, 47),
        (3, 0, 7, 5715),
        (2, 5, 7, 11383),
    ])
    def test_pinned_walk_nodes(self, genus, punctures, n, nodes):
        assert shift_classes(genus, punctures, n)[2] == nodes

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_torus_row_is_2n_times_totient(self, n):
        # The walk finds only period-1 classes here, each of one sign throughout, stepping a constant
        # d with gcd(d, n) = 1 along the second curve; why bigon-free forces that is not proved here.
        phi = sum(math.gcd(d, n) == 1 for d in range(1, n + 1))
        assert shift_classes(1, 0, n)[:2] == (2 * phi, 2 * n * phi)

    def test_budgets(self):
        with pytest.raises(SearchLimitError, match="node budget 50 exhausted"):
            shift_classes(2, 4, 6, max_nodes=50)
        with pytest.raises(SearchLimitError, match="time budget 0.0s exhausted"):
            shift_classes(2, 4, 6, max_seconds=0.0)
        # Under 256 nodes the clock is never read.
        assert shift_classes(1, 4, 4, max_seconds=0.0)[2] < 256

    def test_depth_budget(self):
        # The walk recurses once per crossing, so n = 19999 runs past the default recursion limit.
        with pytest.raises(SearchLimitError) as raised:
            shift_classes(10000, 0, 19999)
        assert str(raised.value) == "depth budget exhausted: n = 19999 recurses past the interpreter's recursion limit"

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
