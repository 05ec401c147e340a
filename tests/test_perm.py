"""Permutations and their cycle notation against small hand-worked examples."""

import itertools
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fillperm import Permutation, SearchQuery, _kernel, enumerate_solutions
from fillperm.permutations import MAX_DEGREE

from conftest import cycles_of, identity


@st.composite
def permutations(draw, min_degree: int = 1, max_degree: int = 12):
    m = draw(st.integers(min_degree, max_degree))
    return Permutation(draw(st.permutations(range(1, m + 1))))


class TestConstruction:
    def test_images_define_the_map(self):
        p = Permutation((2, 3, 1, 4))
        assert [p.images[j - 1] for j in (1, 2, 3, 4)] == [2, 3, 1, 4]

    @pytest.mark.parametrize("bad", [(), (2, 2), (0, 1), (1, 3)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)


class TestCycleNotation:
    def test_parse_maps_forward_along_each_cycle(self):
        p = Permutation.parse("(1,2,19,14)(3,8,15,16,9,4,17,18,5,10,11,12)(6,13,20,7)")
        assert p.degree == 20
        image = dict(enumerate(p.images, start=1))
        assert image[1] == 2 and image[14] == 1
        assert image[12] == 3 and image[20] == 7 and image[6] == 13

    def test_parse_tolerates_whitespace(self):
        assert Permutation.parse(" (1, 2) (3 ,4) ") == Permutation.parse("(1,2)(3,4)")

    def test_degree_inferred_as_multiple_of_four(self):
        assert Permutation.parse("(1,2)").degree == 4
        assert Permutation.parse("(1,5)").degree == 8

    def test_explicit_degree_keeps_fixed_points(self):
        p = Permutation.parse("(1,2)", degree=6)
        assert p.degree == 6 and p.images[4] == 5

    def test_str_is_canonical(self):
        assert str(Permutation.parse("(14,1,2,19)", degree=20)).startswith("(1,2,19,14)")
        assert str(Permutation((2, 1, 3, 4))) == "(1,2)(3)(4)"
        assert str(Permutation.parse("(5,6)(3,1,2)", degree=6)) == "(1,2,3)(4)(5,6)"

    @given(permutations(max_degree=40))
    def test_str_matches_the_cycle_decomposition(self, p):
        # From the text alone: each cycle follows p from its smallest symbol, sorted, fixed points written.
        cycles = cycles_of(p)
        assert all(p.images[a - 1] == b for c in cycles for a, b in zip(c, c[1:] + c[:1]))
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert sorted(s for c in cycles for s in c) == list(range(1, p.degree + 1))

    @pytest.mark.parametrize("text", ["", "(1,2", "nope", "(1,2)x(3,4)", "(1,1)"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            Permutation.parse(text)

    @pytest.mark.parametrize("text, degree, message", [
        ("(1,2)", 0, "degree must be at least 1"),
        ("(1,5)", 4, "symbol 5 outside 1..4"),
    ])
    def test_parse_rejects_a_bad_degree_or_symbol(self, text, degree, message):
        with pytest.raises(ValueError, match=message):
            Permutation.parse(text, degree=degree)

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(ValueError):
            Permutation.parse("(1,2)(2,3)")


class TestAlgebra:
    def test_parity_reversal(self):
        assert _kernel.parity_offender((0, *Permutation.parse("(1,2,3,4)").images)) is None
        assert _kernel.parity_offender((0, *Permutation.parse("(1,3)(2,4)").images)) == 1

    def test_cycle_and_two_cycle_counts(self):
        p = Permutation.parse("(1,4,5,2,7,12,9,8)(3,10)(6,11)")
        assert _kernel.faces((0, *p.images)) == (3, 2)
        assert _kernel.faces((0, *identity(4).images)) == (4, 0)


def test_two_symbol_face_walk_agrees_on_every_small_parity_reversing_bijection():
    walked = 0
    for m in (4, 8):
        for odd_images in itertools.permutations(range(2, m + 1, 2)):
            for even_images in itertools.permutations(range(1, m, 2)):
                s = [0] * (m + 1)
                s[1::2], s[2::2] = odd_images, even_images
                assert _kernel.reversing_faces(s) == _kernel.faces(s)
                walked += 1
    assert walked == 580


def test_two_symbol_face_walk_agrees_on_a_searched_cell():
    solutions = enumerate_solutions(SearchQuery(2, 4, 6)).solutions
    assert len(solutions) == 23616
    assert all(_kernel.reversing_faces(s) == _kernel.faces(s) for s in ((0, *p.images) for p in solutions))


@given(permutations())
def test_string_round_trip(p):
    assert Permutation.parse(str(p), degree=p.degree) == p


@given(permutations())
def test_cycle_count_matches_decomposition(p):
    cycles = cycles_of(p)
    assert _kernel.faces((0, *p.images)) == (len(cycles), sum(len(c) == 2 for c in cycles))


def test_symbol_above_the_cap_is_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 4} exceeds the cap"):
            Permutation.parse(f"({MAX_DEGREE + 1})")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
