"""Permutation arithmetic against small hand-worked examples."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fillperm import Permutation, _kernel
from fillperm.permutations import MAX_DEGREE

from conftest import cycles_of


@st.composite
def permutations(draw, min_degree: int = 1, max_degree: int = 12):
    m = draw(st.integers(min_degree, max_degree))
    return Permutation(draw(st.permutations(range(1, m + 1))))


class TestConstruction:
    def test_images_define_the_map(self):
        p = Permutation((2, 3, 1, 4))
        assert [p(j) for j in (1, 2, 3, 4)] == [2, 3, 1, 4]

    def test_identity(self):
        e = Permutation.identity(6)
        assert all(e(j) == j for j in range(1, 7))

    @pytest.mark.parametrize("bad", [(), (2, 2), (0, 1), (1, 3)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_call_range_checked(self):
        p = Permutation.identity(4)
        with pytest.raises(ValueError):
            p(5)
        with pytest.raises(ValueError):
            p(0)


class TestCycleNotation:
    def test_parse_maps_forward_along_each_cycle(self):
        p = Permutation.parse("(1,2,19,14)(3,8,15,16,9,4,17,18,5,10,11,12)(6,13,20,7)")
        assert p.degree == 20
        assert p(1) == 2 and p(14) == 1
        assert p(12) == 3 and p(20) == 7 and p(6) == 13

    def test_parse_tolerates_whitespace(self):
        assert Permutation.parse(" (1, 2) (3 ,4) ") == Permutation.parse("(1,2)(3,4)")

    def test_degree_inferred_as_multiple_of_four(self):
        assert Permutation.parse("(1,2)").degree == 4
        assert Permutation.parse("(1,5)").degree == 8

    def test_explicit_degree_keeps_fixed_points(self):
        p = Permutation.parse("(1,2)", degree=6)
        assert p.degree == 6 and p(5) == 5

    def test_str_is_canonical(self):
        assert str(Permutation.parse("(14,1,2,19)", degree=20)).startswith("(1,2,19,14)")
        assert str(Permutation((2, 1, 3, 4))) == "(1,2)(3)(4)"
        assert str(Permutation.parse("(5,6)(3,1,2)", degree=6)) == "(1,2,3)(4)(5,6)"

    @given(permutations(max_degree=40))
    def test_str_matches_the_cycle_decomposition(self, p):
        # From the text alone: each cycle follows p from its smallest symbol, sorted, fixed points written.
        cycles = cycles_of(p)
        assert all(p(a) == b for c in cycles for a, b in zip(c, c[1:] + c[:1]))
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert sorted(s for c in cycles for s in c) == list(range(1, p.degree + 1))

    @pytest.mark.parametrize("text", ["", "(1,2", "nope", "(1,2)x(3,4)", "(1,1)"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            Permutation.parse(text)

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(ValueError):
            Permutation.parse("(1,2)(2,3)")


class TestAlgebra:
    def test_compose_is_outer_after_inner(self):
        a = Permutation.parse("(1,2)", degree=4)
        b = Permutation.parse("(2,3)", degree=4)
        assert a.compose(b)(3) == 1  # b sends 3 to 2, then a sends 2 to 1
        assert b.compose(a)(3) == 2

    def test_compose_requires_matching_degree(self):
        with pytest.raises(ValueError):
            Permutation.identity(4).compose(Permutation.identity(8))

    def test_conjugate_relabels(self):
        p = Permutation.parse("(1,2,3)", degree=4)
        by = Permutation.parse("(1,4)", degree=4)
        assert str(p.conjugate(by)) == "(1)(2,3,4)"

    def test_parity_reversal(self):
        assert _kernel.parity_offender((0, *Permutation.parse("(1,2,3,4)").images)) is None
        assert _kernel.parity_offender((0, *Permutation.parse("(1,3)(2,4)").images)) == 1

    def test_cycle_and_two_cycle_counts(self):
        p = Permutation.parse("(1,4,5,2,7,12,9,8)(3,10)(6,11)")
        assert _kernel.faces((0, *p.images)) == (3, 2)
        assert _kernel.faces((0, *Permutation.identity(4).images)) == (4, 0)


@given(permutations())
def test_string_round_trip(p):
    assert Permutation.parse(str(p), degree=p.degree) == p


@given(permutations())
def test_inverse_cancels(p):
    e = Permutation.identity(p.degree)
    assert p.compose(p.inverse()) == e
    assert p.inverse().compose(p) == e


@given(st.integers(2, 8).flatmap(
    lambda m: st.tuples(*(st.permutations(range(1, m + 1)) for _ in range(3)))))
def test_composition_is_associative(triple):
    a, b, c = (Permutation(t) for t in triple)
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(permutations(min_degree=2))
def test_conjugation_preserves_cycle_type(p):
    by = Permutation(tuple(range(2, p.degree + 1)) + (1,))
    assert sorted(map(len, cycles_of(p.conjugate(by)))) == sorted(map(len, cycles_of(p)))


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
