"""Arc labeling and the two structural permutations it induces."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fillperm import curve_advance, reversal_pairing
from fillperm.arcs import label_texts

from conftest import ALPHA, BETA, ArcLabel, compose, identity, label_of

ns = st.integers(1, 8)


class TestLabels:
    @pytest.mark.parametrize(
        "j, text",
        [(1, "a1"), (2, "b1"), (9, "a5"), (10, "b5"), (11, "a1'"), (19, "a5'"), (20, "b5'")],
    )
    def test_symbol_to_text_at_n5(self, j, text):
        assert str(label_of(j, 5)) == text

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_text_table_matches_label_of(self, n):
        assert label_texts(n) == ("", *(str(label_of(j, n)) for j in range(1, 4 * n + 1)))

    def test_crossing_count_checked(self):
        with pytest.raises(ValueError):
            label_texts(0)

    @given(ns)
    def test_labels_are_a_bijection(self, n):
        labels = [label_of(j, n) for j in range(1, 4 * n + 1)]
        assert len(set(labels)) == 4 * n
        forward = [ArcLabel(curve, i) for i in range(1, n + 1) for curve in (ALPHA, BETA)]
        assert labels == forward + [ArcLabel(lab.curve, lab.index, True) for lab in forward]


class TestReversalPairing:
    def test_smallest_cases(self):
        assert str(reversal_pairing(1)) == "(1,3)(2,4)"
        assert str(reversal_pairing(2)) == "(1,5)(2,6)(3,7)(4,8)"

    @given(ns)
    def test_involution_without_fixed_points(self, n):
        q = reversal_pairing(n)
        assert compose(q, q) == identity(4 * n)
        assert all(q.images[j - 1] != j for j in range(1, 4 * n + 1))

    @given(ns)
    def test_flips_exactly_the_orientation(self, n):
        q = reversal_pairing(n)
        for j in range(1, 4 * n + 1):
            lab = label_of(j, n)
            assert label_of(q.images[j - 1], n) == ArcLabel(lab.curve, lab.index, not lab.inverted)


class TestCurveAdvance:
    def test_smallest_cases(self):
        assert curve_advance(1) == identity(4)
        assert str(curve_advance(2)) == "(1,3)(2,4)(5,7)(6,8)"

    @given(ns)
    def test_order_divides_n(self, n):
        t = curve_advance(n)
        power = identity(4 * n)
        for _ in range(n):
            power = compose(t, power)
        assert power == identity(4 * n)

    @given(ns)
    def test_preserves_curve_and_orientation(self, n):
        t = curve_advance(n)
        for j in range(1, 4 * n + 1):
            before, after = label_of(j, n), label_of(t.images[j - 1], n)
            assert after.curve == before.curve
            assert after.inverted == before.inverted
            step = 1 if not before.inverted else -1
            assert after.index == (before.index - 1 + step) % n + 1

    @given(ns)
    def test_conjugation_by_reversal_inverts(self, n):
        q, t = reversal_pairing(n), curve_advance(n)
        # q t q is the inverse of t exactly when composing it after t gives the identity.
        assert compose(compose(compose(q, t), q), t) == identity(4 * n)
