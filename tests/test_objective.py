"""Tests for the maxmin-extension utility-vector objective."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import objective
from repro.core.objective import Objective, PlacementScore, UtilityVector
from repro.units import EPSILON


class TestUtilityVector:
    def test_sorted_ascending(self):
        v = UtilityVector([0.5, -0.2, 0.1])
        assert v.values == (-0.2, 0.1, 0.5)

    def test_worst_is_minimum(self):
        assert UtilityVector([0.5, -0.2, 0.1]).worst == -0.2

    def test_worst_of_empty_is_infinite(self):
        assert UtilityVector([]).worst == float("inf")

    def test_of_mapping(self):
        v = UtilityVector.of({"a": 0.3, "b": -0.1})
        assert v.values == (-0.1, 0.3)

    def test_maxmin_prefers_higher_minimum(self):
        # The introduction's example: spreading violations beats
        # concentrating them.
        concentrated = UtilityVector([1.0, 1.0, -1.0])
        spread = UtilityVector([-0.33, -0.16, 0.5])
        assert spread > concentrated

    def test_lexicographic_beyond_the_minimum(self):
        # Equal minimum: the second-lowest decides (the paper's
        # "continue improving the relative performance of other
        # applications" extension).
        a = UtilityVector([0.1, 0.2, 0.9])
        b = UtilityVector([0.1, 0.5, 0.6])
        assert b > a

    def test_equality_within_tolerance(self):
        a = UtilityVector([0.1, 0.2])
        b = UtilityVector([0.1 + 1e-8, 0.2 - 1e-8])
        assert a == b

    def test_custom_tolerance_makes_near_ties_equal(self):
        a = UtilityVector([0.100, 0.2], tolerance=0.01)
        b = UtilityVector([0.105, 0.2], tolerance=0.01)
        assert a == b
        assert not a < b

    def test_tolerance_uses_max_of_both(self):
        fine = UtilityVector([0.100, 0.2])
        coarse = UtilityVector([0.105, 0.2], tolerance=0.01)
        assert fine == coarse

    def test_differing_lengths_not_equal(self):
        assert UtilityVector([0.1]) != UtilityVector([0.1, 0.2])

    def test_shorter_prefix_equal_is_less(self):
        assert UtilityVector([0.1]) < UtilityVector([0.1, 0.2])

    def test_comparison_with_non_vector(self):
        assert UtilityVector([0.1]) != "x"

    @given(st.lists(st.floats(min_value=-50, max_value=1), min_size=1, max_size=6))
    def test_total_order_reflexive(self, values):
        v = UtilityVector(values)
        w = UtilityVector(list(values))
        assert v == w
        assert not v < w
        assert v >= w

    @given(
        st.lists(st.floats(min_value=-50, max_value=1), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-50, max_value=1), min_size=3, max_size=3),
    )
    def test_antisymmetry(self, xs, ys):
        a, b = UtilityVector(xs), UtilityVector(ys)
        assert not (a < b and b < a)

    @given(
        st.lists(st.floats(min_value=-50, max_value=1), min_size=3, max_size=3),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_raising_any_element_never_decreases(self, xs, delta):
        a = UtilityVector(xs)
        raised = UtilityVector([xs[0] + delta] + xs[1:])
        assert raised >= a


class TestPlacementScore:
    def test_vector_dominates(self):
        better = PlacementScore(UtilityVector([0.5, 0.5]), num_changes=10)
        worse = PlacementScore(UtilityVector([0.1, 0.9]), num_changes=0)
        assert better > worse

    def test_ties_broken_by_fewer_changes(self):
        """Scenario 1 of the illustrative example: equal utilities, no
        placement changes wins."""
        no_change = PlacementScore(UtilityVector([0.7, 0.7]), num_changes=0)
        change = PlacementScore(UtilityVector([0.7, 0.7]), num_changes=1)
        assert no_change > change

    def test_equality(self):
        a = PlacementScore(UtilityVector([0.1]), 2)
        b = PlacementScore(UtilityVector([0.1]), 2)
        assert a == b
        assert a != "x"


#: The controller's comparison tolerances, and none at all.
TOLERANCES = (0.0, EPSILON, 0.02, 0.05)


@st.composite
def near_ties(draw):
    """A candidate and an incumbent utility vector that differ, element
    by element, by about their tolerance (just under, at or just over
    it) or by nothing, with tolerances drawn separately; sometimes one
    vector is longer."""
    tol_c = draw(st.sampled_from(TOLERANCES))
    tol_i = draw(st.sampled_from(TOLERANCES))
    tol = max(tol_c, tol_i)
    base = draw(st.lists(st.floats(min_value=-50, max_value=1), max_size=6))
    steps = st.sampled_from(
        [0.0, tol, -tol, tol * (1 + 1e-12), -tol * (1 + 1e-12),
         tol * (1 - 1e-12), -tol * (1 - 1e-12), 2 * tol, -2 * tol, 1e-9]
    )
    moved = [x + draw(steps) for x in base]
    extra = draw(st.lists(st.floats(min_value=-50, max_value=1), max_size=2))
    if draw(st.booleans()):
        moved += extra
    else:
        base += extra
    return UtilityVector(moved, tol_c), UtilityVector(base, tol_i)


class TestObjectiveBetter:
    """``Objective.better`` is the rich ``candidate > incumbent`` in one
    tolerant comparison."""

    @given(pair=near_ties(), churn=st.integers(0, 3))
    @settings(max_examples=400)
    @example(
        pair=(UtilityVector([0.5, 0.6], 0.02), UtilityVector([0.5], 0.05)),
        churn=0,
    )
    @example(
        pair=(UtilityVector([0.52], 0.0), UtilityVector([0.5], 0.02)),
        churn=1,
    )
    def test_matches_the_rich_comparison(self, pair, churn):
        candidate, incumbent = pair
        assert Objective().better(
            PlacementScore(candidate, churn), PlacementScore(incumbent, 0)
        ) == (candidate > incumbent)

    @pytest.mark.parametrize("lengths", [(2, 2), (3, 2), (2, 3)])
    def test_one_comparison_per_call(self, monkeypatch, lengths):
        calls = []
        compare = objective._lex_compare

        def counted(*args):
            calls.append(args)
            return compare(*args)

        monkeypatch.setattr(objective, "_lex_compare", counted)
        candidate = UtilityVector([0.3, 0.4, 0.5][: lengths[0]], 0.05)
        incumbent = UtilityVector([0.3, 0.4, 0.5][: lengths[1]], 0.02)
        Objective().better(
            PlacementScore(candidate), PlacementScore(incumbent)
        )
        assert calls == [(candidate.values, incumbent.values, 0.05)]
