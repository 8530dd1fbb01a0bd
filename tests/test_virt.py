"""Tests for the virtualization cost model and the action vocabulary."""

import pytest

from repro.errors import ConfigurationError
from repro.virt import (
    ActionType,
    FREE_COST_MODEL,
    PAPER_COST_MODEL,
    VirtualizationCostModel,
    diff_placements,
)
from repro.virt.actions import CHANGE_ACTIONS


class TestCostModel:
    """The paper's measured linear cost model (§5)."""

    def test_suspend_cost_matches_paper(self):
        assert PAPER_COST_MODEL.suspend_cost(1000.0) == pytest.approx(35.3)

    def test_resume_cost_matches_paper(self):
        assert PAPER_COST_MODEL.resume_cost(1000.0) == pytest.approx(33.3)

    def test_migrate_cost_matches_paper(self):
        assert PAPER_COST_MODEL.migrate_cost(1000.0) == pytest.approx(13.2)

    def test_boot_time_is_constant(self):
        assert PAPER_COST_MODEL.boot_cost(100.0) == pytest.approx(3.6)
        assert PAPER_COST_MODEL.boot_cost(100_000.0) == pytest.approx(3.6)

    def test_costs_scale_linearly_with_footprint(self):
        assert PAPER_COST_MODEL.suspend_cost(2000.0) == pytest.approx(
            2 * PAPER_COST_MODEL.suspend_cost(1000.0)
        )

    def test_free_model_is_all_zero(self):
        assert FREE_COST_MODEL.suspend_cost(5000) == 0.0
        assert FREE_COST_MODEL.resume_cost(5000) == 0.0
        assert FREE_COST_MODEL.migrate_cost(5000) == 0.0
        assert FREE_COST_MODEL.boot_cost(5000) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualizationCostModel(suspend_rate=-1.0)


class TestActionDuration:
    def test_change_actions_exclude_boot_and_stop(self):
        assert ActionType.BOOT not in CHANGE_ACTIONS
        assert ActionType.STOP not in CHANGE_ACTIONS
        assert ActionType.SUSPEND in CHANGE_ACTIONS
        assert ActionType.RESUME in CHANGE_ACTIONS
        assert ActionType.MIGRATE in CHANGE_ACTIONS


class TestDiffPlacements:
    def test_no_changes(self):
        p = {"a": {"n1": 1}}
        removals, additions = diff_placements(p, p)
        assert removals == [] and additions == []

    def test_addition(self):
        removals, additions = diff_placements({}, {"a": {"n1": 2}})
        assert removals == []
        assert additions == [("a", "n1", 2)]

    def test_removal(self):
        removals, additions = diff_placements({"a": {"n1": 1}}, {})
        assert removals == [("a", "n1", 1)]
        assert additions == []

    def test_move_is_removal_plus_addition(self):
        removals, additions = diff_placements({"a": {"n1": 1}}, {"a": {"n2": 1}})
        assert removals == [("a", "n1", 1)]
        assert additions == [("a", "n2", 1)]

    def test_count_delta(self):
        removals, additions = diff_placements({"a": {"n1": 3}}, {"a": {"n1": 1}})
        assert removals == [("a", "n1", 2)]
        assert additions == []

    def test_deterministic_ordering(self):
        old = {"b": {"n2": 1}, "a": {"n1": 1}}
        new = {"a": {"n2": 1}, "b": {"n1": 1}}
        removals, additions = diff_placements(old, new)
        assert removals == [("a", "n1", 1), ("b", "n2", 1)]
        assert additions == [("a", "n2", 1), ("b", "n1", 1)]
