"""Smoke and correctness tests for the experiment harness (tiny scale)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import SCALES, Scale, format_table, percent, scale_from_env
from repro.experiments.experiment1 import run_experiment_one
from repro.experiments.experiment2 import run_single
from repro.experiments.experiment3 import make_txn_app, partition_nodes, run_configuration
from repro.experiments.illustrative import make_jobs, run_scenario
from repro.experiments import ablations

TINY = SCALES["tiny"]


class TestScale:
    def test_paper_scale_matches_paper(self):
        paper = SCALES["paper"]
        assert paper.nodes == 25
        assert paper.job_count == 800
        assert paper.interarrival(260.0) == pytest.approx(260.0)
        cluster = paper.cluster()
        assert cluster.total_cpu_capacity == 25 * 4 * 3900
        assert cluster.nodes[0].memory_capacity == 16 * 1024

    def test_interarrival_stretch_preserves_per_node_load(self):
        small = SCALES["small"]
        # jobs per second per node is invariant.
        paper_rate = 1 / 260.0 / 25
        small_rate = 1 / small.interarrival(260.0) / small.nodes
        assert small_rate == pytest.approx(paper_rate)

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert scale_from_env().name == "tiny"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ConfigurationError):
            scale_from_env()

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            Scale("bad", nodes=0, job_count=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", 2.5),
            ("nodes", True),
            ("nodes", "4"),
            ("job_count", 10.0),
            ("job_count", False),
            ("job_count", 0),
            ("queue_window", -4),
            ("queue_window", 2.5),
            ("queue_window", True),
        ],
    )
    def test_scale_refuses_what_it_cannot_mean(self, field, value):
        """A node or job count must be an integer >= 1 and the window
        what the batch model takes, refused when the scale is built and
        naming the field: Experiment Three and the illustrative example
        build a cluster and a job stream from a scale unchecked."""
        kwargs = {"nodes": 4, "job_count": 10, "queue_window": 8}
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=field):
            Scale("bad", **kwargs)

    def test_scale_keeps_valid_windows(self):
        assert Scale("open", nodes=1, job_count=1, queue_window=None).queue_window is None
        assert Scale("closed", nodes=1, job_count=1, queue_window=0).queue_window == 0


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

    def test_percent(self):
        assert percent(0.5) == "50.0%"


class TestIllustrativeHarness:
    def test_table1_job_properties(self):
        jobs = {j.job_id: j for j in make_jobs("S1")}
        assert jobs["J1"].profile.total_work == 4000
        assert jobs["J2"].max_speed == 500
        assert jobs["J3"].goal_factor == pytest.approx(1.0)
        # S2 tightens J2's goal only.
        s2 = {j.job_id: j for j in make_jobs("S2")}
        assert s2["J2"].relative_goal < jobs["J2"].relative_goal
        assert s2["J1"].relative_goal == jobs["J1"].relative_goal

    def test_scenarios_diverge_at_cycle_two(self):
        s1 = run_scenario("S1")
        s2 = run_scenario("S2")
        assert s1.placed_at_cycle(1.0) == ["J1"]
        assert s2.placed_at_cycle(1.0) == ["J1", "J2"]
        # Everyone finishes in both scenarios.
        assert set(s1.completions) == {"J1", "J2", "J3"}
        assert set(s2.completions) == {"J1", "J2", "J3"}


class TestExperimentOneHarness:
    def test_underloaded_run_invariants(self):
        result = run_experiment_one(
            scale=TINY, job_count=24, interarrival=500.0, seed=1
        )
        assert result.placement_changes == 0
        assert result.deadline_satisfaction == 1.0
        assert result.peak_hypothetical == pytest.approx(0.6296, abs=0.02)
        # Completion-time relative performance never beats the bound.
        for _, u in result.completion_series:
            assert u <= 0.6296 + 1e-6


class TestExperimentTwoHarness:
    def test_single_cell_runs(self):
        cell = run_single("FCFS", 400.0, TINY, seed=2)
        assert cell.policy == "FCFS"
        assert cell.placement_changes == 0
        assert 0.0 <= cell.deadline_satisfaction <= 1.0
        assert cell.distances  # grouped by goal factor

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="'lifo'"):
            run_single("LIFO", 400.0, TINY)

    def test_runs_a_rival_by_its_table_name(self):
        cell = run_single("dfrs", 400.0, TINY, seed=2)
        assert cell.policy == "dfrs"
        assert len(cell.metrics.completions) == TINY.job_count
        assert 0.0 <= cell.deadline_satisfaction <= 1.0


class TestExperimentThreeHarness:
    def test_partition_semantics_at_paper_scale(self):
        paper = SCALES["paper"]
        assert partition_nodes(paper, 9) == 9
        assert partition_nodes(paper, 6) == 6

    def test_partitions_ordered_at_every_scale(self):
        for scale in SCALES.values():
            satisfied = partition_nodes(scale, 9)
            tight = partition_nodes(scale, 6)
            assert 1 <= tight < satisfied <= scale.nodes - 1 or (
                tight == 1 and satisfied <= scale.nodes - 1
            )
            assert tight < satisfied

    def test_txn_app_collocates_with_three_jobs(self):
        app = make_txn_app(SCALES["paper"])
        # 3 jobs * 4320 + app memory must fit a 16 GB node.
        assert 3 * 4320 + app.memory_mb <= 16 * 1024

    def test_satisfied_partition_delivers_plateau(self):
        for scale in (TINY, SCALES["small"]):
            app = make_txn_app(scale)
            rpf = app.rpf_at(0.0)
            size = partition_nodes(scale, 9)
            capacity = size * scale.cluster().nodes[0].cpu_capacity
            assert rpf.utility(capacity) >= rpf.max_utility - 0.011

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            run_configuration("MAGIC", TINY)


class TestAblationHelpers:
    def test_sampling_levels_shape(self):
        levels = ablations.sampling_levels(8)
        assert levels[0] == pytest.approx(-50.0)
        assert levels[-1] == pytest.approx(1.0)
        assert len(levels) == 9
        assert list(levels) == sorted(levels)

    def test_sampling_ablation_errors_decrease(self):
        rows = ablations.run_sampling_ablation(
            resolutions=(4, 16), job_count=20, seed=0
        )
        assert rows[0].mean_interpolation_error >= rows[1].mean_interpolation_error
