"""Tests for the FCFS/EDF assignment primitives and LRPF ordering."""

import pytest

from repro.batch.job import JobStatus
from repro.batch.policies import assign_speeds, edf_assign, fcfs_assign, lrpf_order
from repro.cluster import Cluster

from tests.conftest import make_job


@pytest.fixture
def two_slot_cluster():
    """Each node fits two 750 MB jobs (memory-bound, like the paper)."""
    return Cluster.homogeneous(2, cpu_capacity=2000, memory_capacity=1500)


class TestFCFS:
    def test_places_in_submission_order(self, two_slot_cluster):
        jobs = [make_job(f"j{i}", memory=750, max_speed=500, submit=i) for i in range(3)]
        assignment = fcfs_assign(jobs, two_slot_cluster, current={})
        assert len(assignment) == 3
        assert assignment["j0"] == "node0"

    def test_first_fit_skips_full_nodes(self, two_slot_cluster):
        jobs = [make_job(f"j{i}", memory=750, max_speed=500, submit=i) for i in range(4)]
        assignment = fcfs_assign(jobs, two_slot_cluster, current={})
        assert sorted(assignment.values()).count("node0") == 2
        assert sorted(assignment.values()).count("node1") == 2

    def test_head_of_line_blocking(self, two_slot_cluster):
        big = make_job("big", memory=1500, max_speed=500, submit=0)
        small = make_job("small", memory=100, max_speed=100, submit=1)
        # Fill both nodes with one 750MB job each, leaving 750MB per node:
        fillers = [make_job(f"f{i}", memory=750, max_speed=100, submit=0) for i in range(2)]
        current = {"f0": "node0", "f1": "node1"}
        for f in fillers:
            f.status = JobStatus.RUNNING
        assignment = fcfs_assign(
            fillers + [big, small], two_slot_cluster, current=current
        )
        # big does not fit anywhere; small must NOT jump the queue.
        assert "big" not in assignment
        assert "small" not in assignment

    def test_never_moves_running_jobs(self, two_slot_cluster):
        running = make_job("r", memory=750, max_speed=500)
        running.status = JobStatus.RUNNING
        assignment = fcfs_assign([running], two_slot_cluster, current={"r": "node1"})
        assert assignment["r"] == "node1"

    def test_cpu_budget_respected(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=1000, memory_capacity=100_000)
        jobs = [make_job(f"j{i}", memory=10, max_speed=600, submit=i) for i in range(3)]
        assignment = fcfs_assign(jobs, cluster, current={})
        # Only one 600 MHz job fits the 1000 MHz node at full speed.
        assert len(assignment) == 1


class TestEDF:
    def test_orders_by_absolute_deadline(self, two_slot_cluster):
        late = make_job("late", memory=750, max_speed=500, submit=0, goal_factor=8)
        soon = make_job("soon", memory=750, max_speed=500, submit=1, goal_factor=1.1)
        # One-slot cluster: only the earliest deadline runs.
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=800)
        assignment = edf_assign([late, soon], cluster, current={})
        assert list(assignment) == ["soon"]

    def test_preempts_running_later_deadline(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=800)
        slack = make_job("slack", memory=750, max_speed=500, submit=0, goal_factor=8)
        slack.status = JobStatus.RUNNING
        urgent = make_job("urgent", memory=750, max_speed=500, submit=1, goal_factor=1.1)
        assignment = edf_assign([slack, urgent], cluster, current={"slack": "node0"})
        assert "urgent" in assignment
        assert "slack" not in assignment

    def test_prefers_current_node_when_it_fits(self, two_slot_cluster):
        job = make_job("j", memory=750, max_speed=500)
        job.status = JobStatus.RUNNING
        assignment = edf_assign([job], two_slot_cluster, current={"j": "node1"})
        assert assignment["j"] == "node1"

    def test_skips_completed_jobs(self, two_slot_cluster):
        done = make_job("done", memory=750, max_speed=500)
        done.status = JobStatus.COMPLETED
        assert edf_assign([done], two_slot_cluster, current={}) == {}


class TestLRPFOrder:
    def test_orders_by_achievable_relative_performance(self):
        fresh = make_job("fresh", work=1000, max_speed=500, submit=0, goal_factor=5)
        tight = make_job("tight", work=1000, max_speed=500, submit=0, goal_factor=1.1)
        ordered = lrpf_order([fresh, tight], now=0.0)
        assert [j.job_id for j in ordered] == ["tight", "fresh"]

    def test_waiting_raises_priority(self):
        # Two identical jobs; the one submitted earlier has waited longer
        # (its goal is nearer), so it sorts first.
        old = make_job("old", submit=0.0, goal_factor=5)
        new = make_job("new", submit=100.0, goal_factor=5)
        ordered = lrpf_order([new, old], now=200.0)
        assert [j.job_id for j in ordered] == ["old", "new"]

    def test_excludes_complete(self):
        done = make_job("done")
        done.status = JobStatus.COMPLETED
        assert lrpf_order([done], now=0.0) == []


class TestAssignSpeeds:
    def test_max_speed_when_fits(self, two_slot_cluster):
        job = make_job("j", memory=750, max_speed=500)
        speeds = assign_speeds({"j": "node0"}, {"j": job}, two_slot_cluster)
        assert speeds["j"] == 500

    def test_scaled_down_proportionally_when_oversubscribed(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=900, memory_capacity=10_000)
        a = make_job("a", memory=10, max_speed=600)
        b = make_job("b", memory=10, max_speed=600)
        speeds = assign_speeds(
            {"a": "node0", "b": "node0"}, {"a": a, "b": b}, cluster
        )
        assert speeds["a"] == pytest.approx(450)
        assert speeds["b"] == pytest.approx(450)
