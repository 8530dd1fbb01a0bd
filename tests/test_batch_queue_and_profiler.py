"""Tests for the job queue and the job workload profiler."""

import pytest

from repro.batch.job import JobStatus
from repro.batch.profiler import JobWorkloadProfiler
from repro.batch.queue import JobQueue
from repro.errors import ModelError, SchedulingError

from tests.conftest import make_job


class TestJobQueue:
    def test_submission_order_preserved(self):
        q = JobQueue()
        for i in (3, 1, 2):
            q.submit(make_job(f"j{i}"))
        assert [j.job_id for j in q] == ["j3", "j1", "j2"]

    def test_duplicate_rejected(self):
        q = JobQueue()
        q.submit(make_job("a"))
        with pytest.raises(SchedulingError):
            q.submit(make_job("a"))

    def test_lookup(self):
        q = JobQueue()
        q.submit(make_job("a"))
        assert q.job("a").job_id == "a"
        assert "a" in q and "b" not in q
        with pytest.raises(SchedulingError):
            q.job("b")

    def test_status_views(self):
        q = JobQueue()
        a, b, c, d = (make_job(x) for x in "abcd")
        for j in (a, b, c, d):
            q.submit(j)
        b.status = JobStatus.RUNNING
        c.status = JobStatus.SUSPENDED
        d.status = JobStatus.COMPLETED
        assert [j.job_id for j in q.not_started()] == ["a"]
        assert [j.job_id for j in q.running()] == ["b"]
        assert [j.job_id for j in q.suspended()] == ["c"]
        assert [j.job_id for j in q.completed()] == ["d"]
        assert [j.job_id for j in q.incomplete()] == ["a", "b", "c"]
        assert [j.job_id for j in q.pending()] == ["a", "c"]

    def test_deadline_satisfaction_rate(self):
        q = JobQueue()
        a = make_job("a", work=1000, max_speed=500, goal_factor=5)  # goal 10
        b = make_job("b", work=1000, max_speed=500, goal_factor=5)
        q.submit(a)
        q.submit(b)
        a.status = b.status = JobStatus.COMPLETED
        a.completion_time = 5.0
        b.completion_time = 15.0
        assert q.deadline_satisfaction_rate() == pytest.approx(0.5)

    def test_satisfaction_rate_without_completions_is_nan(self):
        q = JobQueue()
        q.submit(make_job("a"))
        import math

        assert math.isnan(q.deadline_satisfaction_rate())

    def test_total_placement_changes(self):
        q = JobQueue()
        a = make_job("a")
        a.suspend_count = 2
        a.resume_count = 1
        a.migration_count = 3
        q.submit(a)
        assert q.total_placement_changes() == 6

    def test_prune_completed(self):
        q = JobQueue()
        a, b = make_job("a"), make_job("b")
        q.submit(a)
        q.submit(b)
        a.status = JobStatus.COMPLETED
        dropped = q.prune_completed()
        assert [j.job_id for j in dropped] == ["a"]
        assert "a" not in q and "b" in q


class TestJobWorkloadProfiler:
    def test_estimate_from_history(self):
        p = JobWorkloadProfiler(work_percentile=100.0, memory_margin=0.0)
        p.record_execution("nightly", 1000, 200, 500)
        p.record_execution("nightly", 1200, 200, 450)
        profile = p.estimate("nightly")
        assert profile.total_work == pytest.approx(1200)     # 100th pct
        assert profile.stages[0].max_speed_mhz == pytest.approx(200)
        assert profile.peak_memory_mb == pytest.approx(500)

    def test_memory_margin_applied(self):
        p = JobWorkloadProfiler(memory_margin=0.2)
        p.record_execution("x", 100, 10, 1000)
        assert p.estimate("x").peak_memory_mb == pytest.approx(1200)

    def test_speed_uses_median(self):
        p = JobWorkloadProfiler()
        for speed in (100, 200, 900):
            p.record_execution("x", 100, speed, 10)
        assert p.estimate("x").stages[0].max_speed_mhz == pytest.approx(200)

    def test_min_history_enforced(self):
        p = JobWorkloadProfiler(min_history=3)
        p.record_execution("x", 100, 10, 10)
        assert not p.can_estimate("x")
        with pytest.raises(ModelError):
            p.estimate("x")

    def test_estimate_or_default(self):
        p = JobWorkloadProfiler(min_history=2)
        p.record_execution("x", 100, 10, 10)
        default = make_job("d").profile
        assert p.estimate_or_default("x", default) is default
        p.record_execution("x", 100, 10, 10)
        assert p.estimate_or_default("x", default) is not default

    def test_invalid_record_rejected(self):
        p = JobWorkloadProfiler()
        with pytest.raises(ModelError):
            p.record_execution("x", -1, 10, 10)
        with pytest.raises(ModelError):
            p.record_execution("x", 10, 0, 10)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ModelError):
            JobWorkloadProfiler(work_percentile=0)
        with pytest.raises(ModelError):
            JobWorkloadProfiler(memory_margin=-0.1)
        with pytest.raises(ModelError):
            JobWorkloadProfiler(min_history=0)

    def test_known_classes(self):
        p = JobWorkloadProfiler()
        p.record_execution("b", 1, 1, 1)
        p.record_execution("a", 1, 1, 1)
        assert p.known_classes() == ["a", "b"]
        assert p.history_size("a") == 1
