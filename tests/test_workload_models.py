"""Tests for the WorkloadModel adapters (batch and transactional)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.batch.rpf import job_relative_performance
from repro.cluster import Cluster
from repro.core.apc import ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.core.workload import WorkloadModel
from repro.errors import ConfigurationError
from repro.experiments.common import Scale
from repro.experiments.experiment3 import make_txn_app
from repro.txn.application import TransactionalApp
from repro.txn.model import TransactionalWorkloadModel
from repro.txn.workload import ConstantTrace
from repro.units import EPSILON

from tests.conftest import make_job
from tests.reference_apc import ReferenceBatchModel


class TestBatchWorkloadModel:
    def test_protocol(self):
        assert isinstance(BatchWorkloadModel(JobQueue()), WorkloadModel)

    def test_app_specs_reflect_current_stage(self):
        queue = JobQueue()
        job = make_job("j", work=1000, max_speed=500, memory=750)
        queue.submit(job)
        model = BatchWorkloadModel(queue)
        spec = model.app_specs(0.0)["j"]
        assert spec.demand.memory_mb == 750
        assert spec.demand.max_cpu_per_instance_mhz == 500
        assert not spec.demand.divisible
        assert spec.demand.max_instances == 1

    def test_completed_jobs_excluded(self):
        queue = JobQueue()
        job = make_job("j", work=1000)
        queue.submit(job)
        job.advance(1000)
        job.status = JobStatus.COMPLETED
        model = BatchWorkloadModel(queue)
        assert model.app_specs(0.0) == {}
        assert model.evaluate({}, 0.0, 1.0) == {}

    def test_queue_window_limits_candidates(self):
        queue = JobQueue()
        for i in range(5):
            queue.submit(make_job(f"j{i}"))
        queue.job("j0").status = JobStatus.RUNNING
        model = BatchWorkloadModel(queue, queue_window=2)
        candidates = model.placement_candidates(0.0)
        # Running job always a candidate; only 2 of the 4 waiting ones.
        assert "j0" in candidates
        assert len(candidates) == 3
        assert candidates == ["j0", "j1", "j2"]

    def test_evaluate_job_completing_within_cycle(self):
        queue = JobQueue()
        job = make_job("j", work=1000, max_speed=500, goal_factor=5)  # goal 10
        queue.submit(job)
        model = BatchWorkloadModel(queue)
        # At 500 MHz the job finishes in 2 s, well inside a 10 s cycle:
        # predicted utility = (10-2)/10 = 0.8.
        utilities = model.evaluate({"j": 500.0}, 0.0, 10.0)
        assert utilities["j"] == pytest.approx(0.8)

    def test_evaluate_advances_work_and_assumes_persistent_aggregate(self):
        queue = JobQueue()
        job = make_job("j", work=10_000, max_speed=500, goal_factor=5)
        queue.submit(job)
        model = BatchWorkloadModel(queue)
        # Runs at 500 for one 10 s cycle (5000 done), then continues at
        # aggregate 500: completes at t = 20, goal is 100:
        # u = (100 - 20)/100 = 0.8.
        utilities = model.evaluate({"j": 500.0}, 0.0, 10.0)
        assert utilities["j"] == pytest.approx(0.8, abs=1e-3)

    def test_evaluate_unplaced_job_shares_future_aggregate(self):
        queue = JobQueue()
        running = make_job("run", work=10_000, max_speed=500, goal_factor=5)
        waiting = make_job("wait", work=10_000, max_speed=500, goal_factor=5)
        queue.submit(running)
        queue.submit(waiting)
        model = BatchWorkloadModel(queue)
        utilities = model.evaluate({"run": 500.0}, 0.0, 10.0)
        # The waiting job shares the assumed future aggregate of 500 MHz,
        # so both predictions are finite and the runner's is at least as
        # good.
        assert utilities["wait"] < utilities["run"] + 1e-9
        assert utilities["wait"] > -10

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_finishing_jobs_match_equation_two_exactly(self, data):
        """Jobs that finish inside the horizon beside jobs that do not:
        each finishing job's prediction is equation (2) at its
        completion time, floored, float for float, and the whole
        prediction is the per-job reference's, in order."""
        queue = JobQueue()
        horizon = data.draw(st.sampled_from([1.0, 60.0, 600.0]))
        allocations = {}
        for i in range(data.draw(st.integers(2, 7))):
            job = make_job(
                f"j{i}",
                work=data.draw(st.floats(1.0, 1e6)),
                max_speed=data.draw(st.floats(10.0, 4000.0)),
                submit=data.draw(st.floats(0.0, 1000.0)),
                goal_factor=data.draw(st.floats(1.0, 8.0)),
            )
            queue.submit(job)
            share = data.draw(st.sampled_from([None, 0.5, 1.0, 3.0]))
            if share is not None:
                allocations[job.job_id] = job.remaining_work / horizon * share
        now = data.draw(st.floats(0.0, 5000.0))
        utilities = BatchWorkloadModel(queue).evaluate(allocations, now, horizon)
        for job in queue.incomplete():
            speed = min(allocations.get(job.job_id, 0.0), job.max_speed)
            remaining = job.remaining_work
            if speed > EPSILON and speed * horizon >= remaining - EPSILON:
                expected = max(
                    NEGATIVE_INFINITY_UTILITY,
                    job_relative_performance(job, now + remaining / speed),
                )
                assert utilities[job.job_id] == expected
        reference = ReferenceBatchModel(queue).evaluate(allocations, now, horizon)
        assert list(utilities.items()) == list(reference.items())

    def test_invalid_prediction_method(self):
        with pytest.raises(ValueError):
            BatchWorkloadModel(JobQueue(), prediction_method="magic")

    def test_one_place_call_scans_the_queue_once(self, monkeypatch):
        """begin_cycle takes the cycle's one scan of the queue; specs,
        spec arrays, candidates and every candidate evaluation of the
        cycle read that view."""
        cluster = Cluster.homogeneous(
            2, cpu_capacity=1000, memory_capacity=2000
        )
        queue = JobQueue()
        for i in range(6):
            queue.submit(make_job(f"j{i}", work=40_000, max_speed=500,
                                  memory=750))
        model = BatchWorkloadModel(queue, queue_window=2)
        scans = []
        original = JobQueue.incomplete

        def counting(self):
            scans.append(1)
            return original(self)

        monkeypatch.setattr(JobQueue, "incomplete", counting)
        controller = ApplicationPlacementController(cluster)
        result = controller.place([model], PlacementState(cluster), 0.0)
        assert result.evaluations > 1
        assert len(scans) == 1

    def test_cycle_view_ends_with_the_cycle(self):
        """Outside begin_cycle/end_cycle every call sees the live queue."""
        queue = JobQueue()
        queue.submit(make_job("a", work=1000))
        model = BatchWorkloadModel(queue)
        model.begin_cycle(0.0)
        queue.submit(make_job("b", work=1000))
        assert list(model.app_specs(0.0)) == ["a"]
        model.end_cycle()
        assert list(model.app_specs(0.0)) == ["a", "b"]
        assert model.placement_candidates(0.0) == ["a", "b"]
        assert len(model.hypothetical(0.0)) == 2

    def test_failed_begin_cycle_ends_the_models_already_in_cycle(self):
        """When a later model's begin_cycle raises, place() still ends
        the cycle of every model whose begin_cycle returned, so the
        batch model sees the live queue again."""

        class Failing:
            def begin_cycle(self, now):
                raise RuntimeError("begin_cycle failed")

            def end_cycle(self):
                raise AssertionError("end_cycle without begin_cycle")

        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=2000)
        queue = JobQueue()
        queue.submit(make_job("a", work=1000))
        queue.submit(make_job("b", work=1000))
        model = BatchWorkloadModel(queue)
        controller = ApplicationPlacementController(cluster)
        with pytest.raises(RuntimeError, match="begin_cycle failed"):
            controller.place([model, Failing()], PlacementState(cluster), 0.0)
        assert not model._in_cycle
        queue.submit(make_job("c", work=1000))
        assert list(model.app_specs(0.0)) == ["a", "b", "c"]

    def test_average_hypothetical_utility(self):
        queue = JobQueue()
        queue.submit(make_job("j", work=1000, max_speed=500, goal_factor=5))
        model = BatchWorkloadModel(queue)
        # Plenty of aggregate: equals the job's max achievable (0.8).
        assert model.average_hypothetical_utility(0.0, 1e6) == pytest.approx(0.8)


class TestTransactionalWorkloadModel:
    def make_app(self, app_id="web"):
        return TransactionalApp(
            app_id=app_id,
            memory_mb=200,
            demand_mcycles=10.0,
            response_time_goal=0.1,
            trace=ConstantTrace(30.0),
            single_thread_speed_mhz=1000.0,
        )

    def test_protocol(self):
        assert isinstance(TransactionalWorkloadModel(), WorkloadModel)

    def test_specs_are_divisible_unbounded(self):
        model = TransactionalWorkloadModel([self.make_app()])
        spec = model.app_specs(0.0)["web"]
        assert spec.demand.divisible
        assert spec.demand.max_instances is None
        assert spec.demand.memory_mb == 200

    def test_duplicate_app_rejected(self):
        model = TransactionalWorkloadModel([self.make_app()])
        with pytest.raises(ConfigurationError):
            model.add_app(self.make_app())

    def test_remove_app(self):
        model = TransactionalWorkloadModel([self.make_app()])
        model.remove_app("web")
        assert "web" not in model
        with pytest.raises(ConfigurationError):
            model.remove_app("web")

    def test_evaluate_uses_rpf(self):
        app = self.make_app()
        model = TransactionalWorkloadModel([app])
        utilities = model.evaluate({"web": 800.0}, 0.0, 60.0)
        assert utilities["web"] == pytest.approx(app.rpf_at(0.0).utility(800.0))

    def test_unallocated_app_gets_floor(self):
        model = TransactionalWorkloadModel([self.make_app()])
        utilities = model.evaluate({}, 0.0, 60.0)
        assert utilities["web"] < -10

    def test_candidates_are_all_apps(self):
        model = TransactionalWorkloadModel([self.make_app("a"), self.make_app("b")])
        assert set(model.placement_candidates(0.0)) == {"a", "b"}
        assert len(model) == 2

    def test_erlang_inverse_needs_its_saturation_at_its_max(self):
        """The exact Erlang-C RPF of the §5.3 app on 4 nodes at its own
        maximum utility, where the bisected inverse lies far above the
        saturation (57,637 against 38,290 MHz), so the cap decides."""
        app = make_txn_app(Scale("share", nodes=4, job_count=150, queue_window=8))
        rpf = app.rpf_at(0.0)
        assert rpf.saturation_cpu == pytest.approx(38_289.6, abs=0.1)
        assert rpf.required_cpu(rpf.max_utility) == rpf.saturation_cpu
        assert rpf.required_cpu(rpf.max_utility + EPSILON) == rpf.saturation_cpu

    def test_erlang_snapshot_demands_its_saturation_just_above_max(self):
        """The piecewise-linear snapshot the distributor sees for the
        §5.3 app on 4 nodes: within EPSILON above its max utility it
        demands its saturation allocation, not more."""
        app = make_txn_app(Scale("share", nodes=4, job_count=150, queue_window=8))
        rpf = TransactionalWorkloadModel._allocation_rpf(app, 0.0)
        above = rpf.max_utility + 0.5 * EPSILON
        assert rpf.required_cpu(above) == rpf.saturation_cpu
