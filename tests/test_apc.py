"""Tests for the Application Placement Controller.

These encode the paper's qualitative claims directly:

* the illustrative example's Scenario 1 / Scenario 2 decisions (§4.3),
* zero placement changes for identical jobs (§5.1),
* urgency-driven preemption for tight-goal jobs,
* fairness between transactional and batch workloads (§5.3).
"""

import pytest

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.constraints import ConstraintSet, PinToNodes
from repro.core.placement import PlacementState
from repro.errors import ConfigurationError
from repro.txn.application import TransactionalApp
from repro.txn.model import TransactionalWorkloadModel
from repro.txn.workload import ConstantTrace

from tests.conftest import make_job


def controller_for(cluster, **config_kwargs):
    return ApplicationPlacementController(cluster, APCConfig(**config_kwargs))


class TestAPCConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            APCConfig(cycle_length=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cycle_length", float("nan")),
            ("cycle_length", float("inf")),
            ("cycle_length", -600.0),
            ("improvement_epsilon", float("nan")),
            ("improvement_epsilon", float("inf")),
            ("improvement_epsilon", -0.02),
            ("preemption_penalty", float("nan")),
            ("preemption_penalty", float("inf")),
            ("preemption_penalty", -0.05),
        ],
    )
    def test_rejects_non_finite_and_negative_tolerances(self, field, value):
        """A NaN tolerance would make every candidate comparison false;
        the error names the field, from the constructor and from_dict."""
        with pytest.raises(ConfigurationError, match=field):
            APCConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            APCConfig.from_dict({**APCConfig().to_dict(), field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("enable_search", "no"),
            ("enable_search", 1),
            ("enable_search", None),
        ],
    )
    def test_rejects_non_integer_counts_and_non_bool_switch(self, field, value):
        """A truthy string once silently ran the search."""
        with pytest.raises(ConfigurationError, match=field):
            APCConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            APCConfig.from_dict({**APCConfig().to_dict(), field: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("search_sweeps", 2),
            ("search_sweeps", 0),
            ("search_sweeps", True),
            ("search_sweeps", 1.0),
            ("max_removals_per_node", 1),
            ("max_removals_per_node", 0),
        ],
    )
    def test_retired_search_caps_refuse_any_other_value(self, key, value):
        """Such a document asked for a search the controller no longer
        runs; loading it anyway would decide differently without a
        word."""
        with pytest.raises(ConfigurationError, match=key):
            APCConfig.from_dict({**APCConfig().to_dict(), key: value})

    def test_zero_tolerances_are_valid(self):
        config = APCConfig(improvement_epsilon=0.0, preemption_penalty=0.0)
        assert APCConfig.from_dict(config.to_dict()) == config

    def test_defaults(self):
        config = APCConfig()
        assert config.cycle_length == 600.0
        assert config.enable_search


class TestGreedyAdmission:
    def test_places_queued_job_into_free_capacity(self, single_node_cluster):
        queue = JobQueue()
        queue.submit(make_job("J1", work=4000, max_speed=1000, goal_factor=5))
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        result = apc.place([batch], PlacementState(single_node_cluster), now=0.0)
        assert result.state.is_placed("J1")
        assert result.allocations["J1"] == pytest.approx(1000.0)
        assert result.changed

    def test_respects_memory(self, single_node_cluster):
        queue = JobQueue()
        for i in range(3):  # only two 750MB jobs fit in 2000MB
            queue.submit(make_job(f"J{i}", memory=750, submit=0.0))
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        result = apc.place([batch], PlacementState(single_node_cluster), now=0.0)
        placed = [j for j in ("J0", "J1", "J2") if result.state.is_placed(j)]
        assert len(placed) == 2

    def test_unplaced_jobs_still_get_utilities(self, single_node_cluster):
        queue = JobQueue()
        for i in range(3):
            queue.submit(make_job(f"J{i}", memory=750))
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        result = apc.place([batch], PlacementState(single_node_cluster), now=0.0)
        assert set(result.utilities) == {"J0", "J1", "J2"}

    def test_completed_jobs_pruned_from_placement(self, single_node_cluster):
        queue = JobQueue()
        job = make_job("J1", memory=750)
        queue.submit(job)
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        state = apc.place([batch], PlacementState(single_node_cluster), 0.0).state
        # Complete the job, then re-place: the instance must vanish.
        from repro.batch.job import JobStatus

        job.advance(job.profile.total_work)
        job.status = JobStatus.COMPLETED
        result = apc.place([batch], state, 1.0)
        assert not result.state.is_placed("J1")


class TestIllustrativeExample:
    """§4.3 cycle 2: the S1/S2 divergence."""

    def run_cycle2(self, j2_goal_factor):
        cluster = Cluster.homogeneous(1, cpu_capacity=1000, memory_capacity=2000)
        queue = JobQueue()
        j1 = make_job("J1", work=4000, max_speed=1000, memory=750, submit=0.0,
                      goal_factor=5)
        queue.submit(j1)
        batch = BatchWorkloadModel(queue)
        apc = controller_for(cluster, cycle_length=1.0)
        state = apc.place([batch], PlacementState(cluster), now=0.0).state
        # J1 runs cycle 1 at full speed.
        from repro.batch.job import JobStatus

        j1.status = JobStatus.RUNNING
        j1.node = "node0"
        j1.advance(1000.0)
        # J2 arrives at t=1.
        j2 = make_job("J2", work=2000, max_speed=500, memory=750, submit=1.0,
                      goal_factor=j2_goal_factor)
        queue.submit(j2)
        return apc.place([batch], state, now=1.0)

    def test_scenario1_keeps_j1_alone(self):
        """S1 (J2 goal factor 4): equal utilities either way; the
        no-change alternative wins — J2 is not placed."""
        result = self.run_cycle2(j2_goal_factor=4)
        assert result.state.is_placed("J1")
        assert not result.state.is_placed("J2")
        assert result.allocations["J1"] == pytest.approx(1000.0, rel=1e-3)

    def test_scenario2_shares_the_node(self):
        """S2 (J2 goal factor 3): equalizing requires starting J2; both
        run at ~500 MHz (paper: utilities ~0.65/0.65)."""
        result = self.run_cycle2(j2_goal_factor=3)
        assert result.state.is_placed("J1")
        assert result.state.is_placed("J2")
        assert result.allocations["J1"] == pytest.approx(500.0, rel=0.05)
        assert result.allocations["J2"] == pytest.approx(500.0, rel=0.05)
        u1, u2 = result.utilities["J1"], result.utilities["J2"]
        assert u1 == pytest.approx(0.65, abs=0.05)
        assert u2 == pytest.approx(0.65, abs=0.05)


class TestNoChurnForIdenticalJobs:
    def test_full_system_makes_no_swaps(self, single_node_cluster):
        """§5.1: identical jobs, full node, queued backlog — the
        controller must not suspend/migrate anything."""
        queue = JobQueue()
        placed = [make_job(f"P{i}", memory=750, work=4000, max_speed=500,
                           submit=0.0, goal_factor=5) for i in range(2)]
        for job in placed:
            queue.submit(job)
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        state = apc.place([batch], PlacementState(single_node_cluster), 0.0).state
        from repro.batch.job import JobStatus

        for job in placed:
            job.status = JobStatus.RUNNING
            job.advance(500)
        # Identical latecomer queues up.
        queue.submit(make_job("Q", memory=750, work=4000, max_speed=500,
                              submit=1.0, goal_factor=5))
        result = apc.place([batch], state, now=1.0)
        assert result.state.is_placed("P0")
        assert result.state.is_placed("P1")
        assert not result.state.is_placed("Q")


class TestUrgencyPreemption:
    def test_tight_job_preempts_slack_job(self, single_node_cluster):
        """A tight-goal job must displace a slack-rich one when the node
        is memory-full (the preemption the gate should allow)."""
        queue = JobQueue()
        slack = [make_job(f"S{i}", memory=750, work=40_000, max_speed=500,
                          submit=0.0, goal_factor=8) for i in range(2)]
        for job in slack:
            queue.submit(job)
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        state = apc.place([batch], PlacementState(single_node_cluster), 0.0).state
        from repro.batch.job import JobStatus

        for job in slack:
            job.status = JobStatus.RUNNING
            job.advance(500)
        urgent = make_job("U", memory=750, work=1000, max_speed=500,
                          submit=1.0, goal_factor=1.1)
        queue.submit(urgent)
        result = apc.place([batch], state, now=1.0)
        assert result.state.is_placed("U")
        suspended = [j.job_id for j in slack if not result.state.is_placed(j.job_id)]
        assert len(suspended) == 1


class TestMixedWorkloadFairness:
    def test_txn_and_batch_equalize(self):
        """§5.3's core claim: under contention the controller equalizes
        transactional and batch relative performance."""
        cluster = Cluster.homogeneous(2, cpu_capacity=4000, memory_capacity=4000)
        txn_app = TransactionalApp(
            app_id="web",
            memory_mb=500,
            demand_mcycles=40.0,
            response_time_goal=0.1,
            trace=ConstantTrace(100.0),  # offered load 4000 MHz
            single_thread_speed_mhz=4000.0,
        )
        txn = TransactionalWorkloadModel([txn_app])
        queue = JobQueue()
        for i in range(2):
            queue.submit(make_job(f"J{i}", memory=750, work=400_000,
                                  max_speed=4000, submit=0.0, goal_factor=1.5))
        batch = BatchWorkloadModel(queue)
        apc = controller_for(cluster, cycle_length=60.0)
        result = apc.place([txn, batch], PlacementState(cluster), now=0.0)
        assert result.state.is_placed("web")
        u_web = result.utilities["web"]
        u_jobs = [result.utilities["J0"], result.utilities["J1"]]
        # Everyone within a band: no starving workload.
        assert max(u_jobs) - u_web < 0.35
        assert u_web - min(u_jobs) < 0.35

    def test_txn_gets_saturation_when_uncontended(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=8000, memory_capacity=4000)
        txn_app = TransactionalApp(
            app_id="web",
            memory_mb=500,
            demand_mcycles=40.0,
            response_time_goal=0.1,
            trace=ConstantTrace(50.0),
            single_thread_speed_mhz=4000.0,
        )
        txn = TransactionalWorkloadModel([txn_app])
        apc = controller_for(cluster, cycle_length=60.0)
        result = apc.place([txn], PlacementState(cluster), now=0.0)
        rpf = txn_app.rpf_at(0.0)
        assert result.utilities["web"] == pytest.approx(rpf.max_utility, abs=1e-6)


class TestConstraintsRespected:
    def test_pinning(self, small_cluster):
        queue = JobQueue()
        queue.submit(make_job("J1", memory=750))
        batch = BatchWorkloadModel(queue)
        apc = ApplicationPlacementController(
            small_cluster,
            APCConfig(cycle_length=1.0),
            constraints=ConstraintSet([PinToNodes("J1", ["node2"])]),
        )
        result = apc.place([batch], PlacementState(small_cluster), 0.0)
        assert result.state.nodes_of("J1") == ["node2"]


class TestResultMetadata:
    def test_evaluations_counted(self, single_node_cluster):
        queue = JobQueue()
        queue.submit(make_job("J1", memory=750))
        batch = BatchWorkloadModel(queue)
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        result = apc.place([batch], PlacementState(single_node_cluster), 0.0)
        assert result.evaluations >= 1
        assert result.score is not None
        assert len(result.utility_vector) == 1

    def test_no_jobs_no_changes(self, single_node_cluster):
        apc = controller_for(single_node_cluster, cycle_length=1.0)
        result = apc.place([], PlacementState(single_node_cluster), 0.0)
        assert not result.changed
        assert result.utilities == {}
