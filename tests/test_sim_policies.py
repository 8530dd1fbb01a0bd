"""Tests for the simulator-facing policy adapters."""

import pytest

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.errors import ConfigurationError
from repro.policies import (
    APCPolicy,
    EDFPolicy,
    FCFSPolicy,
    LRPFPolicy,
    PartitionedPolicy,
    PlacementPolicy,
)
from repro.txn.application import TransactionalApp
from repro.txn.workload import ConstantTrace

from tests.conftest import make_job


@pytest.fixture
def cluster():
    return Cluster.homogeneous(3, cpu_capacity=2000, memory_capacity=2000)


def txn_app(saturation=3000.0):
    return TransactionalApp(
        app_id="web",
        memory_mb=200,
        demand_mcycles=10.0,
        response_time_goal=0.1,
        trace=ConstantTrace(30.0),
        single_thread_speed_mhz=1000.0,
    )


class TestProtocolConformance:
    def test_all_policies_satisfy_protocol(self, cluster):
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        controller = ApplicationPlacementController(cluster, APCConfig())
        policies = [
            FCFSPolicy(cluster, queue),
            EDFPolicy(cluster, queue),
            LRPFPolicy(cluster, queue),
            APCPolicy(controller, [batch]),
            PartitionedPolicy(cluster, ["node0"], txn_app(), queue),
        ]
        for policy in policies:
            assert isinstance(policy, PlacementPolicy)
            assert policy.name


class TestBatchPolicies:
    def test_fcfs_builds_state_with_speeds(self, cluster):
        queue = JobQueue()
        queue.submit(make_job("j", memory=750, max_speed=500))
        policy = FCFSPolicy(cluster, queue)
        state = policy.decide(PlacementState(cluster), 0.0)
        assert state.is_placed("j")
        assert state.cpu_of("j") == pytest.approx(500.0)

    def test_edf_reuses_current_assignment(self, cluster):
        queue = JobQueue()
        job = make_job("j", memory=750, max_speed=500)
        job.status = JobStatus.RUNNING
        queue.submit(job)
        current = PlacementState(cluster)
        current.place("j", "node2", 750)
        policy = EDFPolicy(cluster, queue)
        state = policy.decide(current, 0.0)
        assert state.nodes_of("j") == ["node2"]


class TestAPCPolicy:
    def test_exposes_last_result(self, cluster):
        queue = JobQueue()
        queue.submit(make_job("j", memory=750, max_speed=500))
        batch = BatchWorkloadModel(queue)
        controller = ApplicationPlacementController(cluster, APCConfig())
        policy = APCPolicy(controller, [batch])
        assert policy.last_result is None
        policy.decide(PlacementState(cluster), 0.0)
        assert policy.last_result is not None
        assert "j" in policy.last_result.utilities
        assert policy.controller is controller
        assert len(policy.models) == 1


class TestPartitionedPolicy:
    def test_validation(self, cluster):
        queue = JobQueue()
        with pytest.raises(ConfigurationError):
            PartitionedPolicy(cluster, [], txn_app(), queue)
        with pytest.raises(ConfigurationError):
            PartitionedPolicy(cluster, ["nope"], txn_app(), queue)
        with pytest.raises(ConfigurationError):
            PartitionedPolicy(cluster, cluster.node_names, txn_app(), queue)

    def test_name_reflects_partition(self, cluster):
        policy = PartitionedPolicy(cluster, ["node0"], txn_app(), JobQueue())
        assert "TX 1 nodes" in policy.name
        assert "LR 2 nodes" in policy.name
        assert "FCFS" in policy.name

    def test_txn_confined_and_capped(self, cluster):
        queue = JobQueue()
        policy = PartitionedPolicy(cluster, ["node0", "node1"], txn_app(), queue)
        state = policy.decide(PlacementState(cluster), 0.0)
        assert set(state.nodes_of("web")) <= {"node0", "node1"}
        # Allocation bounded by the app's saturation point.
        rpf = txn_app().rpf_at(0.0)
        assert state.cpu_of("web") <= rpf.saturation_cpu + 1e-6

    def test_jobs_only_on_batch_partition(self, cluster):
        queue = JobQueue()
        for i in range(3):
            queue.submit(make_job(f"j{i}", memory=750, max_speed=500))
        policy = PartitionedPolicy(cluster, ["node0"], txn_app(), queue)
        state = policy.decide(PlacementState(cluster), 0.0)
        for i in range(3):
            if state.is_placed(f"j{i}"):
                assert "node0" not in state.nodes_of(f"j{i}")

    def test_custom_batch_policy_factory(self, cluster):
        policy = PartitionedPolicy(
            cluster, ["node0"], txn_app(), JobQueue(),
            batch_policy_factory=EDFPolicy,
        )
        assert "EDF" in policy.name

    def test_preserves_running_jobs_across_cycles(self, cluster):
        queue = JobQueue()
        job = make_job("j", memory=750, max_speed=500)
        job.status = JobStatus.RUNNING
        queue.submit(job)
        policy = PartitionedPolicy(cluster, ["node0"], txn_app(), queue)
        current = PlacementState(cluster)
        current.place("j", "node1", 750)
        state = policy.decide(current, 0.0)
        assert state.nodes_of("j") == ["node1"]
