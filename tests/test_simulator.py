"""Integration tests for the mixed-workload simulator."""

import math

import pytest

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.errors import ConfigurationError
from repro.policies import APCPolicy, EDFPolicy, FCFSPolicy, PartitionedPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.txn.application import TransactionalApp
from repro.txn.model import TransactionalWorkloadModel
from repro.virt.costs import FREE_COST_MODEL, PAPER_COST_MODEL

from tests.conftest import make_job


def build_sim(jobs, policy_name="FCFS", nodes=2, cycle=10.0, costs=FREE_COST_MODEL,
              txn_apps=(), max_time=None):
    cluster = Cluster.homogeneous(nodes, cpu_capacity=1000, memory_capacity=2000)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue)
    if policy_name == "FCFS":
        policy = FCFSPolicy(cluster, queue)
    elif policy_name == "EDF":
        policy = EDFPolicy(cluster, queue)
    elif policy_name == "APC":
        models = [batch]
        if txn_apps:
            models.append(TransactionalWorkloadModel(txn_apps))
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=cycle)),
            models,
        )
    else:
        raise AssertionError(policy_name)
    sim = MixedWorkloadSimulator(
        cluster,
        policy,
        queue,
        arrivals=jobs,
        txn_apps=txn_apps,
        batch_model=batch,
        config=SimulationConfig(cycle_length=cycle, cost_model=costs, max_time=max_time),
    )
    return sim, queue


class TestBasicExecution:
    def test_single_job_completes_on_schedule(self):
        # 1000 Mcycles at 500 MHz = 2 s of work; placed at t=0.
        job = make_job("j", work=1000, max_speed=500, memory=750, goal_factor=5)
        sim, queue = build_sim([job], cycle=10.0)
        metrics = sim.run()
        assert len(metrics.completions) == 1
        assert metrics.completions[0].completion_time == pytest.approx(2.0)
        assert queue is not None

    def test_work_conservation(self):
        """Completion time equals work/speed exactly (no lost cycles)."""
        jobs = [
            make_job(f"j{i}", work=5000, max_speed=500, memory=750,
                     submit=float(i), goal_factor=8)
            for i in range(4)
        ]
        sim, _ = build_sim(jobs, cycle=7.0)
        metrics = sim.run()
        assert len(metrics.completions) == 4
        for c in metrics.completions:
            # Each node fits two jobs (750MB in 2000MB, 500MHz in 1000MHz):
            # all four run at full speed from their first cycle.
            first_cycle = math.ceil(c.submit_time / 7.0) * 7.0
            expected = first_cycle + 5000 / 500
            assert c.completion_time == pytest.approx(expected, abs=1e-6)

    def test_boot_delay_pushes_completion(self):
        job = make_job("j", work=1000, max_speed=500, memory=1000, goal_factor=5)
        sim, _ = build_sim([job], cycle=100.0, costs=PAPER_COST_MODEL)
        metrics = sim.run()
        assert metrics.completions[0].completion_time == pytest.approx(3.6 + 2.0)

    def test_queued_job_waits_for_capacity(self):
        # One node, two slots; three jobs: the third waits a full service.
        jobs = [
            make_job(f"j{i}", work=5000, max_speed=500, memory=1000,
                     submit=0.0, goal_factor=10)
            for i in range(3)
        ]
        sim, _ = build_sim(jobs, nodes=1, cycle=10.0)
        metrics = sim.run()
        times = sorted(c.completion_time for c in metrics.completions)
        assert times[0] == pytest.approx(10.0)
        assert times[1] == pytest.approx(10.0)
        assert times[2] == pytest.approx(20.0)

    def test_max_time_stops_simulation(self):
        job = make_job("j", work=1_000_000, max_speed=500, memory=750, goal_factor=99)
        sim, _ = build_sim([job], cycle=10.0, max_time=50.0)
        metrics = sim.run()
        assert metrics.completions == []
        assert metrics.cycles[-1].time <= 50.0

    def test_unsorted_arrivals_rejected(self):
        a = make_job("a", submit=10.0)
        b = make_job("b", submit=5.0)
        sim, _ = build_sim([a, b], cycle=10.0)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.run()


class TestReconfigurationAccounting:
    def test_edf_preemption_counts_changes(self):
        # One slot; urgent job preempts a slack one.
        slack = make_job("slack", work=50_000, max_speed=500, memory=1500,
                         submit=0.0, goal_factor=10)
        urgent = make_job("urgent", work=1000, max_speed=500, memory=1500,
                          submit=5.0, goal_factor=1.5)
        sim, queue = build_sim([slack, urgent], policy_name="EDF", nodes=1,
                               cycle=10.0)
        metrics = sim.run()
        assert metrics.total_placement_changes() >= 2  # suspend + resume
        slack_record = [c for c in metrics.completions if c.job_id == "slack"][0]
        assert slack_record.suspend_count >= 1
        assert slack_record.resume_count >= 1

    def test_fcfs_never_changes(self):
        jobs = [
            make_job(f"j{i}", work=5000, max_speed=500, memory=1000,
                     submit=float(i * 3), goal_factor=10)
            for i in range(6)
        ]
        sim, _ = build_sim(jobs, policy_name="FCFS", nodes=1, cycle=10.0)
        metrics = sim.run()
        assert metrics.total_placement_changes() == 0

    def test_resume_cost_applied(self):
        """A suspended-then-resumed job pays the resume cost before
        executing again."""
        slack = make_job("slack", work=10_000, max_speed=500, memory=1500,
                         submit=0.0, goal_factor=20)
        urgent = make_job("urgent", work=5000, max_speed=500, memory=1500,
                          submit=5.0, goal_factor=1.2)
        sim, _ = build_sim([slack, urgent], policy_name="EDF", nodes=1,
                           cycle=10.0, costs=PAPER_COST_MODEL)
        metrics = sim.run()
        by_id = {c.job_id: c for c in metrics.completions}
        assert by_id["slack"].resume_count >= 1
        # slack: 20s of work split around urgent's 10s + boot/resume costs
        assert by_id["slack"].completion_time > 30.0


class TestCycleSamples:
    def test_samples_recorded_each_cycle(self):
        job = make_job("j", work=10_000, max_speed=500, memory=750, goal_factor=8)
        sim, _ = build_sim([job], cycle=5.0)
        metrics = sim.run()
        times = [s.time for s in metrics.cycles]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert len(times) >= 4  # 20 s of work at 5 s cycles

    def test_hypothetical_tracks_allocation(self):
        job = make_job("j", work=10_000, max_speed=500, memory=750, goal_factor=8)
        sim, _ = build_sim([job], cycle=5.0)
        metrics = sim.run()
        busy = [s for s in metrics.cycles if s.running_jobs > 0]
        assert busy
        for s in busy:
            assert s.batch_allocation_mhz == pytest.approx(500.0)
            assert not math.isnan(s.batch_hypothetical_utility)


class TestHeterogeneousSimulation:
    def make_txn_app(self):
        from repro.txn.workload import ConstantTrace

        return TransactionalApp(
            app_id="web",
            memory_mb=200,
            demand_mcycles=10.0,
            response_time_goal=0.1,
            trace=ConstantTrace(30.0),  # offered load 300 MHz
            single_thread_speed_mhz=1000.0,
        )

    def test_txn_metrics_recorded(self):
        app = self.make_txn_app()
        job = make_job("j", work=2000, max_speed=500, memory=750, goal_factor=8)
        sim, _ = build_sim([job], policy_name="APC", cycle=10.0, txn_apps=[app])
        metrics = sim.run()
        assert metrics.txn_utility_series("web")
        _, u = metrics.txn_utility_series("web")[-1]
        assert u > 0  # plenty of capacity: goal exceeded

    def test_partitioned_policy_keeps_jobs_off_txn_nodes(self):
        cluster = Cluster.homogeneous(3, cpu_capacity=1000, memory_capacity=2000)
        queue = JobQueue()
        app = self.make_txn_app()
        policy = PartitionedPolicy(cluster, ["node0"], app, queue)
        jobs = [
            make_job(f"j{i}", work=2000, max_speed=500, memory=750,
                     submit=0.0, goal_factor=8)
            for i in range(4)
        ]
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=jobs, txn_apps=[app],
            config=SimulationConfig(cycle_length=10.0, cost_model=FREE_COST_MODEL),
        )
        metrics = sim.run()
        assert len(metrics.completions) == 4
        # Transactional allocation only from its partition; batch from the rest.
        for s in metrics.cycles:
            assert s.txn_allocation_mhz <= 1000.0 + 1e-6
        state = sim.state
        assert state.instances("web").keys() <= {"node0"}


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(cycle_length=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_time=-1)
