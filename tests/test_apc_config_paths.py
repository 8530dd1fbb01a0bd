"""Tests for APC configuration variants (the search toggle) and the
preemption penalty, a module constant."""

import repro.core.apc as apc_module
from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import (
    IMPROVEMENT_EPSILON,
    PREEMPTION_PENALTY,
    APCConfig,
    ApplicationPlacementController,
)
from repro.core.loadbalance import AllocatableApp
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import PiecewiseLinearRPF

from tests.conftest import make_job


def contended_system(cluster):
    """Two slack jobs filling the node + one urgent queued job — the
    canonical configuration where only the full search can help."""
    queue = JobQueue()
    slack = [
        make_job(f"S{i}", memory=750, work=40_000, max_speed=500,
                 submit=0.0, goal_factor=8)
        for i in range(2)
    ]
    for job in slack:
        queue.submit(job)
    batch = BatchWorkloadModel(queue)
    state = PlacementState(cluster)
    for job in slack:
        state.place(job.job_id, "node0", 750)
        job.status = JobStatus.RUNNING
        job.node = "node0"
        job.advance(500)
    urgent = make_job("U", memory=750, work=1000, max_speed=500,
                      submit=1.0, goal_factor=1.1)
    queue.submit(urgent)
    return queue, batch, state


class TestEnableSearch:
    def test_search_disabled_never_preempts(self, single_node_cluster):
        queue, batch, state = contended_system(single_node_cluster)
        apc = ApplicationPlacementController(
            single_node_cluster,
            APCConfig(cycle_length=1.0, enable_search=False),
        )
        result = apc.place([batch], state, now=1.0)
        assert not result.state.is_placed("U")
        assert result.state.is_placed("S0") and result.state.is_placed("S1")

    def test_search_enabled_preempts(self, single_node_cluster):
        queue, batch, state = contended_system(single_node_cluster)
        apc = ApplicationPlacementController(
            single_node_cluster, APCConfig(cycle_length=1.0)
        )
        result = apc.place([batch], state, now=1.0)
        assert result.state.is_placed("U")


class TestPreemptionPenalty:
    """The removal gate ``REMOVAL_GATE`` decides both whether the search
    starts and what a removing trial must gain; patching the module
    constant moves both, as a setting once did."""

    def test_prohibitive_penalty_blocks_urgent_swap(
        self, single_node_cluster, monkeypatch
    ):
        monkeypatch.setattr(apc_module, "REMOVAL_GATE", 10.0)
        queue, batch, state = contended_system(single_node_cluster)
        apc = ApplicationPlacementController(
            single_node_cluster, APCConfig(cycle_length=1.0)
        )
        result = apc.place([batch], state, now=1.0)
        assert not result.state.is_placed("U")

    def test_zero_penalty_allows_marginal_swaps(
        self, single_node_cluster, monkeypatch
    ):
        # With no penalty the gate is the tie tolerance, so even small
        # predicted gains justify preemption; the urgent job must
        # certainly be placed.
        monkeypatch.setattr(
            apc_module, "REMOVAL_GATE", max(0.0, IMPROVEMENT_EPSILON)
        )
        queue, batch, state = contended_system(single_node_cluster)
        apc = ApplicationPlacementController(
            single_node_cluster, APCConfig(cycle_length=1.0)
        )
        result = apc.place([batch], state, now=1.0)
        assert result.state.is_placed("U")


#: What the scripted model predicts, by the set of applications a
#: candidate gives CPU.  Running A alone leaves B at 0.40; either way of
#: starting B lifts the worst value to 0.43, a gain of 0.03, which lies
#: between the tie tolerance and the preemption penalty.
SCRIPT = {
    frozenset(): {"A": 0.40, "B": 0.40},
    frozenset({"A"}): {"A": 0.50, "B": 0.40},
    frozenset({"B"}): {"A": 0.43, "B": 0.50},
    frozenset({"A", "B"}): {"A": 0.50, "B": 0.43},
}
GAIN = 0.43 - 0.40


class ScriptedModel:
    """Two 750 MB applications whose predictions come from
    :data:`SCRIPT`, so a test sets a candidate's gain exactly."""

    rpf = PiecewiseLinearRPF([(0.0, -1.0), (1000.0, 1.0)])

    def begin_cycle(self, now):
        pass

    def end_cycle(self):
        pass

    def app_specs(self, now):
        return {
            app: AllocatableApp(
                demand=AppDemand(app_id=app, memory_mb=750.0, max_instances=1),
                rpf=self.rpf,
            )
            for app in ("A", "B")
        }

    def placement_candidates(self, now):
        return ["A", "B"]

    def evaluate(self, allocations, now, horizon):
        served = frozenset(a for a, cpu in allocations.items() if cpu > 0)
        return dict(SCRIPT[served])


def place_scripted(nodes):
    """Place with A running on node0 of ``nodes`` nodes that each hold
    one application."""
    cluster = Cluster.homogeneous(nodes, cpu_capacity=1000, memory_capacity=1000)
    state = PlacementState(cluster)
    state.place("A", "node0", 750.0)
    apc = ApplicationPlacementController(cluster, APCConfig(cycle_length=1.0))
    return apc.place([ScriptedModel()], state, now=0.0).state


class TestGainBetweenTheTolerances:
    def test_gain_lies_between_the_constants(self):
        assert IMPROVEMENT_EPSILON < GAIN < PREEMPTION_PENALTY

    def test_preemptive_trial_with_that_gain_is_rejected(self):
        """Swapping A for B on a full node gains 0.03: the search runs
        (B could gain 0.6) but the swap does not clear the penalty."""
        state = place_scripted(nodes=1)
        assert state.is_placed("A") and not state.is_placed("B")

    def test_same_gain_from_a_pure_addition_is_adopted(self):
        """Starting B on a free node gains the same 0.03, which clears
        the tie tolerance."""
        state = place_scripted(nodes=2)
        assert state.is_placed("A") and state.is_placed("B")

    def test_the_penalty_is_what_rejects_the_swap(self, monkeypatch):
        monkeypatch.setattr(apc_module, "REMOVAL_GATE", IMPROVEMENT_EPSILON)
        state = place_scripted(nodes=1)
        assert state.is_placed("B") and not state.is_placed("A")
