"""Tests for APC configuration variants (the search toggle and the
preemption penalty)."""

import pytest

from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.placement import PlacementState

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
    def test_prohibitive_penalty_blocks_urgent_swap(self, single_node_cluster):
        queue, batch, state = contended_system(single_node_cluster)
        apc = ApplicationPlacementController(
            single_node_cluster,
            APCConfig(cycle_length=1.0, preemption_penalty=10.0),
        )
        result = apc.place([batch], state, now=1.0)
        assert not result.state.is_placed("U")

    def test_zero_penalty_allows_marginal_swaps(self, single_node_cluster):
        # With no gate even small predicted gains justify preemption; the
        # urgent job must certainly be placed.
        queue, batch, state = contended_system(single_node_cluster)
        apc = ApplicationPlacementController(
            single_node_cluster,
            APCConfig(cycle_length=1.0, preemption_penalty=0.0),
        )
        result = apc.place([batch], state, now=1.0)
        assert result.state.is_placed("U")
