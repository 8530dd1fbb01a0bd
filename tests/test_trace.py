"""Tests for the structured simulation trace."""

import pytest

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.policies import EDFPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.sim.trace import SimulationTrace, TraceEvent, TraceEventKind
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job


class TestSimulationTrace:
    def test_emit_and_filter_by_kind(self):
        trace = SimulationTrace()
        trace.emit(0.0, TraceEventKind.ARRIVAL, "j1")
        trace.emit(1.0, TraceEventKind.BOOT, "j1", node="n0")
        trace.emit(2.0, TraceEventKind.COMPLETION, "j1", met=True)
        boots = trace.events(kinds=[TraceEventKind.BOOT])
        assert len(boots) == 1
        assert boots[0].detail["node"] == "n0"

    def test_filter_by_subject_and_window(self):
        trace = SimulationTrace()
        for t in range(5):
            trace.emit(float(t), TraceEventKind.CYCLE, "controller", changes=t)
        trace.emit(2.5, TraceEventKind.ARRIVAL, "j9")
        assert len(trace.history_of("j9")) == 1
        windowed = trace.events(start=1.0, end=3.0)
        assert {e.time for e in windowed} == {1.0, 2.0, 2.5, 3.0}

    def test_predicate_filter(self):
        trace = SimulationTrace()
        trace.emit(0.0, TraceEventKind.CYCLE, "c", changes=0)
        trace.emit(1.0, TraceEventKind.CYCLE, "c", changes=3)
        busy = trace.events(predicate=lambda e: e.detail.get("changes", 0) > 0)
        assert len(busy) == 1

    def test_capacity_bound_drops_oldest(self):
        trace = SimulationTrace(capacity=3)
        for t in range(5):
            trace.emit(float(t), TraceEventKind.ARRIVAL, f"j{t}")
        assert len(trace) == 3
        assert trace.dropped_events == 2
        assert trace.events()[0].time == 2.0
        assert "older events dropped" in trace.render()

    def test_dropped_alias_is_removed(self):
        trace = SimulationTrace(capacity=2)
        for t in range(5):
            trace.emit(float(t), TraceEventKind.ARRIVAL, f"j{t}")
        assert trace.dropped_events == 3
        assert not hasattr(trace, "dropped")

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SimulationTrace(capacity=0)

    def test_counts_and_render(self):
        trace = SimulationTrace()
        trace.emit(0.0, TraceEventKind.BOOT, "j1", node="n0")
        trace.emit(5.0, TraceEventKind.SUSPEND, "j1", node="n0")
        counts = trace.counts()
        assert counts[TraceEventKind.BOOT] == 1
        text = trace.render()
        assert "boot" in text and "suspend" in text

    def test_event_render(self):
        event = TraceEvent(1.5, TraceEventKind.MIGRATE, "j1", {"node": "n2"})
        assert "migrate" in event.render()
        assert "node=n2" in event.render()


class TestSimulatorIntegration:
    def test_trace_captures_job_lifecycle(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=2000, memory_capacity=1500)
        queue = JobQueue()
        trace = SimulationTrace()
        slack = make_job("slack", work=50_000, max_speed=500, memory=1500,
                         submit=0.0, goal_factor=10)
        urgent = make_job("urgent", work=1000, max_speed=500, memory=1500,
                          submit=5.0, goal_factor=1.5)
        sim = MixedWorkloadSimulator(
            cluster,
            EDFPolicy(cluster, queue),
            queue,
            arrivals=[slack, urgent],
            batch_model=BatchWorkloadModel(queue),
            config=SimulationConfig(cycle_length=10.0, cost_model=FREE_COST_MODEL),
            trace=trace,
        )
        sim.run()
        counts = trace.counts()
        assert counts[TraceEventKind.ARRIVAL] == 2
        assert counts[TraceEventKind.COMPLETION] == 2
        assert counts.get(TraceEventKind.SUSPEND, 0) >= 1
        assert counts.get(TraceEventKind.RESUME, 0) >= 1
        # slack's full story is reconstructible.
        story = [e.kind for e in trace.history_of("slack")]
        assert story[0] is TraceEventKind.ARRIVAL
        assert story[-1] is TraceEventKind.COMPLETION
        assert TraceEventKind.SUSPEND in story
