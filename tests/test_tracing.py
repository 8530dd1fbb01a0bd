"""End-to-end causal job tracing (``repro.obs.tracing``).

The contracts under test:

* **zero overhead off** — with no tracer attached, simulation results
  are byte-identical to a tracer-attached run (modulo the trace-only
  fields), on 3 and on 16 nodes, with faults on;
* **unbroken chains** — every completed job's trace reconstructs an
  arrival -> completion chain of parent-linked spans, even under fault
  injection and retries;
* **exact decomposition** — the critical-path segments partition the
  job's lifetime: their sum equals the end-to-end latency;
* **one fan-out** — in a stream, each job event the text trace writes
  is immediately followed by the tracer's record of the same event;
* **crash-safe** — a run interrupted by snapshot/restore yields the
  same trace records as an uninterrupted one;
* **valid exports** — the Chrome trace-event document round-trips
  through JSON, and ``read_trace_records`` negotiates schema versions.
"""

import collections
import io
import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.alerts import AlertConfig
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry, render_prometheus
from repro.obs.sink import (
    MIN_TRACE_SCHEMA_VERSION,
    SCHEMA_VERSION,
    JsonlSink,
    read_jsonl,
    read_trace_records,
)
from repro.obs.tracing import (
    SEGMENTS,
    JobTracer,
    critical_path,
    group_traces,
    render_trace,
    segment_timeline,
    to_chrome_trace,
    trace_chain,
    write_chrome_trace,
)
from repro.scenario import Scenario, Simulation
from repro.sim.simulator import NodeFailure, SimulationConfig
from repro.sim.trace import SimulationTrace
from repro.virt.faults import ActionFaultModel, RetryPolicy

ZERO_CLOCK = lambda: 0.0  # noqa: E731 - deterministic decision timing

CYCLE = 600.0


def faulty_scenario(
    seed=3, faults=True, job_count=14, nodes=3, interarrival=100.0
):
    fault_model = (
        ActionFaultModel.uniform(
            failure_probability=0.45,
            stall_probability=0.3,
            stall_duration_mean=400.0,
            seed=seed,
        )
        if faults
        else None
    )
    return Scenario(
        name="tracing-test",
        nodes=nodes,
        job_count=job_count,
        interarrival=interarrival,
        seed=seed,
        sim=SimulationConfig(
            cycle_length=CYCLE,
            fault_model=fault_model,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=60.0),
            action_timeout=150.0,
        ),
    )


#: A loaded 16-node cluster, on which the controller searches.
SIXTEEN_NODES = dict(nodes=16, job_count=64, interarrival=20.0)


def traced_run(scenario, tracer=None):
    tracer = tracer or JobTracer()
    sim = Simulation.from_scenario(
        scenario, decision_clock=ZERO_CLOCK, tracer=tracer
    )
    sim.run()
    return sim, tracer


#: The only keys a tracer adds anywhere in the serialized state.
TRACE_ONLY_KEYS = ("trace_id", "tracer", "wait_profiles")


def _strip(obj):
    if isinstance(obj, dict):
        return {
            k: _strip(v) for k, v in obj.items() if k not in TRACE_ONLY_KEYS
        }
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def stripped_state(sim):
    """Run state with every tracer-only field removed, as JSON text."""
    return json.dumps(
        {
            "snapshot": _strip(sim.snapshot()),
            "metrics": _strip(sim.simulator.metrics.state_dict()),
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Zero overhead with tracing off (faults on, 3 and 16 nodes)
# ----------------------------------------------------------------------
class TestTracingOffByteIdentity:
    @pytest.mark.parametrize("sixteen_nodes", [True, False])
    def test_results_identical_with_and_without_tracer(self, sixteen_nodes):
        scenario = faulty_scenario(**(SIXTEEN_NODES if sixteen_nodes else {}))
        plain = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
        plain.run()
        traced, tracer = traced_run(scenario)
        assert len(tracer) > 0
        assert stripped_state(plain) == stripped_state(traced)

    def test_untraced_snapshot_carries_no_trace_fields(self):
        scenario = faulty_scenario()
        sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
        sim.run(until=2 * CYCLE)  # jobs still in flight
        text = json.dumps(sim.snapshot())
        assert sim.snapshot()["simulator"]["tracer"] is None
        assert '"trace_id"' not in text
        assert "wait_profiles" not in sim.simulator.metrics.state_dict()

    def test_traced_midrun_jobs_carry_trace_ids(self):
        tracer = JobTracer()
        sim = Simulation.from_scenario(
            faulty_scenario(), decision_clock=ZERO_CLOCK, tracer=tracer
        )
        sim.run(until=2 * CYCLE)
        assert '"trace_id"' in json.dumps(sim.snapshot())


# ----------------------------------------------------------------------
# One fan-out feeds the text trace and the tracer
# ----------------------------------------------------------------------
#: Job lifecycle events both the text trace and the tracer record.
SHARED_KINDS = ("arrival", "boot", "suspend", "resume", "migrate", "completion")


class TestObserverFanOut:
    def test_each_shared_event_is_followed_by_its_trace_event(self):
        """In one stream, each job event the text trace writes is
        immediately followed by the tracer's record of the same event:
        the fan-out neither drops nor reorders one side."""
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        trace = SimulationTrace(sink=sink)
        # Experiment Two's mixed goals preempt and migrate; with faults
        # some reverted actions also lose their fallback slot.
        scenario = Scenario(
            name="fan-out", workload="experiment2", nodes=3, job_count=30,
            interarrival=100.0, seed=5,
            sim=SimulationConfig(
                cycle_length=CYCLE,
                fault_model=ActionFaultModel.uniform(
                    failure_probability=0.2, stall_probability=0.3,
                    stall_duration_mean=400.0, seed=5,
                ),
                retry_policy=RetryPolicy(max_attempts=4, base_delay=60.0),
                action_timeout=150.0,
                failures=(
                    NodeFailure(node="node1", fail_time=4 * CYCLE + 5.0,
                                duration=3 * CYCLE),
                ),
                alerts=AlertConfig(),
            ),
        )
        sim = Simulation.from_scenario(
            scenario,
            decision_clock=ZERO_CLOCK,
            registry=MetricRegistry(),
            trace=trace,
            audit=DecisionAudit(sink=sink, trace=trace),
            tracer=JobTracer(sink=sink),
        )
        sim.run()
        sink.close()
        records = read_jsonl(io.StringIO(buffer.getvalue()))
        jobs = {job.job_id for job in sim.jobs}
        kinds, reasons = collections.Counter(), collections.Counter()
        for record, following in zip(records, records[1:]):
            if not (
                record["type"] == "event"
                and record["kind"] in SHARED_KINDS
                and record["subject"] in jobs
            ):
                continue
            assert following["type"] == "trace_event", (record, following)
            assert (
                following["time"], following["subject"], following["name"],
                following["detail"],
            ) == (
                record["time"], record["subject"], record["kind"],
                record["detail"],
            )
            kinds[record["kind"]] += 1
            reasons[record["detail"].get("reason")] += 1
        assert set(kinds) == set(SHARED_KINDS), kinds
        assert kinds["arrival"] == kinds["completion"] == len(jobs)
        assert reasons["fallback-lost"] > 0, reasons


# ----------------------------------------------------------------------
# Unbroken causal chains under fault injection
# ----------------------------------------------------------------------
class TestChainReconstruction:
    def test_every_completed_job_has_an_unbroken_chain(self):
        sim, tracer = traced_run(faulty_scenario())
        completed = {c.job_id for c in sim.simulator.metrics.completions}
        assert completed
        traces = group_traces(tracer.records())
        by_subject = {events[0]["subject"]: events for events in traces.values()}
        for job_id in completed:
            events = by_subject[job_id]
            chain = trace_chain(events)
            assert len(chain) == len(events)
            assert chain[0]["name"] == "arrival"
            assert chain[0]["parent"] == ""
            assert chain[-1]["name"] == "completion"
            # every non-root span points at its predecessor
            for prev, event in zip(chain, chain[1:]):
                assert event["parent"] == prev["span"]

    def test_faulty_run_records_reconcile_outcomes(self):
        _, tracer = traced_run(faulty_scenario())
        names = {r["name"] for r in tracer.records()}
        assert "reconcile-fail" in names
        assert "reconcile-retry" in names

    def test_broken_chain_is_rejected(self):
        _, tracer = traced_run(faulty_scenario(faults=False, job_count=4))
        events = next(iter(group_traces(tracer.records()).values()))
        with pytest.raises(ConfigurationError):
            trace_chain(events[1:])  # missing root


# ----------------------------------------------------------------------
# Wait-time decomposition: segments partition the lifetime exactly
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_segments_sum_to_end_to_end_latency(self):
        sim, tracer = traced_run(faulty_scenario())
        completions = {
            c.job_id: c for c in sim.simulator.metrics.completions
        }
        assert completions
        checked = 0
        for events in group_traces(tracer.records()).values():
            path = critical_path(events)
            record = completions.get(path["subject"])
            if record is None:
                continue
            checked += 1
            assert path["complete"]
            assert set(path["segments"]) == set(SEGMENTS)
            total = sum(path["segments"].values())
            assert math.isclose(total, path["total"], rel_tol=1e-9)
            latency = record.completion_time - record.submit_time
            assert math.isclose(path["total"], latency, rel_tol=1e-9)
        assert checked == len(completions)

    def test_segment_timeline_partitions_the_run(self):
        _, tracer = traced_run(faulty_scenario(job_count=6))
        events = next(iter(group_traces(tracer.records()).values()))
        timeline = segment_timeline(events)
        assert timeline[0][1] == events[0]["time"]
        assert timeline[-1][2] == events[-1]["time"]
        for (_, _, end), (_, start, _) in zip(timeline, timeline[1:]):
            assert end == start  # contiguous, no gaps or overlaps

    def test_wait_profiles_feed_metrics(self):
        sim, _ = traced_run(faulty_scenario())
        metrics = sim.simulator.metrics
        assert set(metrics.wait_profiles) == {
            c.job_id for c in metrics.completions
        }
        decomposition = metrics.wait_decomposition()
        assert decomposition["execution"] > 0.0
        assert set(decomposition) == set(SEGMENTS)


# ----------------------------------------------------------------------
# Snapshot/restore: in-flight trace state survives
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_interrupted_run_yields_identical_trace_records(self):
        scenario = faulty_scenario()
        _, reference = traced_run(scenario)

        partial_tracer = JobTracer()
        partial = Simulation.from_scenario(
            scenario, decision_clock=ZERO_CLOCK, tracer=partial_tracer
        )
        partial.run(until=2 * CYCLE + 300.0)
        snapshot = json.loads(json.dumps(partial.snapshot()))
        assert snapshot["simulator"]["tracer"] is not None

        resumed_tracer = JobTracer()
        resumed = Simulation.from_snapshot(
            snapshot, decision_clock=ZERO_CLOCK, tracer=resumed_tracer
        )
        resumed.run()
        assert json.dumps(resumed_tracer.state_dict(), sort_keys=True) == (
            json.dumps(reference.state_dict(), sort_keys=True)
        )

    def test_wait_profiles_survive_restore(self):
        scenario = faulty_scenario()
        sim, _ = traced_run(scenario)
        state = json.loads(
            json.dumps(sim.simulator.metrics.state_dict(), sort_keys=True)
        )
        from repro.sim.metrics import MetricsRecorder

        fresh = MetricsRecorder()
        fresh.restore_state(state)
        assert fresh.wait_profiles == sim.simulator.metrics.wait_profiles


class TestHistoryIndex:
    def test_history_matches_a_scan_of_the_retained_ring(self):
        """``history_of`` reads a per-subject index: it must return what
        a scan of the retained records returns, also after the capacity
        bound evicted records and after a restore."""
        tracer = JobTracer(capacity=40)
        Simulation.from_scenario(
            faulty_scenario(), decision_clock=ZERO_CLOCK, tracer=tracer
        ).run()
        assert tracer.dropped_records > 0
        restored = JobTracer(capacity=40)
        restored.restore_state(tracer.state_dict())
        subjects = {r["subject"] for r in tracer.records()} | {"nope"}
        for subject in subjects:
            scan = [r for r in tracer.records() if r["subject"] == subject]
            assert tracer.history_of(subject) == scan
            assert restored.history_of(subject) == scan


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_document_is_valid_json_with_expected_shape(self, tmp_path):
        _, tracer = traced_run(faulty_scenario(job_count=6))
        doc = json.loads(json.dumps(to_chrome_trace(tracer.records())))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["name"] in SEGMENTS
            if event["ph"] == "i":
                assert "trace" in event["args"]

        out = tmp_path / "chrome.json"
        count = write_chrome_trace(tracer.records(), out)
        assert count == len(events)
        assert json.loads(out.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# Stream round-trip and version negotiation
# ----------------------------------------------------------------------
class TestStreamRoundTrip:
    def record_stream(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path, scale="test", seed=3)
        tracer = JobTracer(sink=sink)
        sim = Simulation.from_scenario(
            faulty_scenario(job_count=6),
            decision_clock=ZERO_CLOCK,
            tracer=tracer,
        )
        sim.run()
        sink.close()
        return path, tracer

    def test_stream_records_match_in_memory_records(self, tmp_path):
        path, tracer = self.record_stream(tmp_path)
        records = read_trace_records(path)
        assert len(records) == len(tracer)
        assert all(r["v"] == SCHEMA_VERSION for r in records)
        in_memory = [
            json.dumps(r, sort_keys=True) for r in tracer.records()
        ]
        from_stream = [
            json.dumps(
                {k: v for k, v in r.items() if k not in ("v", "type")},
                sort_keys=True,
            )
            for r in records
        ]
        assert in_memory == from_stream

    def test_old_stream_version_is_rejected(self):
        stale = json.dumps(
            {
                "v": MIN_TRACE_SCHEMA_VERSION - 1,
                "type": "trace_event",
                "time": 0.0,
                "trace": "T000001",
                "span": "S000001",
                "parent": "",
                "subject": "j1",
                "name": "arrival",
                "detail": {},
            }
        )
        with pytest.raises(ConfigurationError, match="causal job tracer"):
            read_trace_records(io.StringIO(stale + "\n"))

    def test_stream_without_traces_is_explained(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        sink = JsonlSink(path, scale="test", seed=0)
        sink.event(0.0, "cycle", "sim")
        sink.close()
        with pytest.raises(ConfigurationError, match="JobTracer"):
            read_trace_records(path)

    def test_unknown_future_record_types_are_skipped(self, tmp_path):
        path, _ = self.record_stream(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(
            2, json.dumps({"v": SCHEMA_VERSION, "type": "hologram", "x": 1})
        )
        with pytest.warns(UserWarning, match="hologram"):
            records = read_trace_records(io.StringIO("\n".join(lines) + "\n"))
        assert all(r["type"] == "trace_event" for r in records)


# ----------------------------------------------------------------------
# App-epoch rotation (unit level: admission verdicts on app subjects)
# ----------------------------------------------------------------------
class TestAppEpochs:
    def test_placed_then_rejected_closes_the_epoch(self):
        tracer = JobTracer()
        tracer.begin_cycle(0.0)
        tracer.admission("web", accepted=True, reason="placed", nodes=("n0",))
        first = tracer.trace_id("web")
        tracer.begin_cycle(600.0)
        tracer.admission("web", accepted=False, reason="cpu-exhausted")
        assert tracer.trace_id("web") is None  # epoch closed
        tracer.begin_cycle(1200.0)
        tracer.admission("web", accepted=True, reason="placed", nodes=("n1",))
        second = tracer.trace_id("web")
        assert second is not None and second != first
        epochs = group_traces(tracer.records())
        assert len(epochs) == 2
        for events in epochs.values():
            assert len(trace_chain(events)) == len(events)

    def test_job_traces_never_rotate_on_rejection(self):
        tracer = JobTracer()
        trace_id = tracer.job_arrival(0.0, "j1")
        tracer.begin_cycle(600.0)
        tracer.admission("j1", accepted=False, reason="cpu-exhausted")
        tracer.begin_cycle(1200.0)
        tracer.admission("j1", accepted=True, reason="placed", nodes=("n0",))
        assert tracer.trace_id("j1") == trace_id
        assert len(group_traces(tracer.records())) == 1


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
class TestRendering:
    def test_summary_and_waterfall(self):
        sim, tracer = traced_run(faulty_scenario(job_count=6))
        summary = render_trace(tracer.records())
        assert "dominant" in summary
        job_id = sim.simulator.metrics.completions[0].job_id
        waterfall = render_trace(tracer.records(), job=job_id)
        assert "execution" in waterfall
        assert "arrival" in waterfall
        with pytest.raises(ConfigurationError, match="no trace found"):
            render_trace(tracer.records(), job="nope")


# ----------------------------------------------------------------------
# Metric exemplars
# ----------------------------------------------------------------------
class TestExemplars:
    def test_histogram_keeps_latest_exemplar_per_bucket(self):
        registry = MetricRegistry()
        hist = registry.histogram("repro_test_seconds", buckets=(1.0, 10.0))
        hist.observe(0.5, exemplar="T000001")
        hist.observe(0.7, exemplar="T000002")
        hist.observe(99.0, exemplar="T000003")
        snap = registry.snapshot()["repro_test_seconds"]
        assert snap["exemplars"] == {"1.0": "T000002", "+Inf": "T000003"}
        text = render_prometheus(registry)
        assert '# EXEMPLAR repro_test_seconds_bucket{le="1.0"} ' in text
        assert 'trace_id="T000002"' in text

    def test_counter_exemplar_rides_alongside_value(self):
        registry = MetricRegistry()
        counter = registry.counter("repro_test_total", "", ("app",))
        counter.inc(app="batch", exemplar="T000009")
        counter.inc(app="web")  # no exemplar: untouched
        snap = registry.snapshot()
        assert snap["repro_test_total{app=batch}"] == 1.0
        assert snap["repro_test_total{app=batch}#exemplar"] == "T000009"
        assert "repro_test_total{app=web}#exemplar" not in snap
        assert '# EXEMPLAR repro_test_total{app="batch"}' in render_prometheus(
            registry
        )

    def test_output_unchanged_without_exemplars(self):
        registry = MetricRegistry()
        registry.counter("repro_plain_total").inc()
        registry.histogram("repro_plain_seconds", buckets=(1.0,)).observe(0.5)
        text = render_prometheus(registry)
        assert "EXEMPLAR" not in text
        snap = registry.snapshot()
        assert snap["repro_plain_total"] == 1.0
        assert "exemplars" not in snap["repro_plain_seconds"]

    def test_breach_counter_links_to_offending_trace(self):
        registry = MetricRegistry()
        scenario = faulty_scenario()
        tracer = JobTracer()
        sim = Simulation.from_scenario(
            scenario,
            decision_clock=ZERO_CLOCK,
            registry=registry,
            tracer=tracer,
        )
        sim.run()
        snap = registry.snapshot()
        breaches = snap.get("repro_sla_breaches_total{app=batch}", 0.0)
        if breaches:
            exemplar = snap["repro_sla_breaches_total{app=batch}#exemplar"]
            assert exemplar in group_traces(tracer.records())
        wait_keys = [k for k in snap if k.startswith("repro_job_wait_seconds")]
        assert wait_keys  # lazy histogram registered once profiles exist
