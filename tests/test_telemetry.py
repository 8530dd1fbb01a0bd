"""Integration tests for the telemetry layer end to end.

The contract under test: telemetry is opt-in and zero-overhead by
default (a run without a profiler/registry/sink produces byte-identical
results), and when attached it yields a per-cycle APC phase breakdown,
labeled registry series, and a schema-valid JSONL stream.
"""

import io
import json

import pytest

from repro.cli import main
from repro.experiments.common import SCALES
from repro.experiments.experiment1 import run_experiment_one
from repro.obs import (
    JsonlSink,
    MetricRegistry,
    SpanProfiler,
    validate_jsonl,
)
from repro.sim.export import (
    FAULT_COLUMNS,
    SCHEMA_VERSION,
    faults_to_csv,
    metrics_to_json,
)
from repro.sim.metrics import ActionFaultStats, MetricsRecorder
from repro.sim.trace import SimulationTrace, TraceEventKind


TINY = SCALES["tiny"]


def run_tiny(**kwargs):
    return run_experiment_one(scale=TINY, seed=7, job_count=6, **kwargs)


class TestByteIdentity:
    def test_telemetry_off_vs_on_identical_results(self, tmp_path):
        # Pin the decision clock in both runs so decision_seconds — the
        # only wall-clock-derived output — cannot differ, then compare
        # the full JSON export byte for byte.
        frozen = lambda: 0.0
        plain = run_tiny(decision_clock=frozen)

        sink = JsonlSink(tmp_path / "t.jsonl")
        instrumented = run_tiny(
            decision_clock=frozen,
            profiler=SpanProfiler(),
            registry=MetricRegistry(),
            trace=SimulationTrace(sink=sink),
        )
        sink.close()

        assert metrics_to_json(plain.metrics) == metrics_to_json(
            instrumented.metrics
        )

    def test_audit_attached_vs_detached_identical_results(self):
        # The decision flight recorder observes every candidate the
        # controller scores; attaching it must never change a decision.
        from repro.obs import DecisionAudit

        frozen = lambda: 0.0
        plain = run_tiny(decision_clock=frozen)
        audit = DecisionAudit()
        audited = run_tiny(decision_clock=frozen, audit=audit)
        assert metrics_to_json(plain.metrics) == metrics_to_json(
            audited.metrics
        )
        assert len(audit) > 0  # the recorder did observe the run

    def test_default_run_allocates_no_telemetry(self):
        result = run_tiny(decision_clock=lambda: 0.0)
        assert result.metrics.registry is None


class TestDecisionClock:
    def test_injectable_clock_makes_decision_seconds_deterministic(self):
        state = {"t": 0.0}

        def clock():
            state["t"] += 0.25
            return state["t"]

        result = run_tiny(decision_clock=clock)
        # Each cycle reads the clock twice (before/after the decision),
        # so every sample is exactly one step.
        for sample in result.metrics.cycles:
            assert sample.decision_seconds == pytest.approx(0.25)

    def test_same_seed_same_clock_reproducible(self):
        a = run_tiny(decision_clock=lambda: 0.0)
        b = run_tiny(decision_clock=lambda: 0.0)
        assert metrics_to_json(a.metrics) == metrics_to_json(b.metrics)


class TestApcPhaseBreakdown:
    def test_every_cycle_reports_at_least_four_phases(self):
        profiler = SpanProfiler()
        run_tiny(profiler=profiler)
        cycles = profiler.breakdowns("apc.place")
        assert cycles  # one per control cycle
        for bucket in cycles:
            leaves = {path.rsplit("/", 1)[-1] for path in bucket}
            named_phases = leaves & {
                "apc.model_specs",
                "apc.loadbalance",
                "apc.predict",
                "apc.objective",
                "apc.admission",
                "apc.search",
            }
            assert len(named_phases) >= 4, sorted(leaves)

    def test_apc_spans_nest_under_simulator_spans(self):
        profiler = SpanProfiler()
        run_tiny(profiler=profiler)
        agg = profiler.aggregate()
        assert "sim.cycle" in agg
        assert "sim.cycle/sim.decide/apc.place" in agg
        # Phase time is bounded by the enclosing decision time.
        place = agg["sim.cycle/sim.decide/apc.place"]
        decide = agg["sim.cycle/sim.decide"]
        assert place.total <= decide.total


class TestRegistryIntegration:
    def test_run_publishes_core_series(self):
        registry = MetricRegistry()
        result = run_tiny(registry=registry, decision_clock=lambda: 0.0)
        names = {m.name for m in registry.metrics()}
        assert {
            "repro_sim_time_seconds",
            "repro_jobs_running",
            "repro_jobs_queued",
            "repro_batch_allocation_mhz",
            "repro_decision_seconds",
            "repro_job_completions_total",
            "repro_jobs_submitted_total",
            "repro_queue_depth",
            "repro_engine_events",
        } <= names
        submitted = registry.get("repro_jobs_submitted_total")
        assert submitted.value() == 6
        completions = registry.get("repro_job_completions_total")
        done = sum(child.value for _, child in completions.children())
        assert done == len(result.metrics.completions)
        decision = registry.get("repro_decision_seconds").labels()
        assert decision.count == len(result.metrics.cycles)

    def test_fault_stats_publish_labeled_outcomes(self):
        registry = MetricRegistry()
        stats = ActionFaultStats()
        stats.bind_registry(registry)
        stats.record_attempt("suspend")
        stats.record_failure("suspend")
        stats.record_retry("suspend", backoff=4.0)
        stats.record_success("suspend", time_to_reconcile=45.0)
        counter = registry.get("repro_actions_total")
        assert counter.value(action="suspend", outcome="attempt") == 1
        assert counter.value(action="suspend", outcome="failure") == 1
        assert counter.value(action="suspend", outcome="retry") == 1
        assert counter.value(action="suspend", outcome="success") == 1
        backoff = registry.get("repro_action_retry_backoff_seconds")
        assert backoff.labels(action="suspend").count == 1
        reconcile = registry.get("repro_action_reconcile_seconds")
        assert reconcile.labels(action="suspend").sum == pytest.approx(45.0)
        # The dict views stay canonical — the registry is an extra lens.
        assert stats.attempts == {"suspend": 1}
        assert stats.retries == {"suspend": 1}

    def test_metrics_recorder_without_registry_unchanged(self):
        recorder = MetricsRecorder()
        assert recorder.registry is None
        stats = ActionFaultStats()
        stats.record_attempt("boot")  # no registry bound: plain dicts only
        assert stats.attempts == {"boot": 1}


class TestTraceSinkAndDropCounter:
    def test_capacity_eviction_counted_and_sink_keeps_history(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        trace = SimulationTrace(capacity=3, sink=sink)
        for t in range(10):
            trace.emit(float(t), TraceEventKind.CYCLE, "controller", n=t)
        assert len(trace) == 3
        assert trace.dropped_events == 7
        summary = trace.summary()
        assert summary["dropped_events"] == 7
        assert summary["retained_events"] == 3
        assert "7 older events dropped" in trace.render()
        assert "streamed to sink" in trace.render()
        # The sink saw all 10 events (plus the meta record).
        records = [json.loads(l) for l in buf.getvalue().splitlines()]
        events = [r for r in records if r["type"] == "event"]
        assert len(events) == 10
        assert [e["detail"]["n"] for e in events] == list(range(10))

    def test_no_drops_no_note(self):
        trace = SimulationTrace(capacity=10)
        trace.emit(0.0, TraceEventKind.ARRIVAL, "j1")
        assert trace.dropped_events == 0
        assert "dropped" not in trace.render()


class TestFaultExport:
    def _stats_with_activity(self):
        stats = ActionFaultStats()
        stats.record_attempt("suspend")
        stats.record_failure("suspend")
        stats.record_retry("suspend")
        stats.record_attempt("suspend")
        stats.record_success("suspend", time_to_reconcile=30.0)
        stats.record_attempt("migrate")
        stats.record_abandon("migrate")
        return stats

    def test_fault_csv_columns_stable(self):
        recorder = MetricsRecorder()
        recorder.faults = self._stats_with_activity()
        text = faults_to_csv(recorder)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(FAULT_COLUMNS)
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"migrate", "suspend"}
        assert rows["suspend"][FAULT_COLUMNS.index("attempts")] == "2"
        assert rows["suspend"][FAULT_COLUMNS.index("failures")] == "1"
        assert rows["migrate"][FAULT_COLUMNS.index("abandoned")] == "1"

    def test_fault_csv_empty_when_no_faults(self):
        text = faults_to_csv(MetricsRecorder())
        assert text.strip() == ",".join(FAULT_COLUMNS)

    def test_json_export_carries_schema_version_and_faults(self):
        recorder = MetricsRecorder()
        recorder.faults = self._stats_with_activity()
        doc = json.loads(metrics_to_json(recorder))
        assert SCHEMA_VERSION == 5
        assert doc["schema_version"] == SCHEMA_VERSION
        assert "sla" in doc  # v3 SLA-attainment section
        assert doc["faults"]["attempts"] == {"suspend": 2, "migrate": 1}
        summary = doc["summary"]
        assert summary["total_action_attempts"] == 3
        assert summary["total_action_failures"] == 1
        assert summary["total_action_abandoned"] == 1
        assert summary["mean_time_to_reconcile"] == pytest.approx(30.0)


class TestTelemetryCli:
    def test_telemetry_command_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        assert main([
            "telemetry", "--scale", "tiny", "--registry",
            "--jsonl", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "per-cycle APC phase breakdown" in out
        assert "loadbalance" in out
        assert "aggregate span profile" in out
        assert "apc.place" in out
        assert "# TYPE repro_decision_seconds histogram" in out
        assert "schema-valid JSONL records written" in out
        # The emitted stream validates independently.
        count = validate_jsonl(path)
        assert count > 0
        records = [json.loads(l) for l in path.read_text().splitlines()]
        types = {r["type"] for r in records}
        assert types == {"meta", "event", "span", "metric"}

    def test_phase_columns_add_up_to_total(self):
        """Exclusive times: an evaluation nested in admission counts in
        its own columns only, and ``self`` holds apc.place's own time."""
        from repro.cli import render_phase_table

        ticks = iter(range(10_000))
        profiler = SpanProfiler(clock=lambda: next(ticks) * 1e-3)
        for _ in range(2):
            with profiler.span("sim.decide"):
                with profiler.span("apc.place"):
                    with profiler.span("apc.model_specs"):
                        pass
                    with profiler.span("apc.admission"):
                        with profiler.span("apc.evaluate"):
                            with profiler.span("apc.loadbalance"):
                                pass
                            with profiler.span("apc.predict"):
                                pass
                    with profiler.span("apc.search"):
                        with profiler.span("apc.evaluate"):
                            with profiler.span("apc.loadbalance"):
                                pass
        lines = render_phase_table(profiler, 5).splitlines()
        header = lines[1].split()
        rows = [dict(zip(header, line.split())) for line in lines[3:]]
        assert len(rows) == 2
        for row in rows:
            columns = [float(v) for k, v in row.items() if k not in ("cycle", "total")]
            assert sum(columns) == pytest.approx(float(row["total"]))
            # A leaf lasts 1 ms; a parent's own time is 1 ms before,
            # between and after its children.
            assert row["loadbalance"] == "2.00"
            assert row["admission"] == "2.00"
            assert row["evaluate"] == "5.00"
            assert row["self"] == "4.00"
            assert row["total"] == "17.00"

    def test_telemetry_audit_flag_streams_audit_records(self, capsys, tmp_path):
        path = tmp_path / "audited.jsonl"
        assert main([
            "telemetry", "--scale", "tiny", "--audit",
            "--jsonl", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "decision audit:" in out
        records = [json.loads(l) for l in path.read_text().splitlines()]
        types = {r["type"] for r in records}
        assert "audit_cycle" in types
        assert "audit_candidate" in types
        assert validate_jsonl(path) > 0

    def test_telemetry_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["telemetry"])
        assert args.jsonl is None
        assert args.cycles == 5
        assert args.fail_prob == 0.0
        assert args.audit is False


class TestCombinedStream:
    """One JSONL stream carrying spans + audit + alert records at once:
    every reader sees its slice of the same file."""

    @pytest.fixture(scope="class")
    def combined(self, tmp_path_factory):
        from repro.obs import AlertConfig, DecisionAudit
        from repro.scenario import Scenario, Simulation
        from repro.sim.simulator import SimulationConfig

        path = tmp_path_factory.mktemp("combined") / "stream.jsonl"
        sink = JsonlSink(path)
        trace = SimulationTrace(sink=sink)
        profiler = SpanProfiler()
        scenario = Scenario(
            name="starved", nodes=1, job_count=60, interarrival=10.0,
            seed=2,
            sim=SimulationConfig(
                max_time=150 * 300.0,
                alerts=AlertConfig(starvation_cycles=2),
            ),
        )
        simulation = Simulation.from_scenario(
            scenario,
            profiler=profiler,
            trace=trace,
            audit=DecisionAudit(sink=sink, trace=trace),
        )
        simulation.run()
        for record in profiler.records:
            sink.span(record.as_dict())
        sink.close()
        return path

    def test_stream_validates_and_interleaves_all_record_families(
        self, combined
    ):
        assert validate_jsonl(combined) > 0
        records = [
            json.loads(line)
            for line in combined.read_text().splitlines()
        ]
        types = {r["type"] for r in records}
        assert {
            "meta", "event", "span", "audit_cycle", "audit_candidate",
            "alert_fired",
        } <= types
        assert all(r["v"] == SCHEMA_VERSION for r in records)

    def test_each_reader_extracts_its_slice(self, combined):
        from repro.obs import read_alert_records, read_audit_records

        audit = read_audit_records(combined)
        assert audit and all(r["type"].startswith("audit_") for r in audit)
        alerts = read_alert_records(combined)
        assert {r["rule"] for r in alerts} == {"batch_starvation"}

    def test_report_renders_the_combined_stream(self, combined):
        from repro.obs import render_report

        html = render_report(combined)
        assert "Alert timeline" in html
        assert "batch_starvation" in html

    def test_cli_alerts_flag_prints_watchdog_summary(self, capsys, tmp_path):
        path = tmp_path / "armed.jsonl"
        assert main([
            "telemetry", "--scale", "tiny", "--audit", "--alerts",
            "--cycles", "3", "--jsonl", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "SLO watchdog:" in out
        # A healthy tiny run fires nothing — the stream stays audit+core.
        assert "0 alert(s) fired" in out
        assert validate_jsonl(path) > 0
