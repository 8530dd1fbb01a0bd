"""Unit tests for the ``repro.obs`` telemetry building blocks."""

import io
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    render_prometheus,
)
from repro.obs.sink import (
    AUDIT_RECORD_TYPES,
    MIN_AUDIT_SCHEMA_VERSION,
    SCHEMA_VERSION,
    JsonlSink,
    read_audit_records,
    read_jsonl,
    validate_jsonl,
    validate_record,
)
from repro.obs.spans import NULL_SPAN, SpanProfiler, render_profile


def ticker(step=1.0):
    """Deterministic clock: 0, step, 2*step, ..."""
    state = {"t": -step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


class TestSpanProfiler:
    def test_nesting_builds_paths_and_depths(self):
        prof = SpanProfiler(clock=ticker())
        with prof.span("outer"):
            with prof.span("inner"):
                pass
            with prof.span("inner"):
                pass
        paths = [r.path for r in prof.records]
        assert paths == ["outer", "outer/inner", "outer/inner"]
        assert [r.depth for r in prof.records] == [0, 1, 1]
        assert prof.records[1].parent == 0
        assert prof.records[0].parent is None

    def test_durations_from_injected_clock(self):
        # Each _open reads the clock once at entry and once at exit, so
        # with a unit ticker a leaf span lasts exactly 1 tick and a span
        # wrapping one child lasts 3 (entry, child entry+exit, exit).
        prof = SpanProfiler(clock=ticker())
        with prof.span("a"):
            with prof.span("b"):
                pass
        by_name = {r.name: r for r in prof.records}
        assert by_name["b"].duration == pytest.approx(1.0)
        assert by_name["a"].duration == pytest.approx(3.0)

    def test_aggregate_groups_by_path(self):
        prof = SpanProfiler(clock=ticker())
        for _ in range(3):
            with prof.span("cycle"):
                with prof.span("phase"):
                    pass
        agg = prof.aggregate()
        assert agg["cycle"].count == 3
        assert agg["cycle/phase"].count == 3
        assert agg["cycle/phase"].total == pytest.approx(3.0)
        assert agg["cycle/phase"].mean == pytest.approx(1.0)
        assert agg["cycle/phase"].min == pytest.approx(1.0)
        assert agg["cycle/phase"].max == pytest.approx(1.0)

    def test_roots_filter(self):
        prof = SpanProfiler(clock=ticker())
        with prof.span("a"):
            pass
        with prof.span("b"):
            with prof.span("a"):
                pass
        assert len(prof.roots()) == 2
        assert len(prof.roots("a")) == 1  # nested "a" is not a root

    def test_breakdowns_anchor_at_any_depth(self):
        # The anchor span sits under outer wrappers, as apc.place does
        # under sim.cycle/sim.decide when the profiler is shared.
        prof = SpanProfiler(clock=ticker())
        for _ in range(2):
            with prof.span("sim.cycle"):
                with prof.span("sim.decide"):
                    with prof.span("apc.place"):
                        with prof.span("apc.search"):
                            with prof.span("apc.evaluate"):
                                pass
        cycles = prof.breakdowns("apc.place")
        assert len(cycles) == 2
        for bucket in cycles:
            # Keys are relative to the anchor, wrappers excluded.
            assert set(bucket) == {
                "apc.place",
                "apc.place/apc.search",
                "apc.place/apc.search/apc.evaluate",
            }
            assert bucket["apc.place/apc.search"].count == 1

    def test_breakdowns_separate_occurrences(self):
        prof = SpanProfiler(clock=ticker())
        with prof.span("place"):
            with prof.span("x"):
                pass
        with prof.span("place"):
            with prof.span("x"):
                pass
            with prof.span("x"):
                pass
        cycles = prof.breakdowns("place")
        assert [b["place/x"].count for b in cycles] == [1, 2]

    def test_attrs_recorded(self):
        prof = SpanProfiler(clock=ticker())
        with prof.span("cycle", t=42.0):
            pass
        assert prof.records[0].attrs == {"t": 42.0}
        assert prof.records[0].as_dict()["attrs"] == {"t": 42.0}

    def test_null_span_is_reusable_noop(self):
        for _ in range(3):
            with NULL_SPAN:
                pass  # no state, no error on reuse

    def test_render_profile(self):
        prof = SpanProfiler(clock=ticker())
        with prof.span("cycle"):
            with prof.span("phase"):
                pass
        text = render_profile(prof, unit="raw")
        assert "cycle" in text
        assert "phase" in text
        assert render_profile(SpanProfiler()) == "(no spans recorded)"

    def test_render_profile_nests_late_children_under_their_parent(self):
        """A child first opened in a later cycle prints under its own
        parent, not under the sibling that opened in between."""
        prof = SpanProfiler(clock=ticker())
        with prof.span("place"):
            with prof.span("specs"):
                pass
            with prof.span("admission"):
                pass
        with prof.span("place"):
            with prof.span("specs"):
                with prof.span("tables"):
                    pass
            with prof.span("admission"):
                pass
        rows = render_profile(prof, unit="raw").splitlines()[2:]
        labels = [row[:44].rstrip() for row in rows]
        assert labels == ["place", "  specs", "    tables", "  admission"]
        # One tick per clock read, two reads per span: place 5 + 7,
        # specs 1 + 3, tables 1, admission 1 + 1.
        totals = [float(row.split()[2]) for row in rows]
        assert totals == [12.0, 4.0, 1.0, 2.0]


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricRegistry()
        c = reg.counter("repro_actions_total", "help", ["action", "outcome"])
        c.inc(action="suspend", outcome="ok")
        c.inc(2.0, action="suspend", outcome="ok")
        c.inc(action="resume", outcome="ok")
        assert c.value(action="suspend", outcome="ok") == 3.0
        assert c.value(action="resume", outcome="ok") == 1.0

    def test_label_set_identity_is_order_independent(self):
        reg = MetricRegistry()
        c = reg.counter("c_total", "", ["a", "b"])
        assert c.labels(a="1", b="2") is c.labels(b="2", a="1")

    def test_label_mismatch_rejected(self):
        reg = MetricRegistry()
        c = reg.counter("c_total", "", ["a"])
        with pytest.raises(ConfigurationError):
            c.inc(b="oops")
        with pytest.raises(ConfigurationError):
            c.inc(a="x", b="extra")

    def test_counter_rejects_negative(self):
        reg = MetricRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("c_total").inc(-1.0)

    def test_gauge_set_inc_dec(self):
        g = MetricRegistry().gauge("g")
        g.set(5.0)
        g.labels().inc(2.0)
        g.labels().dec(3.0)
        assert g.value() == 4.0

    def test_histogram_bucket_edges_inclusive(self):
        # Prometheus `le` semantics: value <= upper bound, inclusive.
        h = MetricRegistry().histogram("h", buckets=[1.0, 2.0])
        child = h.labels()
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            child.observe(v)
        assert child.counts == [2, 2, 1]  # (<=1], (1,2], (2,+Inf)
        assert child.cumulative() == [2, 4, 5]
        assert child.count == 5
        assert child.sum == pytest.approx(104.0)

    def test_histogram_edge_validation(self):
        reg = MetricRegistry()
        with pytest.raises(ConfigurationError):
            reg.histogram("h1", buckets=[])
        with pytest.raises(ConfigurationError):
            reg.histogram("h2", buckets=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            reg.histogram("h3", buckets=[1.0, math.inf])

    def test_registration_idempotent_for_same_shape(self):
        reg = MetricRegistry()
        a = reg.counter("c_total", "help", ["x"])
        b = reg.counter("c_total", "help", ["x"])
        assert a is b
        with pytest.raises(ConfigurationError):
            reg.gauge("c_total")  # different type
        with pytest.raises(ConfigurationError):
            reg.counter("c_total", "", ["y"])  # different labels

    def test_invalid_metric_name(self):
        reg = MetricRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("9starts_with_digit")
        with pytest.raises(ConfigurationError):
            reg.counter("has space")

    def test_collect_flat_samples(self):
        reg = MetricRegistry()
        reg.counter("c_total", label_names=["k"]).inc(k="v")
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        samples = reg.collect()
        assert [s["name"] for s in samples] == ["c_total", "h"]
        assert samples[0]["value"] == 1.0
        assert samples[0]["labels"] == {"k": "v"}
        assert samples[1]["buckets"] == {"1.0": 1, "+Inf": 1}
        assert samples[1]["sum"] == 0.5
        assert samples[1]["count"] == 1


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self):
        reg = MetricRegistry()
        reg.counter("repro_x_total", "things", ["kind"]).inc(kind="a")
        reg.gauge("repro_depth", "queue depth").set(7.0)
        text = render_prometheus(reg)
        assert "# HELP repro_x_total things" in text
        assert "# TYPE repro_x_total counter" in text
        assert 'repro_x_total{kind="a"} 1' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        reg = MetricRegistry()
        h = reg.histogram("repro_d_seconds", "", ["op"], buckets=[0.5, 1.0])
        h.observe(0.2, op="solve")
        h.observe(0.7, op="solve")
        h.observe(9.0, op="solve")
        text = render_prometheus(reg)
        assert 'repro_d_seconds_bucket{op="solve",le="0.5"} 1' in text
        assert 'repro_d_seconds_bucket{op="solve",le="1.0"} 2' in text
        assert 'repro_d_seconds_bucket{op="solve",le="+Inf"} 3' in text
        assert 'repro_d_seconds_sum{op="solve"} 9.9' in text
        assert 'repro_d_seconds_count{op="solve"} 3' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricRegistry()) == ""


class TestJsonlSink:
    def test_round_trip_event_span_metric(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, run="t1")
        sink.event(1.5, "arrival", "j1", {"node": "n0"})
        prof = SpanProfiler(clock=ticker())
        with prof.span("cycle"):
            pass
        sink.span(prof.records[0].as_dict())
        reg = MetricRegistry()
        reg.counter("c_total").inc()
        sink.metrics(reg.collect())
        sink.close()

        records = read_jsonl(io.StringIO(buf.getvalue()))
        assert [r["type"] for r in records] == ["meta", "event", "span", "metric"]
        assert all(r["v"] == SCHEMA_VERSION for r in records)
        assert records[0]["run"] == "t1"
        assert records[1]["detail"] == {"node": "n0"}
        assert records[2]["path"] == "cycle"
        assert records[3]["value"] == 1.0
        assert validate_jsonl(io.StringIO(buf.getvalue())) == 4

    def test_file_target_owned_and_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.event(0.0, "cycle", "controller")
        assert validate_jsonl(path) == 2

    def test_detail_coercion(self):
        buf = io.StringIO()
        JsonlSink(buf).event(0.0, "k", "s", {"obj": object(), "n": 3})
        record = read_jsonl(io.StringIO(buf.getvalue()))[1]
        assert isinstance(record["detail"]["obj"], str)
        assert record["detail"]["n"] == 3

    def test_validate_rejects_bad_records(self):
        with pytest.raises(ConfigurationError):
            validate_record({"v": 99, "type": "event"})
        with pytest.raises(ConfigurationError):
            validate_record({"v": SCHEMA_VERSION, "type": "nope"})
        with pytest.raises(ConfigurationError):
            validate_record({"v": SCHEMA_VERSION, "type": "event", "time": 0.0})
        with pytest.raises(ConfigurationError):
            validate_record(
                {"v": SCHEMA_VERSION, "type": "metric", "name": "m",
                 "kind": "counter", "labels": {}}
            )  # counter sample without value
        with pytest.raises(ConfigurationError):
            validate_record("not a dict")

    def test_validate_jsonl_requires_meta_lead(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.event(0.0, "k", "s")
        lines = buf.getvalue().splitlines()
        no_meta = io.StringIO("\n".join(lines[1:]) + "\n")
        with pytest.raises(ConfigurationError):
            validate_jsonl(no_meta)
        with pytest.raises(ConfigurationError):
            validate_jsonl(io.StringIO(""))


def _audit_record(rtype, **overrides):
    """A minimal schema-valid v3 audit record of the given type."""
    base = {
        "audit_cycle": {
            "time": 0.0, "cycle": 0, "utilities_before": [],
            "utilities_after": [0.5], "changed": True, "evaluations": 1,
        },
        "audit_candidate": {
            "time": 0.0, "cycle": 0, "stage": "search", "accepted": False,
            "reason": "no_improvement", "utilities": {"a": 0.5},
        },
        "audit_admission": {
            "time": 0.0, "cycle": 0, "app": "a", "accepted": True,
            "reason": "placed",
        },
        "audit_rpf": {
            "time": 0.0, "cycle": 0, "app": "a", "max_utility": 0.6,
        },
    }[rtype]
    record = {"v": SCHEMA_VERSION, "type": rtype, **base}
    record.update(overrides)
    return record


class TestSchemaV3:
    def test_current_version_is_four(self):
        assert SCHEMA_VERSION == 5
        assert MIN_AUDIT_SCHEMA_VERSION == 3

    def test_all_audit_record_types_validate(self):
        for rtype in sorted(AUDIT_RECORD_TYPES):
            validate_record(_audit_record(rtype))

    def test_sink_accepts_audit_records(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        for rtype in sorted(AUDIT_RECORD_TYPES):
            record = _audit_record(rtype)
            record.pop("v")  # the sink stamps the version itself
            sink.write(record)
        sink.close()
        assert validate_jsonl(io.StringIO(buf.getvalue())) == 5

    def test_older_versions_rejected(self):
        for old in (1, 2):
            with pytest.raises(ConfigurationError, match="unsupported schema"):
                validate_record(_audit_record("audit_cycle", v=old))
        with pytest.raises(ConfigurationError, match="unsupported schema"):
            validate_record({"v": 1, "type": "event", "time": 0.0,
                             "kind": "k", "subject": "s", "detail": {}})

    def test_malformed_audit_records_rejected(self):
        broken = _audit_record("audit_candidate")
        del broken["reason"]
        with pytest.raises(ConfigurationError, match="missing field 'reason'"):
            validate_record(broken)
        wrong_type = _audit_record("audit_cycle", utilities_after="oops")
        with pytest.raises(ConfigurationError, match="wrong type"):
            validate_record(wrong_type)

    def test_read_audit_records_returns_only_audit_lines(self):
        records = [
            {"v": 3, "type": "meta", "stream": "repro.telemetry"},
            {"v": 3, "type": "event", "time": 0.0, "kind": "cycle",
             "subject": "controller", "detail": {}},
            _audit_record("audit_cycle"),
            _audit_record("audit_admission"),
        ]
        audit = read_audit_records(records)
        assert [r["type"] for r in audit] == ["audit_cycle", "audit_admission"]

    def test_read_audit_records_empty_stream(self):
        with pytest.raises(ConfigurationError, match="empty telemetry stream"):
            read_audit_records([])

    def test_read_audit_records_v1_stream_explains_version_gap(self):
        v1_only = [
            {"v": 1, "type": "meta", "stream": "repro.telemetry"},
            {"v": 1, "type": "event", "time": 0.0, "kind": "cycle",
             "subject": "controller", "detail": {}},
        ]
        with pytest.raises(ConfigurationError,
                           match="predates the decision flight recorder"):
            read_audit_records(v1_only)

    def test_read_audit_records_v3_stream_without_audit(self):
        v3_no_audit = [
            {"v": 3, "type": "meta", "stream": "repro.telemetry"},
            {"v": 3, "type": "event", "time": 0.0, "kind": "cycle",
             "subject": "controller", "detail": {}},
        ]
        with pytest.raises(ConfigurationError,
                           match="DecisionAudit attached"):
            read_audit_records(v3_no_audit)

    def test_read_audit_records_validates_each_audit_line(self):
        stream = [
            {"v": 3, "type": "meta", "stream": "repro.telemetry"},
            _audit_record("audit_rpf", max_utility="not-a-number"),
        ]
        with pytest.raises(ConfigurationError, match="wrong type"):
            read_audit_records(stream)


class TestHistogramTimer:
    def test_times_a_block_with_injected_clock(self):
        hist = Histogram("repro_place_seconds", "place latency", ())
        with hist.time(clock=ticker(0.5)):
            pass
        child = hist.labels()
        assert child.count == 1
        assert child.sum == pytest.approx(0.5)

    def test_labeled_timer(self):
        hist = Histogram("repro_phase_seconds", "phase latency", ("phase",))
        with hist.time(clock=ticker(2.0), phase="search"):
            pass
        assert hist.labels(phase="search").sum == pytest.approx(2.0)
        assert hist.labels(phase="search").count == 1

    def test_exception_still_observes_the_duration(self):
        hist = Histogram("repro_failing_seconds", "failing op latency", ())
        with pytest.raises(RuntimeError):
            with hist.time(clock=ticker(1.0)):
                raise RuntimeError("operation blew up")
        assert hist.labels().count == 1
        assert hist.labels().sum == pytest.approx(1.0)

    def test_registry_histogram_timer_end_to_end(self):
        registry = MetricRegistry()
        hist = registry.histogram("repro_timed_seconds", "timed")
        with hist.time(clock=ticker(0.25)):
            pass
        assert registry.get("repro_timed_seconds").labels().count == 1


class TestRegistrySnapshot:
    def build(self):
        registry = MetricRegistry()
        jobs = registry.counter("repro_jobs_total", "jobs", ("kind",))
        jobs.inc(3, kind="batch")
        jobs.inc(1, kind="txn")
        registry.gauge("repro_depth", "queue depth").set(7)
        registry.histogram(
            "repro_lat_seconds", "latency", buckets=(0.1, 1.0)
        ).observe(0.5)
        return registry

    def test_keys_use_merged_metrics_format(self):
        snap = self.build().snapshot()
        assert snap["repro_jobs_total{kind=batch}"] == 3.0
        assert snap["repro_jobs_total{kind=txn}"] == 1.0
        assert snap["repro_depth"] == 7.0

    def test_histograms_expose_sum_count_and_cumulative_buckets(self):
        snap = self.build().snapshot()
        hist = snap["repro_lat_seconds"]
        assert hist["sum"] == pytest.approx(0.5)
        assert hist["count"] == 1
        assert hist["buckets"] == {"0.1": 0, "1.0": 1, "+Inf": 1}

    def test_snapshot_is_isolated_from_later_observations(self):
        registry = self.build()
        snap = registry.snapshot()
        registry.get("repro_depth").set(99)
        registry.get("repro_lat_seconds").observe(0.2)
        assert snap["repro_depth"] == 7.0
        assert snap["repro_lat_seconds"]["count"] == 1


class TestUnknownTypeForwardCompat:
    def stream(self):
        return [
            {"v": SCHEMA_VERSION, "type": "meta",
             "stream": "repro.telemetry"},
            {"v": SCHEMA_VERSION, "type": "event", "time": 0.0,
             "kind": "cycle", "subject": "controller", "detail": {}},
            {"v": SCHEMA_VERSION, "type": "hologram", "payload": 1},
            {"v": SCHEMA_VERSION, "type": "hologram", "payload": 2},
        ]

    def test_validate_jsonl_skips_with_counted_warning(self):
        text = "\n".join(__import__("json").dumps(r) for r in self.stream())
        with pytest.warns(UserWarning, match=r"skipped 2 record\(s\).*"
                                             r"'hologram'"):
            count = validate_jsonl(io.StringIO(text))
        assert count == 2  # meta + event; holograms not counted

    def test_read_audit_records_warns_then_reports_absence(self):
        stream = self.stream()
        with pytest.warns(UserWarning, match="newer than"):
            with pytest.raises(ConfigurationError,
                               match="DecisionAudit attached"):
                read_audit_records(stream)

    def test_known_only_stream_warns_nothing(self, recwarn):
        text = "\n".join(
            __import__("json").dumps(r) for r in self.stream()[:2]
        )
        assert validate_jsonl(io.StringIO(text)) == 2
        assert len(recwarn) == 0
