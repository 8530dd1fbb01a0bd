"""Tests for the decision flight recorder and its reading surfaces.

Three layers under test: :class:`repro.obs.audit.DecisionAudit` as a
standalone recorder, the audit records a real controller run emits
(content, not just counts), and the two consumers — ``repro explain``
(narrative reconstruction, no re-simulation) and ``repro report``
(self-contained HTML).
"""

import io
import json
from html.parser import HTMLParser

import pytest

from repro.core.objective import UtilityVector, lex_explain
from repro.errors import ConfigurationError
from repro.experiments.common import SCALES
from repro.experiments.experiment1 import run_experiment_one
from repro.obs.audit import (
    ADMISSION_REASONS,
    SHORTCIRCUIT_REASONS,
    DecisionAudit,
)
from repro.obs.explain import explain_cycle
from repro.obs.report import render_report, write_report
from repro.obs.sink import JsonlSink, read_audit_records, validate_jsonl
from repro.sim.trace import SimulationTrace, TraceEventKind


def recorded_stream(**run_kwargs):
    """One tiny audited run; returns the parsed JSONL records."""
    buf = io.StringIO()
    sink = JsonlSink(buf, scale="tiny", seed=7)
    trace = SimulationTrace(sink=sink)
    audit = DecisionAudit(sink=sink, trace=trace)
    run_experiment_one(
        scale=SCALES["tiny"], seed=7, job_count=6, trace=trace, audit=audit,
        **run_kwargs,
    )
    sink.close()
    records = [json.loads(l) for l in buf.getvalue().splitlines()]
    return records, audit


@pytest.fixture(scope="module")
def tiny_run():
    return recorded_stream()


class TestLexExplain:
    def test_mirrors_vector_comparison(self):
        better = UtilityVector([0.5, 0.9])
        worse = UtilityVector([0.1, 0.9])
        explained = lex_explain(better, worse)
        assert explained["result"] == 1
        assert explained["index"] == 0
        assert explained["candidate"] == pytest.approx(0.5)
        assert explained["incumbent"] == pytest.approx(0.1)
        assert (better > worse) is True

    def test_tie_within_tolerance(self):
        a = UtilityVector([0.500, 0.9], tolerance=0.05)
        b = UtilityVector([0.510, 0.9], tolerance=0.05)
        explained = lex_explain(a, b)
        assert explained["result"] == 0
        assert explained["index"] is None
        assert explained["tolerance"] == pytest.approx(0.05)

    def test_decides_at_later_position(self):
        a = UtilityVector([0.1, 0.8])
        b = UtilityVector([0.1, 0.3])
        explained = lex_explain(a, b)
        assert explained["result"] == 1
        assert explained["index"] == 1


class TestDecisionAuditUnit:
    def test_cycle_numbering_and_time_stamping(self):
        audit = DecisionAudit()
        audit.begin_cycle(600.0)
        audit.end_cycle(utilities_after={"a": 0.5}, changed=False,
                        evaluations=1)
        audit.begin_cycle(1200.0)
        audit.end_cycle(utilities_after={"a": 0.6}, changed=True,
                        evaluations=2)
        assert audit.cycles() == [0, 1]
        first, second = audit.records
        assert first["time"] == 600.0 and first["cycle"] == 0
        assert second["time"] == 1200.0 and second["cycle"] == 1
        assert second["utilities_after"] == [0.6]
        assert audit.records_for(1) == [second]

    def test_incumbent_vector_is_sorted(self):
        audit = DecisionAudit()
        audit.begin_cycle(0.0)
        audit.incumbent({"b": 0.9, "a": 0.1})
        audit.end_cycle(utilities_after={}, changed=False,
                        evaluations=0)
        assert audit.records[0]["utilities_before"] == [0.1, 0.9]

    def test_fill_order_attaches_to_matching_node_only(self):
        audit = DecisionAudit()
        audit.begin_cycle(0.0)
        audit.note_fill("node3", ["a", "b"])
        audit.candidate(stage="search", accepted=False, reason="x",
                        utilities={}, node="other")
        assert "fill_order" not in audit.records[0]
        audit.candidate(stage="search", accepted=True, reason="improved",
                        utilities={}, node="node3")
        assert audit.records[1]["fill_order"] == ["a", "b"]

    def test_capacity_bound_counts_drops_but_streams_everything(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        audit = DecisionAudit(sink=sink, capacity=2)
        audit.begin_cycle(0.0)
        for _ in range(5):
            audit.shortcircuit("node_noop")
        assert len(audit) == 2
        assert audit.dropped_records == 3
        sink.close()
        streamed = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert sum(r["type"] == "audit_candidate" for r in streamed) == 5

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DecisionAudit(capacity=0)

    def test_end_cycle_emits_decision_trace_event(self):
        trace = SimulationTrace()
        audit = DecisionAudit(trace=trace)
        audit.begin_cycle(42.0)
        audit.incumbent({"a": -0.2})
        audit.end_cycle(utilities_after={"a": 0.3}, changed=True,
                        evaluations=4)
        events = trace.events(kinds=[TraceEventKind.DECISION])
        assert len(events) == 1
        detail = events[0].detail
        assert detail["changed"] is True
        assert detail["worst_before"] == pytest.approx(-0.2)
        assert detail["worst_after"] == pytest.approx(0.3)


class TestRecordedRunContent:
    def test_stream_is_schema_valid_and_carries_all_audit_types(self, tiny_run):
        records, audit = tiny_run
        buf = io.StringIO("\n".join(json.dumps(r) for r in records) + "\n")
        assert validate_jsonl(buf) == len(records)
        types = {r["type"] for r in records}
        assert {"audit_cycle", "audit_candidate",
                "audit_admission", "audit_rpf"} <= types
        assert len(read_audit_records(records)) == len(audit)

    def test_one_cycle_summary_per_control_cycle(self, tiny_run):
        records, _ = tiny_run
        summaries = [r for r in records if r["type"] == "audit_cycle"]
        cycle_events = [r for r in records
                        if r["type"] == "event" and r["kind"] == "cycle"]
        assert len(summaries) == len(cycle_events)
        assert [r["cycle"] for r in summaries] == list(range(len(summaries)))

    def test_admission_verdicts_use_known_reasons(self, tiny_run):
        records, _ = tiny_run
        admissions = [r for r in records if r["type"] == "audit_admission"]
        assert admissions
        assert all(r["reason"] in ADMISSION_REASONS for r in admissions)
        placed = [r for r in admissions if r["accepted"]]
        assert placed and all(r["nodes"] for r in placed)

    def test_candidate_records_explain_acceptance(self, tiny_run):
        records, _ = tiny_run
        accepted = [r for r in records
                    if r["type"] == "audit_candidate" and r["accepted"]]
        assert accepted
        for record in accepted:
            comparison = record["comparison"]
            assert comparison["result"] == 1  # strict improvement required
            assert record["reason"] == "improved"
        shortcircuits = [
            r for r in records
            if r["type"] == "audit_candidate"
            and r["reason"] in SHORTCIRCUIT_REASONS
        ]
        assert shortcircuits  # tiny run still skips searches


class TestExplain:
    def test_narrative_reconstructs_accepted_move(self, tiny_run):
        records, _ = tiny_run
        cycle = next(r["cycle"] for r in records
                     if r["type"] == "audit_candidate" and r["accepted"])
        text = explain_cycle(records, cycle)
        assert f"cycle {cycle}" in text
        assert "utility vector before:" in text
        assert "utility vector after:" in text
        assert "worst-app delta:" in text
        assert "ACCEPTED" in text
        assert "beats the incumbent at sorted position" in text
        assert "placement CHANGED" in text

    def test_narrative_names_a_losing_candidate_reason(self, tiny_run):
        records, _ = tiny_run
        losing = [r for r in records
                  if r["type"] == "audit_candidate" and not r["accepted"]]
        assert losing
        cycle = losing[0]["cycle"]
        text = explain_cycle(records, cycle)
        assert f"rejected: {losing[0]['reason']}" in text

    def test_app_filter(self, tiny_run):
        records, _ = tiny_run
        admission = next(r for r in records if r["type"] == "audit_admission")
        text = explain_cycle(records, admission["cycle"], app=admission["app"])
        assert admission["app"] in text
        assert f"(filtered to {admission['app']!r})" in text
        with pytest.raises(ConfigurationError, match="mention application"):
            explain_cycle(records, admission["cycle"], app="no-such-app")

    def test_unknown_cycle_lists_recorded_cycles(self, tiny_run):
        records, _ = tiny_run
        with pytest.raises(ConfigurationError, match="recorded cycles"):
            explain_cycle(records, 10_000)

    def test_stream_without_audit_raises(self):
        bare = [
            {"v": 3, "type": "meta", "stream": "repro.telemetry"},
            {"v": 3, "type": "event", "time": 0.0, "kind": "cycle",
             "subject": "controller", "detail": {}},
        ]
        with pytest.raises(ConfigurationError, match="DecisionAudit"):
            explain_cycle(bare, 0)


class _HtmlChecker(HTMLParser):
    """Stdlib parse of the report: balanced tags, collected text."""

    VOID = {"meta", "br", "hr", "img", "input", "link", "line"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.text = []
        self.svg_count = 0

    def handle_starttag(self, tag, attrs):
        if tag == "svg":
            self.svg_count += 1
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        assert self.stack and self.stack[-1] == tag, (
            f"unbalanced </{tag}>, open: {self.stack[-5:]}"
        )
        self.stack.pop()

    def handle_data(self, data):
        self.text.append(data)


class TestReport:
    def test_report_parses_and_has_charts(self, tiny_run):
        records, _ = tiny_run
        html = render_report(records, title="tiny audited run")
        checker = _HtmlChecker()
        checker.feed(html)
        checker.close()
        assert checker.stack == []  # every tag closed
        assert checker.svg_count >= 3
        text = "".join(checker.text)
        assert "tiny audited run" in text
        assert "Utility vector per cycle" in text
        assert "SLA attainment per cycle" in text
        assert "Placement changes per cycle" in text
        assert "Stream contents" in text
        assert "http://" not in html and "https://" not in html

    def test_report_degrades_without_audit_or_spans(self):
        bare = [
            {"v": 3, "type": "meta", "stream": "repro.telemetry"},
        ]
        html = render_report(bare)
        assert "no audit records in this stream" in html
        assert "no apc.place spans" in html

    def test_write_report(self, tiny_run, tmp_path):
        records, _ = tiny_run
        out = write_report(records, tmp_path / "r.html")
        content = out.read_text(encoding="utf-8")
        assert content.startswith("<!DOCTYPE html>")


class TestCli:
    def test_explain_cli_roundtrip(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "audited.jsonl"
        assert main(["telemetry", "--scale", "tiny",
                     "--audit", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        records = [json.loads(l) for l in path.read_text().splitlines()]
        cycle = next(r["cycle"] for r in records
                     if r["type"] == "audit_candidate" and r["accepted"])
        assert main(["explain", str(path), "--cycle", str(cycle)]) == 0
        out = capsys.readouterr().out
        assert "utility vector before:" in out

        assert main(["report", str(path),
                     "--out", str(tmp_path / "r.html")]) == 0
        out = capsys.readouterr().out
        assert "report written to" in out
        assert (tmp_path / "r.html").exists()

    def test_explain_cli_errors_exit_2(self, capsys, tmp_path):
        from repro.cli import main

        missing = tmp_path / "nope.jsonl"
        assert main(["explain", str(missing), "--cycle", "0"]) == 2
        assert "explain failed" in capsys.readouterr().err

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["explain", str(empty), "--cycle", "0"]) == 2
        assert "empty telemetry stream" in capsys.readouterr().err

        assert main(["report", str(missing)]) == 2
        assert "report failed" in capsys.readouterr().err
