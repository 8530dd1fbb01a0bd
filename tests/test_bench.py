"""The APC scaling benchmark: schema, perf gate, report I/O.

Runs the ``--quick`` ladder (the CI smoke configuration) — a few
seconds — not the full 200-node ladder.
"""

import json
import os

import pytest

from repro.experiments.benchmark import (
    BENCH_SCHEMA,
    DEFAULT_SIZES,
    QUICK_SIZES,
    bench_apc_scale,
    compare_bench_reports,
    format_bench_report,
    validate_bench_report,
    write_bench_report,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(rows, quick=False):
    return {
        "schema": BENCH_SCHEMA, "quick": quick, "seed": 7, "cycles": 2,
        "results": [
            {"nodes": nodes, "jobs": nodes * 8, "place_ms": ms}
            for nodes, ms in rows
        ],
    }


@pytest.fixture(scope="module")
def quick_report():
    return bench_apc_scale(cycles=4, seed=7, quick=True)


def test_quick_report_schema(quick_report):
    assert validate_bench_report(quick_report) == []
    assert quick_report["schema"] == BENCH_SCHEMA
    assert quick_report["quick"] is True
    assert [row["nodes"] for row in quick_report["results"]] == list(QUICK_SIZES)


def test_report_round_trips_through_file(quick_report, tmp_path):
    path = write_bench_report(quick_report, str(tmp_path / "BENCH_apc.json"))
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded == quick_report
    assert validate_bench_report(loaded) == []


def test_format_report_mentions_every_size(quick_report):
    text = format_bench_report(quick_report)
    for row in quick_report["results"]:
        assert str(row["nodes"]) in text


def test_validate_flags_problems():
    assert validate_bench_report({}) != []
    bad = {
        "schema": BENCH_SCHEMA,
        "quick": False,
        "seed": 1,
        "cycles": 2,
        "results": [
            # A row in the retired v1 shape: no place_ms.
            {"nodes": 10, "jobs": 80, "naive_ms": 1.0, "incremental_ms": 1.0}
        ],
    }
    problems = validate_bench_report(bad)
    assert problems == ["results[0].place_ms missing or wrong type"]


class TestCompareBenchReports:
    def test_within_tolerance_passes(self):
        current = _report([(10, 1.2), (25, 5.5)])
        baseline = _report([(10, 1.0), (25, 5.0)])
        assert compare_bench_reports(current, baseline,
                                     tolerance_pct=25.0) == []

    def test_slow_size_regresses_with_readable_line(self):
        current = _report([(10, 2.0), (25, 5.0)])
        baseline = _report([(10, 1.0), (25, 5.0)])
        lines = compare_bench_reports(current, baseline, tolerance_pct=25.0)
        assert len(lines) == 1
        assert "10 nodes" in lines[0]
        assert "2.0ms vs baseline 1.0ms" in lines[0]
        assert "+100%" in lines[0]
        assert "tolerance 25%" in lines[0]

    def test_identical_reports_pass_at_zero_tolerance(self):
        report = _report([(10, 1.0)])
        assert compare_bench_reports(report, report, tolerance_pct=0.0) == []

    def test_baseline_size_missing_from_current_run_is_flagged(self):
        # Only a *full* (non-quick) run is expected to cover the whole
        # baseline ladder, so the coverage note requires quick=False.
        current = _report([(10, 1.0)])
        baseline = _report([(10, 1.0), (200, 40.0)])
        lines = compare_bench_reports(current, baseline)
        assert lines == [
            "baseline sizes not measured in the current run: 200"
        ]

    def test_quick_subset_vs_full_baseline_passes(self):
        # The CI smoke gate: a --quick run is a deliberate subset of the
        # full committed ladder, so untouched baseline rungs don't flag.
        current = _report([(n, 1.0) for n in QUICK_SIZES], quick=True)
        baseline = _report([(n, 1.0) for n in DEFAULT_SIZES])
        assert compare_bench_reports(current, baseline) == []

    def test_new_ladder_rung_is_not_a_regression(self):
        current = _report([(10, 1.0), (400, 99.0)])
        baseline = _report([(10, 1.0)])
        assert compare_bench_reports(current, baseline) == []

    def test_v1_baseline_fails_naming_the_schema(self):
        # A v1 report has naive_ms/incremental_ms rows and no place_ms:
        # the gate must say why it cannot compare, not raise KeyError.
        baseline = {
            "schema": "repro.bench.apc/v1", "quick": False, "seed": 7,
            "cycles": 2,
            "results": [{"nodes": 10, "jobs": 80, "naive_ms": 2.0,
                         "incremental_ms": 1.0, "speedup_median": 2.0,
                         "identical": True}],
        }
        lines = compare_bench_reports(_report([(10, 1.0)]), baseline)
        assert len(lines) == 1
        assert "repro.bench.apc/v1" in lines[0]
        assert BENCH_SCHEMA in lines[0]


class TestCliPerfGate:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_gate_passes_against_generous_baseline(
        self, quick_report, tmp_path, capsys
    ):
        baseline = dict(quick_report)
        baseline["results"] = [
            {**row, "place_ms": row["place_ms"] * 100}
            for row in quick_report["results"]
        ]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = self._run([
            "bench", "--quick", "--cycles", "2",
            "--baseline", str(path), "--check",
        ])
        assert code == 0
        assert "no regressions vs" in capsys.readouterr().out

    def test_gate_fails_against_impossible_baseline(
        self, quick_report, tmp_path, capsys
    ):
        baseline = dict(quick_report)
        baseline["results"] = [
            {**row, "place_ms": row["place_ms"] / 1e6}
            for row in quick_report["results"]
        ]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = self._run([
            "bench", "--quick", "--cycles", "2",
            "--baseline", str(path), "--check", "--tolerance", "5",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "perf regression:" in err

    def test_regressions_warn_without_failing_when_not_checking(
        self, quick_report, tmp_path, capsys
    ):
        baseline = dict(quick_report)
        baseline["results"] = [
            {**row, "place_ms": row["place_ms"] / 1e6}
            for row in quick_report["results"]
        ]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = self._run([
            "bench", "--quick", "--cycles", "2", "--baseline", str(path),
        ])
        assert code == 0  # advisory mode: report, don't gate
        assert "perf regression:" in capsys.readouterr().err

    def test_check_without_baseline_is_a_usage_error(self, capsys):
        code = self._run(["bench", "--quick", "--cycles", "2", "--check"])
        assert code == 2
        assert "--check needs --baseline" in capsys.readouterr().err


class TestCommittedArtifact:
    """Gates on the committed ``BENCH_apc.json`` — deterministic (no live
    timing), so these can assert hard floors without flaking."""

    @pytest.fixture(scope="class")
    def artifact(self):
        path = os.path.join(REPO_ROOT, "BENCH_apc.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_artifact_is_schema_valid_full_ladder(self, artifact):
        assert validate_bench_report(artifact) == []
        assert artifact["quick"] is False
        assert [r["nodes"] for r in artifact["results"]] == list(DEFAULT_SIZES)

    def test_ladder_reaches_thousand_nodes(self, artifact):
        sizes = [r["nodes"] for r in artifact["results"]]
        assert 500 in sizes and 1000 in sizes and 2000 in sizes

    def test_large_rungs_meet_the_target_speedup(self, artifact):
        # The headline acceptance number: place() at 1000 nodes in well
        # under the old ~172ms scalar-incremental median.
        by_nodes = {r["nodes"]: r for r in artifact["results"]}
        assert by_nodes[1000]["place_ms"] <= 57.0
