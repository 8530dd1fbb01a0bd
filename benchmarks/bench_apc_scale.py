"""APC scaling: ``place()`` latency up a ladder of cluster sizes.

Thin pytest wrapper around :func:`repro.experiments.benchmark.
bench_apc_scale` — the same ladder the ``repro bench`` CLI runs.  Times
``place()`` over rolling cycles of a saturated mixed-class workload at a
ladder of cluster sizes and writes the schema'd report to
``BENCH_apc.json``.  Decisions are pinned by the test suite against the
paper-literal reference solver, not here.

``REPRO_BENCH_QUICK=1`` shrinks the ladder to CI-smoke size.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import run_once
from repro.experiments.benchmark import (
    bench_apc_scale,
    format_bench_report,
    validate_bench_report,
    write_bench_report,
)


@pytest.mark.benchmark(group="apc-scale")
def test_apc_scale(benchmark, tmp_path):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    report = run_once(benchmark, bench_apc_scale, quick=quick)
    print()
    print(format_bench_report(report))
    problems = validate_bench_report(report)
    assert not problems, problems
    write_bench_report(report, str(tmp_path / "BENCH_apc.json"))
    benchmark.extra_info["place_ms"] = {
        str(row["nodes"]): round(row["place_ms"], 2)
        for row in report["results"]
    }
