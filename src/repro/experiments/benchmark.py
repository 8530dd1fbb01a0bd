"""APC scaling benchmark: ``place()`` latency up a ladder of cluster sizes.

Drives the placement controller directly (no discrete-event simulator —
the cost under measurement is :meth:`place` itself) over rolling control
cycles of a saturated mixed-class workload, at a ladder of cluster
sizes, and reduces the per-cycle ``place()`` timings to medians.

Decisions are not checked here: the identity tests compare the same
rolling-cycle loop (:func:`_roll_cycles`) against the paper-literal
reference solver in ``tests/reference_apc.py``.

Output is a JSON document (schema ``repro.bench.apc/v2``)::

    {
      "schema": "repro.bench.apc/v2",
      "quick": false, "seed": 7, "cycles": 12,
      "results": [
        {"nodes": 100, "jobs": 800, "place_ms": ...},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.batch.job import Job, JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.core.workload import WorkloadModel
from repro.obs.spans import SpanProfiler, render_profile
from repro.scenario import Scenario

#: Current benchmark output schema identifier.
BENCH_SCHEMA = "repro.bench.apc/v2"

#: Cluster sizes of the full ladder (node counts).  The 500/1000/2000
#: rungs pin the controller's scaling (§5.1 plots decision time
#: against cluster size).
DEFAULT_SIZES = (10, 25, 50, 100, 200, 500, 1000, 2000)

#: Sizes used by ``--quick`` (CI smoke).  Includes one big rung so the
#: controller's scaling — the part most likely to regress — is
#: smoke-checked on every run, not only in full ladder runs.
QUICK_SIZES = (10, 25, 500)

#: Paper-term mean inter-arrival that keeps the queue saturated — the
#: regime where the search bookkeeping matters.  At
#: ~0.5 job arrivals per node-cycle against multi-cycle job durations,
#: demand outstrips capacity severalfold within a few cycles.
_SATURATED_INTERARRIVAL = 50.0

#: Jobs per node: enough backlog to outlive the measured cycles.
_JOBS_PER_NODE = 8


def _bench_scenario(nodes: int, seed: int) -> Scenario:
    return Scenario(
        name=f"bench-apc-{nodes}",
        nodes=nodes,
        workload="experiment2",
        job_count=nodes * _JOBS_PER_NODE,
        interarrival=_SATURATED_INTERARRIVAL,
        seed=seed,
        queue_window=48,
    )


def _run_cycles(
    scenario: Scenario,
    cycles: int,
    profiler: Optional[SpanProfiler] = None,
) -> Dict[str, object]:
    """Build the scenario's cluster, queue, batch model and controller,
    then roll them over ``cycles`` control cycles (see
    :func:`_roll_cycles`)."""
    cluster = scenario.build_cluster()
    queue = JobQueue()
    model = BatchWorkloadModel(queue, queue_window=scenario.queue_window)
    controller = ApplicationPlacementController(
        cluster, scenario.apc, profiler=profiler
    )
    return _roll_cycles(
        controller, cluster, [model], queue, scenario.build_jobs(), cycles
    )


def _roll_cycles(
    controller,
    cluster: Cluster,
    models: Sequence[WorkloadModel],
    queue: JobQueue,
    jobs: Sequence[Job],
    cycles: int,
) -> Dict[str, object]:
    """Roll ``controller`` over ``cycles`` control cycles from an empty
    placement, timing each ``place()`` call; jobs are submitted at
    their submit times and advance at their granted speeds between
    cycles (the simulator's execution rule, minus event-queue overhead
    that would pollute the measurement).

    Returns the per-cycle timings and placement matrices.  Any object
    with the controller's ``place()`` and ``config`` will do, which is
    how the identity tests run a reference solver through the same loop.
    """
    state = PlacementState(cluster)
    horizon = controller.config.cycle_length
    pending = sorted(jobs, key=lambda job: job.submit_time)
    now = 0.0
    timings: List[float] = []
    matrices: List[dict] = []
    for _ in range(cycles):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        start = time.perf_counter()
        result = controller.place(models, state, now)
        timings.append(time.perf_counter() - start)
        state = result.state
        matrices.append(state.as_matrix())
        for job in queue.incomplete():
            speed = min(result.allocations.get(job.job_id, 0.0), job.max_speed)
            if speed <= 0.0:
                continue
            if job.status is JobStatus.NOT_STARTED:
                job.status = JobStatus.RUNNING
                job.start_time = now
            job.advance(speed * horizon)
            if job.remaining_work <= 0.0:
                job.status = JobStatus.COMPLETED
                job.completion_time = now + horizon
        now += horizon
    return {"timings": timings, "matrices": matrices}


def bench_apc_scale(
    sizes: Sequence[int] = DEFAULT_SIZES,
    cycles: int = 12,
    seed: int = 7,
    quick: bool = False,
) -> Dict[str, object]:
    """Time ``place()`` across cluster sizes; returns the schema dict.

    ``quick`` shrinks the ladder and cycle count to CI-smoke size
    (a few seconds) while keeping the schema identical.
    """
    if quick:
        sizes = QUICK_SIZES
        cycles = min(cycles, 6)
    results: List[Dict[str, object]] = []
    for nodes in sizes:
        scenario = _bench_scenario(nodes, seed)
        run = _run_cycles(scenario, cycles)
        results.append(
            {
                "nodes": nodes,
                "jobs": scenario.job_count,
                "place_ms": statistics.median(run["timings"]) * 1000.0,
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "seed": seed,
        "cycles": cycles,
        "results": results,
    }


def profile_bench(
    nodes: Optional[int] = None, cycles: int = 12, seed: int = 7
) -> str:
    """Per-phase span breakdown of ``place()`` at one rung.

    Runs the benchmark workload at ``nodes`` (default: the largest
    ladder rung) with a :class:`~repro.obs.spans.SpanProfiler` attached
    and returns the rendered profile — the ``apc.place`` tree split
    into the :data:`~repro.core.apc.SPAN_PHASES` children, aggregated
    over all cycles.  Backs ``repro bench --profile``.
    """
    if nodes is None:
        nodes = max(DEFAULT_SIZES)
    profiler = SpanProfiler()
    scenario = _bench_scenario(nodes, seed)
    _run_cycles(scenario, cycles, profiler=profiler)
    header = (
        f"APC phase profile: {nodes} nodes, {scenario.job_count} jobs, "
        f"{cycles} cycles"
    )
    return header + "\n" + render_profile(profiler)


def validate_bench_report(report: Dict[str, object]) -> List[str]:
    """Schema check for a benchmark report; returns a list of problems
    (empty = valid).  Used by the CI smoke job."""
    problems: List[str] = []
    if report.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {report.get('schema')!r}, want {BENCH_SCHEMA!r}")
    for key, kind in (("quick", bool), ("seed", int), ("cycles", int)):
        if not isinstance(report.get(key), kind):
            problems.append(f"{key!r} missing or not {kind.__name__}")
    rows = report.get("results")
    if not isinstance(rows, list) or not rows:
        problems.append("'results' missing or empty")
        return problems
    for i, row in enumerate(rows):
        for key, kind in (
            ("nodes", int),
            ("jobs", int),
            ("place_ms", (int, float)),
        ):
            if not isinstance(row.get(key), kind):
                problems.append(f"results[{i}].{key} missing or wrong type")
    return problems


def write_bench_report(
    report: Dict[str, object], path: str = "BENCH_apc.json"
) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def compare_bench_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance_pct: float = 25.0,
) -> List[str]:
    """Regression check: current vs stored baseline report.

    Compares the median ``place()`` latency (``place_ms``) per cluster
    size; a size regresses when the current median exceeds the baseline
    median by more than ``tolerance_pct`` percent.  Sizes present in
    only one report are reported as coverage notes, not regressions
    (the ladder may legitimately change between runs); a *quick*
    current run is a deliberate subset of the full ladder, so baseline
    sizes it never attempts are not flagged at all.  A baseline written
    under another schema is one failing line that names both schemas.
    Returns human-readable regression lines (empty = pass) — the CI
    perf gate exits nonzero on any.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        return [
            f"baseline schema is {baseline.get('schema')!r}, want "
            f"{BENCH_SCHEMA!r}; regenerate it with repro bench --out"
        ]
    factor = 1.0 + tolerance_pct / 100.0
    base_by_nodes = {
        row["nodes"]: row for row in baseline.get("results", [])
        if isinstance(row, dict) and "nodes" in row
    }
    regressions: List[str] = []
    seen = set()
    for row in current.get("results", []):
        nodes = row.get("nodes")
        seen.add(nodes)
        base = base_by_nodes.get(nodes)
        if base is None:
            continue  # new ladder rung; nothing to compare against
        cur_ms = float(row["place_ms"])
        base_ms = float(base["place_ms"])
        if base_ms > 0 and cur_ms > base_ms * factor:
            regressions.append(
                f"{nodes} nodes: place() median "
                f"{cur_ms:.1f}ms vs baseline {base_ms:.1f}ms "
                f"(+{(cur_ms / base_ms - 1.0) * 100.0:.0f}%, "
                f"tolerance {tolerance_pct:g}%)"
            )
    missing = sorted(n for n in base_by_nodes if n not in seen)
    if missing and not current.get("quick"):
        regressions.append(
            "baseline sizes not measured in the current run: "
            + ", ".join(str(n) for n in missing)
        )
    return regressions


def format_bench_report(report: Dict[str, object]) -> str:
    lines = [f"APC place() scaling (median over {report['cycles']} cycles)"]
    lines.append(f"{'nodes':>6} {'jobs':>6} {'place()':>10}")
    for row in report["results"]:
        lines.append(
            f"{row['nodes']:>6} {row['jobs']:>6} {row['place_ms']:>8.1f}ms"
        )
    return "\n".join(lines)


__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_SIZES",
    "QUICK_SIZES",
    "bench_apc_scale",
    "compare_bench_reports",
    "profile_bench",
    "validate_bench_report",
    "write_bench_report",
    "format_bench_report",
]
