"""End-to-end simulator benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's timed window until ``--seconds`` of
wall time have passed (at least :data:`MIN_REPEATS` times) and reports the
end-to-end metrics; ``--trace 1`` adds one traced window and reports the
per-layer metrics instead.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
timed control cycles; every cycle of a window that raises or fails its
output check counts as failed.

The benchmark imports the program from ``src/`` of the checkout it sits
in and exits with status 2, printing no result, when it is not there.
"""

from __future__ import annotations

import os

# Single thread, as the workloads are defined: pin numpy's BLAS pool
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Fewest timed windows per run, whatever ``--seconds`` says: per-cycle
#: medians need at least three samples to drop one disturbed window.
MIN_REPEATS = 3
#: Cap on windows per run, so a tiny workload cannot loop for long.
MAX_REPEATS = 50
#: Fewest set-ups timed per run for the ``setup_s`` median; set-ups
#: beyond the windows' own are built and discarded.
MIN_SETUPS = 5
#: Host speed probes taken after each set-up.
SETUP_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("cycles_per_s", "1/s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("deadline_met_frac", "fraction"),
)


def _import_program():
    """Import the program from this checkout's ``src/``; ``None`` when it
    is not there (the benchmark must then fail, not measure something
    else)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return None
    return repro


def nearest_rank(values: List[float], percentile: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: List[float], percentile: float) -> int:
    """How many values lie above the nearest-rank percentile's rank."""
    return len(values) - max(1, math.ceil(percentile / 100.0 * len(values)))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Repeats one workload's window and accounts its checks."""

    def __init__(self, workload, seed: int) -> None:
        from perfbench import calibrate, workloads

        self.w = workloads
        self.calibrate = calibrate
        self.workload = workload
        self.seed = seed
        self.inputs = workload.inputs(seed)
        #: Raw set-up CPU seconds, and every host speed probe of the run.
        self.setups: List[float] = []
        self.probes: List[float] = []
        self.windows = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def repeat(self, seconds: float, min_repeats: int) -> None:
        start = time.perf_counter()
        while len(self.setups) < MAX_REPEATS:
            self.once()
            done = len(self.setups)
            if done >= min_repeats and time.perf_counter() - start >= seconds:
                break
        while len(self.setups) < MIN_SETUPS:
            self.set_up(False)

    def set_up(self, registry: bool):
        """One timed set-up, followed by host speed probes."""
        t0 = self.w.CLOCK()
        prep = self.workload.prepare(self.seed, self.inputs, registry)
        self.setups.append(self.w.CLOCK() - t0)
        self.probes.extend(self.calibrate.probe() for _ in range(SETUP_PROBES))
        return prep

    @property
    def scale(self) -> float:
        """Factor from this run's CPU seconds to reference seconds, from
        the median of all its probes.  One factor per run: the host's
        speed drifts over minutes, and a few probes per window would add
        their own noise."""
        return self.calibrate.REFERENCE_S / statistics.median(self.probes)

    def once(self, tracer=None):
        """Set up and run one window; returns it, or ``None`` on failure."""
        prep = self.set_up(tracer is not None)
        # Every window starts from a freshly collected heap, so the cyclic
        # collector's pauses fall on the same cycles in every repeat.
        gc.collect()
        try:
            if tracer is None:
                result = self.w.run_window(prep)
            else:
                with tracer.installed():
                    result = self.w.run_window(prep)
            self.w.close_stream(prep, result)
        except Exception:
            cycles = len(prep.simulator.metrics.cycles) - prep.first_cycle
            self.attempted += max(1, cycles)
            self.failed += max(1, cycles)
            self.problems.append(traceback.format_exc(limit=3).strip())
            return None
        self.probes.extend(result.probe_s)
        cycles = len(result.decision_s)
        self.attempted += cycles
        if self.windows and (
            result.fingerprint != self.windows[0].fingerprint
            or result.outcome != self.windows[0].outcome
        ):
            result.problems.append("simulated outcomes differ between runs of one seed")
        result.problems.extend(self.workload.check(result))
        if result.problems:
            self.failed += cycles
            self.problems.extend(result.problems)
        if tracer is None:
            self.windows.append(result)
        return result

    # ------------------------------------------------------------------
    # Robust figures over the repeated windows
    # ------------------------------------------------------------------
    def window_s(self) -> float:
        """Sum over the window's check chunks of each chunk's median time
        across repeats: a burst of host contention in one repeat moves
        one sample of one chunk, not the figure."""
        chunks = zip(*(w.chunk_cpu_s for w in self.windows))
        return sum(statistics.median(c) for c in chunks) * self.scale

    def cycle_decisions_ms(self) -> List[float]:
        """Each timed cycle's median decision time across repeats (ms)."""
        per_cycle = zip(*(w.decision_s for w in self.windows))
        scale = self.scale * 1e3
        return [statistics.median(c) * scale for c in per_cycle]

    def end_to_end(self) -> Dict[str, float]:
        decisions = self.cycle_decisions_ms()
        first = self.windows[0]
        return {
            "setup_s": statistics.median(self.setups) * self.scale,
            "cycles_per_s": len(decisions) / self.window_s(),
            "decision_ms_p50": statistics.median(decisions),
            "decision_ms_tail": nearest_rank(
                decisions, self.workload.tail_percentile
            ),
            "peak_rss_mb": peak_rss_mb(),
            "deadline_met_frac": first.outcome["deadline_met_frac"],
        }


def measure(workload, seed: int, seconds: float) -> Tuple[Runner, Dict[str, float]]:
    runner = Runner(workload, seed)
    runner.repeat(seconds, MIN_REPEATS)
    if not runner.windows:
        return runner, {}
    decisions = runner.cycle_decisions_ms()
    if beyond(decisions, workload.tail_percentile) < 10:
        runner.problems.append(
            f"p{workload.tail_percentile} leaves fewer than ten of "
            f"{len(decisions)} cycles above it"
        )
        runner.failed = runner.attempted
    return runner, runner.end_to_end()


def traced(workload, seed: int, seconds: float) -> Tuple[Runner, Dict[str, Tuple[float, str]]]:
    """At least two untraced windows for the baseline, then one traced
    window."""
    from perfbench.layers import LAYERS, LayerTracer
    from perfbench.workloads import CLOCK

    runner = Runner(workload, seed)
    runner.repeat(seconds / 2, 2)
    if not runner.windows:
        return runner, {}
    tracer = LayerTracer(CLOCK)
    result = runner.once(tracer)
    if result is None:
        return runner, {}
    summary = tracer.summary()
    # Layer times are reported in reference seconds, like the end-to-end
    # figures; the self-time identity is checked on the raw clock.
    scale = runner.scale
    # A process's first window runs slower while its heap grows, so the
    # baseline leaves it out.
    baseline = runner.windows[1:] or runner.windows
    untraced = statistics.median(sum(w.chunk_cpu_s) for w in baseline) * scale
    prep_registry = result.registry_counts
    cycles = len(result.decision_s)

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (summary.calls.get(layer, 0), "count")
        metrics[f"{layer}.total_s"] = (summary.total_s.get(layer, 0.0) * scale, "s")
        metrics[f"{layer}.self_s"] = (summary.self_s.get(layer, 0.0) * scale, "s")
    evaluations = tracer.evaluations
    memo = prep_registry.get("apc_cache", {})
    batch_cache = prep_registry.get("batch_eval_cache", {})
    faults = result.faults
    attempts = sum(faults["attempts"].values())
    successes = sum(faults["successes"].values())
    metrics.update({
        "sim.cycles": (cycles, "count"),
        "sim.events": (prep_registry.get("events_scheduled", 0), "count"),
        "sim.placement_changes": (result.outcome["placement_changes"], "count"),
        "apc.search_cycles": (tracer.search_cycles, "count"),
        "apc.evaluations": (evaluations, "count"),
        "apc.memo_hit_ratio": (_ratio(memo.get("hit", 0), memo.get("miss", 0)), "fraction"),
        "batch.eval_cache_hit_ratio": (
            _ratio(batch_cache.get("hit", 0), batch_cache.get("miss", 0)), "fraction"
        ),
        "txn.perf_mean": (result.outcome.get("txn_perf_mean", 0.0), "utility"),
        "reconcile.attempts": (attempts, "count"),
        "reconcile.retries": (sum(faults["retries"].values()), "count"),
        "reconcile.stalls": (sum(faults["stalls"].values()), "count"),
        "reconcile.success_ratio": (successes / attempts if attempts else 0.0, "fraction"),
        "obs.sink_records": (result.sink_records, "count"),
        "obs.sink_bytes": (result.sink_bytes, "B"),
        "obs.audit_records": (result.audit_records, "count"),
        "obs.tracer_events": (result.tracer_events, "count"),
        "trace.spans": (summary.spans, "count"),
        "trace.total_s": (summary.root_total_s * scale, "s"),
        "trace.self_sum_s": (summary.self_sum_s * scale, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_frac": (summary.root_total_s * scale / untraced - 1.0, "fraction"),
    })

    problems = []
    if not math.isclose(summary.self_sum_s, summary.root_total_s, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(
            f"layer self times sum to {summary.self_sum_s:.6f} s, "
            f"not the traced total {summary.root_total_s:.6f} s"
        )
    if workload.name == "overload" and tracer.search_cycles != cycles:
        problems.append(
            f"only {tracer.search_cycles} of {cycles} timed overload cycles "
            "entered the search"
        )
    if workload.name == "paper-steady" and tracer.search_cycles != 0:
        problems.append(
            f"{tracer.search_cycles} paper-steady cycles entered the search; "
            "§5.1's steady state never needs it"
        )
    if workload.name == "share":
        largest = summary.largest_under("apc.place")
        if largest != "loadbalance":
            problems.append(f"share: {largest}, not loadbalance, dominates apc.place")
    if problems:
        runner.problems.extend(problems)
        runner.failed += cycles
    tracer.write(ROOT / "perfbench" / "out" / f"{workload.name}-seed{seed}.spans.jsonl")
    return runner, metrics


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_program() is None:
        print(f"perfbench: the program is not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        runner, metrics = traced(workload, args.seed, args.seconds)
        shown = metrics
    else:
        runner, values = measure(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
        shown = {name: (values[name], units[name]) for name, _ in END_TO_END if name in values}
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    cycles = [len(w.decision_s) for w in runner.windows]
    print(f"workload {workload.name} seed {args.seed}: {len(runner.windows)} window(s) "
          f"of {cycles[0] if cycles else 0} cycles")
    for name, (value, unit) in shown.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = not runner.problems and bool(shown)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
