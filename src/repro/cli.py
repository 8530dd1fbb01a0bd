"""Command-line interface: run the paper's experiments from a shell.

Installed as the ``repro`` console script::

    repro illustrative                 # Table 1 / Figure 1
    repro exp1 --scale small           # Table 2 / Figure 2
    repro exp2 --interarrivals 400 100 # Figures 3-5
    repro exp3 --chart                 # Figures 6-7
    repro ablations sampling           # design-choice studies
    repro telemetry --jsonl t.jsonl    # span profile + registry + stream
    repro explain t.jsonl --cycle 3    # decision narrative for one cycle
    repro report t.jsonl --out r.html  # self-contained HTML run report
    repro watch runs/sweep1            # live sweep control tower

Every experiment subcommand accepts ``--scale`` (tiny/small/half/paper)
and ``--seed``; series-producing ones accept ``--chart`` (render text
charts) and ``--export-json PATH`` (dump raw metrics).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import common
from repro.experiments.common import SCALES, format_table, percent


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="experiment scale (default: REPRO_BENCH_SCALE or 'small')",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _resolve_scale(args) -> common.Scale:
    if args.scale is not None:
        return SCALES[args.scale]
    return common.scale_from_env()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_illustrative(args) -> int:
    from repro.experiments.illustrative import render, run_illustrative_example

    results = run_illustrative_example()
    print(render(results))
    return 0


def cmd_exp1(args) -> int:
    from repro.experiments.experiment1 import run_experiment_one

    scale = _resolve_scale(args)
    result = run_experiment_one(scale=scale, seed=args.seed)
    print(f"scale: {scale.name} ({scale.nodes} nodes, {scale.job_count} jobs)")
    print(f"peak hypothetical relative performance: "
          f"{result.peak_hypothetical:.3f} (paper: 0.63)")
    print(f"deadline satisfaction: {percent(result.deadline_satisfaction)}")
    print(f"placement changes: {result.placement_changes} (paper: 0)")
    shift = result.series_time_shift()
    if shift is not None:
        print(f"hypothetical->completion series shift: {shift:.0f}s "
              f"(paper: ~18,000s at paper scale)")
    print(f"mean decision time: {result.mean_decision_seconds * 1e3:.1f} ms/cycle")
    if args.chart:
        from repro.experiments.plotting import figure2_chart

        print()
        print(figure2_chart(result.hypothetical_series, result.completion_series))
    if args.export_json:
        from repro.sim.export import metrics_to_json

        metrics_to_json(result.metrics, args.export_json)
        print(f"metrics written to {args.export_json}")
    return 0


def cmd_exp2(args) -> int:
    from repro.experiments.experiment2 import run_experiment_two

    scale = _resolve_scale(args)
    interarrivals = tuple(args.interarrivals)
    result = run_experiment_two(
        scale=scale, interarrivals=interarrivals, seed=args.seed
    )
    print(f"scale: {scale.name} ({scale.nodes} nodes, {scale.job_count} jobs)")
    print("\nFigure 3 — % of jobs that met the deadline")
    print(format_table(["inter-arrival(s)", "FCFS", "EDF", "APC"],
                       result.satisfaction_table()))
    print("\nFigure 4 — placement changes")
    print(format_table(["inter-arrival(s)", "FCFS", "EDF", "APC"],
                       result.changes_table()))
    print("\nFigure 5 — deadline distance by goal factor (min/mean/max, s)")
    rows = []
    for run in result.runs:
        for factor in sorted(run.distances):
            d = run.distances[factor]
            rows.append([
                int(run.paper_interarrival), run.policy, f"{factor:.1f}x",
                f"{min(d):,.0f}", f"{sum(d)/len(d):,.0f}", f"{max(d):,.0f}",
            ])
    print(format_table(["ia(s)", "policy", "goal", "min", "mean", "max"], rows))
    return 0


def cmd_exp3(args) -> int:
    from repro.experiments.experiment3 import run_experiment_three

    scale = _resolve_scale(args)
    result = run_experiment_three(scale=scale, seed=args.seed)
    print(f"scale: {scale.name} ({scale.nodes} nodes, {scale.job_count} jobs)")
    rows = []
    for key, cfg in result.configurations.items():
        rows.append([
            cfg.name,
            f"{cfg.min_txn_utility():.3f}..{cfg.max_txn_utility():.3f}",
            f"{cfg.mean_abs_utility_gap():.3f}",
            percent(cfg.deadline_satisfaction),
        ])
    print(format_table(
        ["configuration", "TX rel.perf range", "mean |TX-LR| gap",
         "batch deadline satisfaction"],
        rows,
    ))
    if args.chart:
        from repro.experiments.plotting import figure6_chart, figure7_chart

        for cfg in result.configurations.values():
            print()
            print(figure6_chart(
                cfg.txn_utility_series, cfg.batch_utility_series, cfg.name
            ))
            print()
            print(figure7_chart(cfg.allocation_series, cfg.name))
    if args.export_json:
        from repro.sim.export import metrics_to_json

        metrics_to_json(result.dynamic.metrics, args.export_json)
        print(f"dynamic-configuration metrics written to {args.export_json}")
    return 0


def cmd_workload(args) -> int:
    from repro.workloads.generators import experiment_one_jobs, experiment_two_jobs
    from repro.workloads.traces import write_job_trace

    if args.kind == "exp1":
        jobs = experiment_one_jobs(
            count=args.count, mean_interarrival=args.interarrival, seed=args.seed
        )
    else:
        jobs = experiment_two_jobs(
            count=args.count, mean_interarrival=args.interarrival, seed=args.seed
        )
    text = write_job_trace(jobs, args.out)
    if args.out:
        print(f"{len(jobs)} jobs written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_plan(args) -> int:
    from repro.analysis import minimum_nodes_for_batch, profile_workload
    from repro.cluster import Cluster, NodeSpec
    from repro.workloads.traces import read_job_trace

    jobs = read_job_trace(args.trace)
    spec = NodeSpec(
        cpu_capacity=args.node_cpu,
        memory_capacity=args.node_memory,
        cpu_per_processor=args.cpu_per_processor or args.node_cpu,
    )
    probe = Cluster.homogeneous(
        max(args.max_nodes, 1),
        cpu_capacity=spec.cpu_capacity,
        memory_capacity=spec.memory_capacity,
        cpu_per_processor=spec.cpu_per_processor,
    )
    profile = profile_workload(jobs, probe)
    print(f"jobs: {profile.job_count}; total work: "
          f"{profile.total_work_mcycles:,.0f} Mcycles")
    print(f"mean offered load: {profile.mean_offered_mhz:,.0f} MHz over "
          f"{profile.last_submit - profile.first_submit:,.0f}s")
    plan = minimum_nodes_for_batch(
        jobs, spec,
        target_satisfaction=args.target,
        max_nodes=args.max_nodes,
        policy=args.policy,
    )
    print(f"minimum nodes for {percent(args.target)} on-time ({args.policy}): "
          f"{plan.nodes} (measured {percent(plan.deadline_satisfaction)}, "
          f"{plan.evaluations} probe simulations)")
    return 0


def _bad_flaky_node(entry: str) -> int:
    print(f"--flaky-node expects NAME=MULTIPLIER, got {entry!r}",
          file=sys.stderr)
    return 2


def cmd_faults(args) -> int:
    from repro.errors import ConfigurationError
    from repro.experiments.experiment1 import run_experiment_one
    from repro.sim.monitoring import ActuatorHealthMonitor
    from repro.virt.actions import ActionType
    from repro.virt.faults import ActionFaultModel, FaultSpec, RetryPolicy

    scale = _resolve_scale(args)
    flakiness = {}
    for entry in args.flaky_node:
        name, sep, mult = entry.partition("=")
        if not sep:
            return _bad_flaky_node(entry)
        try:
            flakiness[name] = float(mult)
        except ValueError:
            return _bad_flaky_node(entry)
    actions = (
        list(ActionType) if args.action == "all" else [ActionType(args.action)]
    )
    try:
        spec = FaultSpec(
            failure_probability=args.fail_prob,
            stall_probability=args.stall_prob,
            stall_duration_mean=args.stall_mean,
        )
        model = ActionFaultModel(
            specs={a: spec for a in actions},
            node_flakiness=flakiness,
            seed=args.seed,
        )
        retry = RetryPolicy(
            max_attempts=args.max_attempts, base_delay=args.base_delay
        )
    except ConfigurationError as exc:
        print(f"invalid fault configuration: {exc}", file=sys.stderr)
        return 2
    result = run_experiment_one(
        scale=scale,
        seed=args.seed,
        fault_model=model,
        retry_policy=retry,
        action_timeout=args.timeout,
    )
    faults = result.metrics.faults
    print(f"scale: {scale.name} ({scale.nodes} nodes, {scale.job_count} jobs)")
    print(f"fault model: {args.action} actions, "
          f"fail={percent(args.fail_prob)} stall={percent(args.stall_prob)}")
    print(f"deadline satisfaction: {percent(result.deadline_satisfaction)}")
    print(f"placement changes: {result.placement_changes}")
    print()
    actions_seen = sorted(set(faults.attempts) | set(faults.failures))
    rows = [
        [
            action,
            faults.attempts.get(action, 0),
            faults.successes.get(action, 0),
            faults.failures.get(action, 0),
            faults.retries.get(action, 0),
            faults.abandoned.get(action, 0),
            faults.superseded.get(action, 0),
        ]
        for action in actions_seen
    ]
    print(format_table(
        ["action", "attempts", "ok", "failed", "retried", "abandoned",
         "superseded"],
        rows,
    ))
    if faults.reconcile_times:
        print(f"mean time to reconcile: "
              f"{faults.mean_time_to_reconcile():,.1f}s "
              f"over {len(faults.reconcile_times)} recovered actions")
    print(ActuatorHealthMonitor(faults).report().render())
    return 0


def exclusive_phase_times(bucket) -> dict:
    """Seconds per span name in one ``SpanProfiler.breakdowns`` bucket,
    each path's time minus that of its direct child paths.  A phase nested
    in another (an evaluation inside admission) counts only under its own
    name, so the values add up to the anchor's time."""
    times: dict = {}
    for path, stats in bucket.items():
        parent, _, name = path.rpartition("/")
        times[name] = times.get(name, 0.0) + stats.total
        if parent:
            # Parents are recorded before their children.
            parent_name = parent.rpartition("/")[2]
            times[parent_name] -= stats.total
    return times


def render_phase_table(profiler, cycles: int) -> str:
    """The first ``cycles`` control cycles' APC phase times, in ms.

    Every column is exclusive time, and ``self`` is ``apc.place``'s own,
    so each row's columns add up to its ``total``.
    """
    from repro.core.apc import SPAN_PHASES

    buckets = [
        exclusive_phase_times(bucket)
        for bucket in profiler.breakdowns("apc.place")
    ]
    shown = buckets[:cycles]
    seen = {name for bucket in shown for name in bucket} | {
        "apc.model_specs", "apc.admission", "apc.search",
        "apc.loadbalance", "apc.predict", "apc.objective",
    }
    seen.discard("apc.place")
    phases = [p for p in SPAN_PHASES if p in seen]
    phases += sorted(seen - set(phases))
    rows = []
    for i, times in enumerate(shown):
        rows.append(
            [i, f"{sum(times.values()) * 1e3:.2f}"]
            + [f"{times.get(p, 0.0) * 1e3:.2f}" for p in phases]
            + [f"{times['apc.place'] * 1e3:.2f}"]
        )
    return (
        f"per-cycle APC phase breakdown, exclusive times "
        f"(first {len(shown)} of {len(buckets)} cycles, ms):\n"
        + format_table(
            ["cycle", "total"] + [p.split(".", 1)[1] for p in phases] + ["self"],
            rows,
        )
    )


def cmd_telemetry(args) -> int:
    """Run a scenario with the full telemetry layer attached and report
    the per-cycle APC phase breakdown, registry dump, and JSONL stream."""
    from repro.errors import ConfigurationError
    from repro.experiments.experiment1 import run_experiment_one
    from repro.obs import (
        DecisionAudit,
        JobTracer,
        JsonlSink,
        MetricRegistry,
        SpanProfiler,
        render_profile,
        render_prometheus,
        validate_jsonl,
    )
    from repro.sim.trace import SimulationTrace

    scale = _resolve_scale(args)
    profiler = SpanProfiler()
    registry = MetricRegistry()
    sink = None
    if args.jsonl:
        sink = JsonlSink(args.jsonl, scale=scale.name, seed=args.seed)
    trace = SimulationTrace(sink=sink)
    audit = None
    if args.audit:
        audit = DecisionAudit(sink=sink, trace=trace)
    tracer = None
    if args.trace:
        tracer = JobTracer(sink=sink)
    alerts = None
    if args.alerts:
        from repro.obs import AlertConfig

        alerts = AlertConfig()

    fault_model = None
    if args.fail_prob > 0.0:
        from repro.virt.actions import ActionType
        from repro.virt.faults import ActionFaultModel, FaultSpec

        try:
            spec = FaultSpec(failure_probability=args.fail_prob)
            fault_model = ActionFaultModel(
                specs={a: spec for a in ActionType}, seed=args.seed
            )
        except ConfigurationError as exc:
            print(f"invalid fault configuration: {exc}", file=sys.stderr)
            return 2

    result = run_experiment_one(
        scale=scale,
        seed=args.seed,
        profiler=profiler,
        registry=registry,
        trace=trace,
        fault_model=fault_model,
        audit=audit,
        alerts=alerts,
        tracer=tracer,
    )
    print(f"scale: {scale.name} ({scale.nodes} nodes, {scale.job_count} jobs)")
    print(f"deadline satisfaction: {percent(result.deadline_satisfaction)}; "
          f"placement changes: {result.placement_changes}")
    if audit is not None:
        print(f"decision audit: {len(audit)} records over "
              f"{len(audit.cycles())} cycles"
              + (f" ({audit.dropped_records} dropped)"
                 if audit.dropped_records else ""))
    if tracer is not None:
        print(f"causal tracer: {len(tracer)} trace events"
              + (f" ({tracer.dropped_records} dropped)"
                 if tracer.dropped_records else ""))
    if alerts is not None:
        # The watchdog publishes into the registry we already hold.
        totals = registry.get("repro_alerts_total")
        fired = resolved = 0
        per_rule = {}
        if totals is not None:
            for labels, child in totals.children():
                if labels.get("event") == "fired":
                    fired += int(child.value)
                    per_rule[labels.get("rule", "?")] = int(child.value)
                elif labels.get("event") == "resolved":
                    resolved += int(child.value)
        print(f"SLO watchdog: {fired} alert(s) fired, {resolved} resolved"
              + (" — " + ", ".join(f"{r}={n}" for r, n in sorted(per_rule.items()))
                 if per_rule else ""))

    print(f"\n{render_phase_table(profiler, args.cycles)}")

    print("\naggregate span profile:")
    print(render_profile(profiler))

    trace_summary = trace.summary()
    print(f"\ntrace: {trace_summary['retained_events']} events retained, "
          f"{trace_summary['dropped_events']} dropped")

    if args.registry:
        print("\n# registry dump (Prometheus text exposition)")
        print(render_prometheus(registry), end="")

    if sink is not None:
        for record in profiler.records:
            sink.span(record.as_dict())
        sink.metrics(registry.collect())
        sink.close()
        count = validate_jsonl(args.jsonl)
        print(f"\n{count} schema-valid JSONL records written to {args.jsonl}")
    return 0


def cmd_explain(args) -> int:
    """Reconstruct one cycle's placement-decision narrative from a
    recorded audit JSONL stream (no re-simulation)."""
    from repro.errors import ConfigurationError
    from repro.obs import explain_cycle

    try:
        print(explain_cycle(args.jsonl, args.cycle, app=args.app, job=args.job))
    except (ConfigurationError, OSError) as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_trace(args) -> int:
    """Reconstruct causal job traces from a recorded JSONL stream:
    per-trace summary or one subject's waterfall, with optional JSON
    and Chrome trace-event export."""
    import json as _json

    from repro.errors import ConfigurationError
    from repro.obs import read_trace_records
    from repro.obs.tracing import (
        critical_path,
        group_traces,
        render_trace,
        write_chrome_trace,
    )

    try:
        records = read_trace_records(args.jsonl)
    except (ConfigurationError, OSError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2
    if args.chrome:
        count = write_chrome_trace(records, args.chrome)
        # Keep stdout pure JSON under --json (CI round-trips it).
        out = sys.stderr if args.json else sys.stdout
        print(f"{count} Chrome trace events written to {args.chrome}", file=out)
    try:
        if args.json:
            paths = [
                critical_path(events)
                for events in group_traces(records).values()
            ]
            if args.job is not None:
                paths = [p for p in paths if p["subject"] == args.job]
                if not paths:
                    raise ConfigurationError(
                        f"no trace found for subject {args.job!r}"
                    )
            print(_json.dumps(paths, indent=2, sort_keys=True))
        else:
            print(render_trace(records, job=args.job))
    except ConfigurationError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    """Render a recorded telemetry JSONL stream as a self-contained
    HTML report (inline CSS/JS/SVG, no network access)."""
    from repro.errors import ConfigurationError
    from repro.obs import write_report

    try:
        out = write_report(args.jsonl, args.out, title=args.title)
    except (ConfigurationError, OSError) as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 2
    print(f"report written to {out}")
    return 0


def cmd_bench(args) -> int:
    """Benchmark APC ``place()`` latency up a ladder of cluster sizes."""
    from repro.experiments.benchmark import (
        bench_apc_scale,
        format_bench_report,
        validate_bench_report,
        write_bench_report,
    )

    kwargs = dict(cycles=args.cycles, seed=args.seed, quick=args.quick)
    if args.sizes:
        kwargs["sizes"] = tuple(args.sizes)
    report = bench_apc_scale(**kwargs)
    print(format_bench_report(report))
    if args.profile:
        from repro.experiments.benchmark import profile_bench

        sizes = [row["nodes"] for row in report["results"]]
        print()
        print(
            profile_bench(
                nodes=max(sizes), cycles=args.cycles, seed=args.seed
            )
        )
    problems = validate_bench_report(report)
    if args.out:
        write_bench_report(report, args.out)
        print(f"report written to {args.out}")
    if problems:
        for problem in problems:
            print(f"invalid report: {problem}", file=sys.stderr)
        return 1
    if args.baseline:
        import json

        from repro.experiments.benchmark import compare_bench_reports

        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        regressions = compare_bench_reports(
            report, baseline, tolerance_pct=args.tolerance
        )
        if regressions:
            for line in regressions:
                print(f"perf regression: {line}", file=sys.stderr)
            if args.check:
                return 1
        else:
            print(f"no regressions vs {args.baseline} "
                  f"(tolerance {args.tolerance:g}%)")
    elif args.check:
        print("--check needs --baseline BENCH_apc.json", file=sys.stderr)
        return 2
    return 0


def cmd_watch(args) -> int:
    """Live control tower for a checkpointed sweep run directory."""
    from repro.errors import CheckpointError
    from repro.experiments.watch import watch_loop

    try:
        watch_loop(
            args.run_dir,
            interval=args.interval,
            once=args.once,
            stale_after=args.stale_after,
        )
    except CheckpointError as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    """Run a batch of RunSpecs (JSON file) across worker processes."""
    import json

    from repro.errors import CheckpointError, ConfigurationError
    from repro.experiments.runner import run_sweep

    if args.resume is None and args.config is None:
        print("sweep needs a config file (or --resume DIR)", file=sys.stderr)
        return 2
    specs = None
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        specs = data["specs"] if isinstance(data, dict) else data
    try:
        result = run_sweep(
            specs,
            workers=args.workers,
            run_dir=args.resume if args.resume is not None else args.run_dir,
            resume=args.resume is not None,
            spec_timeout=args.timeout,
            max_attempts=1 + args.retries,
        )
    except (CheckpointError, ConfigurationError) as exc:
        print(f"sweep checkpoint error: {exc}", file=sys.stderr)
        return 2
    failed = len(result.failures("failed"))
    crashed = len(result.failures("crashed"))
    ok = len(result) - failed - crashed
    print(
        f"{len(result)} runs on {result.workers} worker(s): {ok} ok, "
        f"{failed} failed, {crashed} crashed, {result.total_retries} retries"
    )
    for summary in result:
        if summary.get("ok"):
            status = "ok"
        elif summary.get("crashed"):
            status = f"CRASHED: {summary.get('error')}"
        else:
            status = f"FAILED: {summary.get('error')}"
        print(f"  {summary['name']} [{summary['kind']}] {status}")
    merged = result.merged_metrics()
    if merged:
        print("merged counters:")
        for key in sorted(merged):
            print(f"  {key} = {merged[key]:g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"summaries written to {args.out}")
    return 1 if result.failures() else 0


def cmd_arena(args) -> int:
    """Tournament: run several named policies over shared scenarios."""
    import json

    from repro.errors import CheckpointError, ConfigurationError
    from repro.experiments.arena import run_arena, render_arena_table
    from repro.scenario import Scenario

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    try:
        scenarios = [
            Scenario(
                name=workload,
                nodes=args.nodes,
                workload=workload,
                job_count=args.jobs,
                interarrival=args.interarrival,
                seed=args.seed,
            )
            for workload in workloads
        ]
        result = run_arena(
            policies,
            scenarios,
            workers=args.workers,
            run_dir=args.resume if args.resume is not None else args.run_dir,
            resume=args.resume is not None,
        )
    except (CheckpointError, ConfigurationError) as exc:
        print(f"arena error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        rows = [
            {k: v for k, v in row.items() if k != "runs"}
            for row in result.rankings
        ]
        print(json.dumps({
            "policies": policies,
            "scenarios": [s.name for s in result.scenarios],
            "rankings": rows,
        }, indent=2))
    else:
        print(
            f"{len(result.entrants)} policies x "
            f"{len(result.scenarios)} scenarios "
            f"({result.sweep.workers} worker(s))\n"
        )
        print(render_arena_table(result))
    return 1 if result.sweep.failures() else 0


def cmd_ablations(args) -> int:
    from repro.experiments import ablations

    scale = _resolve_scale(args)
    which = args.study
    if which in ("sampling", "all"):
        rows = ablations.run_sampling_ablation(seed=args.seed)
        print("\nA1 — sampling resolution (interpolation vs exact)")
        print(format_table(
            ["R", "max |err|", "mean |err|"],
            [[r.resolution, f"{r.max_interpolation_error:.4f}",
              f"{r.mean_interpolation_error:.4f}"] for r in rows],
        ))
    if which in ("cycle", "all"):
        rows = ablations.run_cycle_length_ablation(scale=scale, seed=args.seed)
        print("\nA2 — control cycle length")
        print(format_table(
            ["T (s)", "deadline satisfaction", "changes"],
            [[int(r.cycle_length), percent(r.deadline_satisfaction),
              r.placement_changes] for r in rows],
        ))
    if which in ("costs", "all"):
        rows = ablations.run_cost_model_ablation(scale=scale, seed=args.seed)
        print("\nA3 — placement-action costs")
        print(format_table(
            ["cost model", "deadline satisfaction", "changes"],
            [[r.cost_model, percent(r.deadline_satisfaction),
              r.placement_changes] for r in rows],
        ))
    if which in ("prediction", "all"):
        rows = ablations.run_prediction_method_ablation(scale=scale, seed=args.seed)
        print("\nA4 — prediction method (exact vs interpolate)")
        print(format_table(
            ["method", "deadline satisfaction", "changes"],
            [[r.method, percent(r.deadline_satisfaction),
              r.placement_changes] for r in rows],
        ))
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Carrera et al. (MIDDLEWARE 2008) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("illustrative", help="Table 1 / Figure 1 (§4.3)")
    p.set_defaults(func=cmd_illustrative)

    p = sub.add_parser("exp1", help="Table 2 / Figure 2 (§5.1)")
    _add_common(p)
    p.add_argument("--chart", action="store_true", help="render a text chart")
    p.add_argument("--export-json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_exp1)

    p = sub.add_parser("exp2", help="Figures 3-5 (§5.2)")
    _add_common(p)
    p.add_argument(
        "--interarrivals",
        type=float,
        nargs="+",
        default=[400.0, 200.0, 100.0],
        help="paper-scale inter-arrival times to sweep (s)",
    )
    p.set_defaults(func=cmd_exp2)

    p = sub.add_parser("exp3", help="Figures 6-7 (§5.3)")
    _add_common(p)
    p.add_argument("--chart", action="store_true", help="render text charts")
    p.add_argument("--export-json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_exp3)

    p = sub.add_parser("workload", help="generate a job-trace CSV")
    p.add_argument("kind", choices=["exp1", "exp2"])
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--interarrival", type=float, default=260.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("plan", help="capacity-plan a cluster for a job trace")
    p.add_argument("trace", help="job-trace CSV (see 'repro workload')")
    p.add_argument("--node-cpu", type=float, default=4 * 3900.0)
    p.add_argument("--node-memory", type=float, default=16 * 1024.0)
    p.add_argument("--cpu-per-processor", type=float, default=3900.0)
    p.add_argument("--target", type=float, default=0.95)
    p.add_argument("--max-nodes", type=int, default=64)
    p.add_argument("--policy", choices=["APC", "FCFS"], default="APC")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "faults",
        help="Experiment One under a fallible actuator (fault injection)",
    )
    _add_common(p)
    p.add_argument("--fail-prob", type=float, default=0.1,
                   help="per-attempt immediate failure probability")
    p.add_argument("--stall-prob", type=float, default=0.0,
                   help="per-attempt stall probability")
    p.add_argument("--stall-mean", type=float, default=60.0,
                   help="mean stall duration (s)")
    p.add_argument(
        "--action",
        choices=["boot", "suspend", "resume", "migrate", "all"],
        default="all",
        help="which action type(s) the fault model targets",
    )
    p.add_argument("--max-attempts", type=int, default=3,
                   help="attempt budget per action before abandoning")
    p.add_argument("--base-delay", type=float, default=10.0,
                   help="base retry backoff (s)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="stall detection timeout (s)")
    p.add_argument(
        "--flaky-node", metavar="NAME=MULT", action="append", default=[],
        help="flakiness multiplier for one node (repeatable)",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "telemetry",
        help="run a scenario with span profiling, metrics registry, and "
             "JSONL streaming attached",
    )
    _add_common(p)
    p.add_argument("--jsonl", metavar="PATH", default=None,
                   help="stream events/spans/metrics to PATH as JSON lines")
    p.add_argument("--registry", action="store_true",
                   help="print the Prometheus text-exposition registry dump")
    p.add_argument("--cycles", type=int, default=5,
                   help="per-cycle breakdown rows to print (default 5)")
    p.add_argument("--fail-prob", type=float, default=0.0,
                   help="optional fault injection so action series are "
                        "non-zero (per-attempt failure probability)")
    p.add_argument("--audit", action="store_true",
                   help="attach the decision flight recorder (audit "
                        "records stream to --jsonl when given)")
    p.add_argument("--alerts", action="store_true",
                   help="arm the live SLO watchdog (alert records stream "
                        "to --jsonl when given)")
    p.add_argument("--trace", action="store_true",
                   help="attach the causal job tracer (trace events "
                        "stream to --jsonl when given)")
    p.set_defaults(func=cmd_telemetry)

    p = sub.add_parser(
        "explain",
        help="reconstruct one cycle's placement decision from a recorded "
             "audit JSONL stream",
    )
    p.add_argument("jsonl", help="JSONL stream recorded with "
                                 "'repro telemetry --audit --jsonl PATH'")
    p.add_argument("--cycle", type=int, required=True,
                   help="control-cycle index to explain")
    p.add_argument("--app", default=None,
                   help="restrict the narrative to one application id")
    p.add_argument("--job", default=None,
                   help="append the job's causal-trace lifecycle section "
                        "(requires a stream recorded with --trace)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "trace",
        help="reconstruct causal job traces from a recorded JSONL stream "
             "(waterfall, wait decomposition, Chrome export)",
    )
    p.add_argument("jsonl", help="JSONL stream recorded with "
                                 "'repro telemetry --trace --jsonl PATH'")
    p.add_argument("--job", default=None,
                   help="render one subject's waterfall instead of the "
                        "all-traces summary table")
    p.add_argument("--json", action="store_true",
                   help="emit the critical-path decompositions as JSON")
    p.add_argument("--chrome", metavar="PATH", default=None,
                   help="also export a Chrome trace-event JSON file "
                        "(loads in Perfetto / chrome://tracing)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="render a telemetry JSONL stream as a self-contained HTML "
             "report",
    )
    p.add_argument("jsonl", help="recorded telemetry JSONL stream")
    p.add_argument("--out", metavar="PATH", default="report.html",
                   help="output HTML path (default report.html)")
    p.add_argument("--title", default=None, help="page title")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench",
        help="benchmark APC place() latency up a ladder of cluster sizes",
    )
    p.add_argument("--quick", action="store_true",
                   help="CI-smoke ladder (small sizes, few cycles)")
    p.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="node counts to benchmark "
                        "(default 10 25 50 100 200 500 1000 2000)")
    p.add_argument("--cycles", type=int, default=12,
                   help="control cycles per measurement (default 12)")
    p.add_argument("--profile", action="store_true",
                   help="after the ladder, print the per-phase span "
                        "breakdown (apc.* spans) at the largest rung")
    p.add_argument("--seed", type=int, default=7, help="workload seed")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the JSON report here (e.g. BENCH_apc.json)")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="compare against a stored report "
                        "(per-size median place() latency)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when the baseline comparison finds "
                        "a regression (perf gate)")
    p.add_argument("--tolerance", type=float, default=25.0,
                   help="allowed median slowdown vs baseline, percent "
                        "(default 25)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "sweep",
        help="run a JSON batch of experiment/scenario specs across workers",
    )
    p.add_argument("config", nargs="?", default=None,
                   help="JSON file: list of RunSpec dicts or "
                        "{'specs': [...]} (omit with --resume)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: min(len(specs), cores); "
                        "1 = inline)")
    p.add_argument("--run-dir", metavar="DIR", default=None,
                   help="checkpoint the sweep here (manifest + per-spec "
                        "results; survives SIGKILL)")
    p.add_argument("--resume", metavar="DIR", default=None,
                   help="continue a checkpointed sweep from DIR (completed "
                        "specs are not re-run)")
    p.add_argument("--timeout", type=float, default=None,
                   help="kill any pooled worker exceeding this many seconds "
                        "per attempt")
    p.add_argument("--retries", type=int, default=1,
                   help="seed-stable retries for crashed/timed-out workers "
                        "(default 1)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write summaries JSON here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "watch",
        help="live control tower for a checkpointed sweep "
             "(worker liveness, per-spec progress, firing alerts)",
    )
    p.add_argument("run_dir", help="sweep run directory "
                                   "(the --run-dir/--resume DIR)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen "
                        "clearing; scriptable)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh interval in seconds (default 2)")
    p.add_argument("--stale-after", type=float, default=30.0,
                   help="mark a worker stale after this many seconds "
                        "without a heartbeat (default 30)")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "arena",
        help="policy tournament: rank named policies on shared "
             "seeded scenarios",
    )
    p.add_argument("--policies", default="apc,fcfs,proportional_fairness,dfrs",
                   help="comma-separated policy names "
                        "(default: apc,fcfs,proportional_fairness,dfrs)")
    p.add_argument("--workloads", default="experiment1,experiment2",
                   help="comma-separated workload kinds, one scenario each "
                        "(default: experiment1,experiment2)")
    p.add_argument("--nodes", type=int, default=8,
                   help="cluster size per scenario (default 8)")
    p.add_argument("--jobs", type=int, default=60,
                   help="jobs per scenario (default 60)")
    p.add_argument("--interarrival", type=float, default=100.0,
                   help="mean seconds between submissions, paper terms "
                        "(default 100)")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: min(runs, cores); "
                        "1 = inline)")
    p.add_argument("--run-dir", metavar="DIR", default=None,
                   help="checkpoint the underlying sweep here")
    p.add_argument("--resume", metavar="DIR", default=None,
                   help="continue a checkpointed arena from DIR")
    p.add_argument("--json", action="store_true",
                   help="print machine-readable rankings JSON")
    p.set_defaults(func=cmd_arena)

    p = sub.add_parser("ablations", help="design-choice studies")
    _add_common(p)
    p.add_argument(
        "study",
        choices=["sampling", "cycle", "costs", "prediction", "all"],
        nargs="?",
        default="all",
    )
    p.set_defaults(func=cmd_ablations)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
