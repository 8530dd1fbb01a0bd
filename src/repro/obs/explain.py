"""Reconstruct a placement-decision narrative from recorded audit JSONL.

``repro explain --cycle N`` answers "why did the controller do that?"
for one control cycle — purely from the decision flight recorder's
records (:class:`~repro.obs.audit.DecisionAudit` via a
:class:`~repro.obs.sink.JsonlSink` stream, schema v3+), with no
re-simulation.  The narrative covers the utility vector before and
after, the hypothetical-RPF inputs of queued candidates (§4.2), the
LRPF-ordered greedy admission verdicts, every scored candidate with the
lexicographic comparison (§3.3) that accepted or rejected it, and —
when the run was recorded with the SLO watchdog armed — the alerts
firing during the explained cycle.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, IO, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.sink import (
    ALERT_RECORD_TYPES,
    TRACE_RECORD_TYPES,
    read_audit_records,
    read_jsonl,
)

Source = Union[str, Path, IO[str], List[Dict[str, object]]]


def _fmt_vector(values: List[float]) -> str:
    if not values:
        return "[]"
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _mentions(record: Dict[str, object], app: str) -> bool:
    if record.get("app") == app:
        return True
    utilities = record.get("utilities")
    if isinstance(utilities, dict) and app in utilities:
        return True
    fill = record.get("fill_order")
    return isinstance(fill, list) and app in fill


def _describe_comparison(comparison: Dict[str, object]) -> str:
    result = comparison.get("result")
    index = comparison.get("index")
    tol = comparison.get("tolerance")
    if result == 0 or index is None:
        return f"tie with the incumbent within tolerance {tol}"
    relation = "beats" if result == 1 else "loses to"
    return (
        f"{relation} the incumbent at sorted position {index} "
        f"({comparison.get('candidate'):.3f} vs "
        f"{comparison.get('incumbent'):.3f}, tolerance {tol})"
    )


def _describe_candidate(record: Dict[str, object]) -> List[str]:
    where = []
    if record.get("node") is not None:
        where.append(f"node {record['node']}")
    if record.get("removals") is not None:
        where.append(f"{record['removals']} removal(s)")
    head = f"{record['stage']} trial" + (f" ({', '.join(where)})" if where else "")
    verdict = "ACCEPTED" if record["accepted"] else f"rejected: {record['reason']}"
    lines = [f"{head} -> {verdict}"]
    comparison = record.get("comparison")
    if isinstance(comparison, dict):
        lines.append("  " + _describe_comparison(comparison))
    utilities = record.get("utilities")
    if isinstance(utilities, dict) and utilities:
        vec = _fmt_vector(sorted(utilities.values()))
        lines.append(f"  candidate utility vector: {vec}")
    if record.get("churn") is not None:
        lines.append(f"  placement changes vs. incumbent: {record['churn']}")
    fill = record.get("fill_order")
    if isinstance(fill, list) and fill:
        lines.append("  refill order (LRPF): " + ", ".join(fill))
    return lines


def explain_cycle(
    source: Source,
    cycle: int,
    app: Optional[str] = None,
    job: Optional[str] = None,
) -> str:
    """Render the decision narrative of one recorded control cycle.

    ``source`` is a JSONL path/stream or a parsed record list; ``app``
    restricts the narrative to records mentioning one application.
    ``job`` appends that job's causal-trace lifecycle (arrival through
    the latest recorded event, with its wait-time decomposition) —
    requires the run to have been recorded with a
    :class:`~repro.obs.tracing.JobTracer` attached.  Raises
    :class:`~repro.errors.ConfigurationError` when the stream has no
    audit records, no such cycle, or (with ``job``) no trace events for
    that job.
    """
    raw = source if isinstance(source, list) else read_jsonl(source)
    records = read_audit_records(raw)
    by_cycle: Dict[int, List[Dict[str, object]]] = {}
    for record in records:
        by_cycle.setdefault(int(record["cycle"]), []).append(record)
    if cycle not in by_cycle:
        known = sorted(by_cycle)
        if known == list(range(known[0], known[-1] + 1)):
            available = f"{known[0]}..{known[-1]}"
        else:
            available = ", ".join(str(c) for c in known)
        raise ConfigurationError(
            f"no audit records for cycle {cycle} (recorded cycles: {available})"
        )
    selected = by_cycle[cycle]
    if app is not None:
        selected = [r for r in selected if _mentions(r, app)]
        if not selected:
            raise ConfigurationError(
                f"no cycle-{cycle} audit records mention application {app!r}"
            )

    summary = next((r for r in selected if r["type"] == "audit_cycle"), None)
    rpf = [r for r in selected if r["type"] == "audit_rpf"]
    admissions = [r for r in selected if r["type"] == "audit_admission"]
    candidates = [r for r in selected if r["type"] == "audit_candidate"]

    lines: List[str] = []
    time = selected[0].get("time", 0.0)
    title = f"cycle {cycle} @ t={time:.1f}s"
    if app is not None:
        title += f" (filtered to {app!r})"
    lines.append(title)
    lines.append("=" * len(title))

    if summary is not None:
        before = _fmt_vector(summary["utilities_before"])
        after = _fmt_vector(summary["utilities_after"])
        lines.append(f"utility vector before: {before}")
        lines.append(f"utility vector after:  {after}")
        if summary["utilities_before"] and summary["utilities_after"]:
            delta = summary["utilities_after"][0] - summary["utilities_before"][0]
            lines.append(f"worst-app delta:       {delta:+.3f}")
        lines.append(
            "placement {} ({} candidate evaluation(s))".format(
                "CHANGED" if summary["changed"] else "unchanged",
                summary["evaluations"],
            )
        )

    if rpf:
        lines.append("")
        lines.append("queued candidates (hypothetical-RPF inputs, §4.2):")
        for record in rpf:
            lines.append(
                "  {}: max_utility={:.3f} saturation_cpu={:.0f}MHz "
                "min_cpu={:.0f}MHz memory={:.0f}MB{}".format(
                    record["app"],
                    record["max_utility"],
                    record.get("saturation_cpu", float("nan")),
                    record.get("min_cpu", float("nan")),
                    record.get("memory_mb", float("nan")),
                    " divisible" if record.get("divisible") else "",
                )
            )

    if admissions:
        lines.append("")
        lines.append("greedy admission (LRPF order):")
        for record in admissions:
            verdict = (
                "placed on " + ", ".join(record.get("nodes", []))
                if record["accepted"]
                else f"rejected: {record['reason']}"
            )
            lines.append(
                "  #{} {} (utility {:.3f}) -> {}".format(
                    record.get("lrpf_rank", "?"),
                    record["app"],
                    record.get("utility", float("nan")),
                    verdict,
                )
            )

    if candidates:
        lines.append("")
        lines.append("scored candidates:")
        for record in candidates:
            for line in _describe_candidate(record):
                lines.append("  " + line)

    active = _alerts_active_at(raw, cycle)
    if active:
        lines.append("")
        lines.append("alerts active during this cycle (SLO watchdog):")
        for rule, subject, severity in active:
            lines.append(f"  [{severity}] {rule} on {subject}")

    if job is not None:
        lines.extend(_job_lifecycle(raw, cycle, job))

    return "\n".join(lines)


def _job_lifecycle(records, cycle: int, job: str) -> List[str]:
    """Narrative lines for one job's causal trace (``--job`` section).

    Lists every recorded lifecycle event (admission verdicts flagged
    when they belong to the explained cycle — the ``cycle`` field in
    the event detail is the join key to the audit records above) and
    closes with the critical-path wait decomposition.
    """
    from repro.obs.tracing import SEGMENTS, critical_path

    events = [
        r
        for r in records
        if r.get("type") in TRACE_RECORD_TYPES and r.get("subject") == job
    ]
    if not events:
        raise ConfigurationError(
            f"no trace events for job {job!r} — was the run recorded "
            "with a JobTracer attached (repro telemetry --trace)?"
        )
    lines = ["", f"job {job} lifecycle (trace {events[0]['trace']}):"]
    for event in events:
        detail = event.get("detail", {})
        marker = " <- this cycle" if detail.get("cycle") == cycle else ""
        extras = ", ".join(
            f"{k}={v}" for k, v in sorted(detail.items()) if k != "cycle"
        )
        lines.append(
            "  t={:>10.1f}  {}{}{}".format(
                float(event["time"]),
                event["name"],
                f" ({extras})" if extras else "",
                marker,
            )
        )
    try:
        path = critical_path(events)
    except ConfigurationError:
        return lines  # capacity-evicted chain: events alone still help
    state = "complete" if path["complete"] else "still in flight"
    lines.append(f"  wait decomposition ({state}, {path['total']:.1f}s so far):")
    for segment in SEGMENTS:
        seconds = path["segments"].get(segment, 0.0)
        if seconds <= 0.0:
            continue
        fraction = seconds / path["total"] if path["total"] else 0.0
        lines.append(f"    {segment:<10} {seconds:>10.1f}s  {fraction:>6.1%}")
    return lines


def _alerts_active_at(records, cycle: int):
    """(rule, subject, severity) triples firing as of control cycle
    ``cycle`` — fired at or before it and not yet resolved by it.

    Replays the stream's fire/resolve sequence per (rule, subject); a
    stream recorded without the watchdog simply yields nothing.
    """
    state: Dict[tuple, str] = {}
    for record in records:
        if record.get("type") not in ALERT_RECORD_TYPES:
            continue
        if int(record.get("cycle", -1)) > cycle:
            continue
        key = (str(record.get("rule")), str(record.get("subject")))
        if record["type"] == "alert_fired":
            state[key] = str(record.get("severity", "warning"))
        else:
            state.pop(key, None)
    return sorted(
        (rule, subject, severity)
        for (rule, subject), severity in state.items()
    )


__all__ = ["explain_cycle"]
