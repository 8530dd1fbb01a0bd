"""End-to-end causal job tracing: lifecycle spans and wait analysis.

Every other observability surface is cycle-centric — the span profiler
times controller phases, the flight recorder explains one cycle's
verdicts, the watchdog fires on metric streaks.  None of them answer
"why did job J miss its deadline".  The :class:`JobTracer` does: it
assigns each batch job (and each transactional-app placement epoch) a
stable trace ID at arrival and threads parent/child span IDs through
every causally linked event — enqueue, each APC admission verdict, each
placement directive, every reconciler attempt/retry/stall/abandon,
suspend/resume, completion — so the full lifecycle of any job can be
reconstructed from the JSONL stream alone (``trace_event`` records,
schema v5).

On top of the raw trace this module ships the analysis surfaces:

* :func:`critical_path` — wait-time decomposition: where did the time
  between arrival and completion go (queue wait, admission rejections,
  provisioning, reconcile faults, suspension/migration downtime,
  execution).  Segments sum exactly to the end-to-end latency.
* :func:`to_chrome_trace` — Chrome trace-event JSON export; the output
  loads directly in Perfetto or ``chrome://tracing``.
* :func:`render_trace` — terminal waterfall + decomposition table
  (the ``repro trace`` subcommand).

Like every obs layer the tracer is strictly opt-in: nothing constructs
one by default, the simulator and the controller hand events only to
the observers attached to them, and simulations with tracing off are
byte-identical to pre-tracer output.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.sink import _jsonable

#: Wait-time decomposition segments, in waterfall display order.
#: ``queue``      — arrival until the first admission verdict.
#: ``admission``  — waiting after a rejected admission verdict.
#: ``provision``  — accepted but not yet running (boot/migration setup).
#: ``execution``  — running (includes actuation delay baked into speed).
#: ``suspended``  — suspended or mid-migration (migration downtime).
#: ``reconcile``  — waiting out action faults: retries, stalls, backoff.
SEGMENTS: Tuple[str, ...] = (
    "queue",
    "admission",
    "provision",
    "execution",
    "suspended",
    "reconcile",
)

#: Reconcile outcomes that park a trace in the ``reconcile`` segment.
_FAULT_OUTCOMES = frozenset({"fail", "retry", "stall", "abandon"})

#: The simulator events (``TraceEventKind`` values) the tracer records,
#: and what each does to the subject's trace: ``open`` starts a fresh
#: trace, ``extend`` adds a span to it, ``close`` adds the last span and
#: ends it.  Other kinds (cycle summaries, action faults, audit
#: decisions) belong to the text trace alone.
LIFECYCLE: Dict[str, str] = {
    "arrival": "open",
    "boot": "extend",
    "suspend": "extend",
    "resume": "extend",
    "migrate": "extend",
    "completion": "close",
}


class JobTracer:
    """Assigns trace/span IDs and records causally linked trace events.

    Each subject (a batch job, or a transactional app's placement epoch)
    gets a fresh trace ID when its lifecycle starts; every subsequent
    event gets a fresh span ID whose ``parent`` is the previous span in
    the same trace, so the chain arrival → … → completion reconstructs
    by following parent pointers.  IDs are counters — no clock, no
    randomness — so a restored simulation re-emits byte-identical IDs.

    Events stream to an attached :class:`~repro.obs.sink.JsonlSink` at
    emit time (``trace_event`` records, schema v5) and are retained in a
    bounded in-memory deque mirroring :class:`repro.sim.trace
    .SimulationTrace`'s capacity/drop-counter discipline.
    """

    def __init__(self, sink=None, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        #: Optional streaming sink (``repro.obs.sink.JsonlSink``).
        self.sink = sink
        self._records: Deque[Dict[str, object]] = deque(maxlen=capacity)
        #: subject -> its retained records, oldest first (the
        #: :meth:`history_of` index, trimmed as the ring evicts).
        self._by_subject: Dict[str, List[Dict[str, object]]] = {}
        self._dropped = 0
        self._next_trace = 0
        self._next_span = 0
        #: subject -> {"trace", "last" (span id), "kind", "placed"}
        self._active: Dict[str, Dict[str, object]] = {}
        self._time = 0.0
        self._cycle = -1

    # ------------------------------------------------------------------
    # Controller clock (mirrors DecisionAudit)
    # ------------------------------------------------------------------
    def begin_cycle(self, now: float) -> None:
        """Called by the APC at the top of ``place()`` so admission
        events carry the control-cycle number — the join key back to the
        flight recorder's ``audit_admission`` records."""
        self._cycle += 1
        self._time = now

    def resume_at(self, cycles_completed: int) -> None:
        """Re-align the cycle counter after restoring a snapshot that
        carries no serialized tracer state (tracer newly attached)."""
        self._cycle = cycles_completed - 1

    # ------------------------------------------------------------------
    # Emission core
    # ------------------------------------------------------------------
    def _start(self, subject: str, kind: str) -> Dict[str, object]:
        self._next_trace += 1
        state: Dict[str, object] = {
            "trace": f"T{self._next_trace:06d}",
            "last": "",
            "kind": kind,
            "placed": False,
        }
        self._active[subject] = state
        return state

    def _record(
        self, time: float, subject: str, name: str, detail: Dict[str, object]
    ) -> None:
        state = self._active.get(subject)
        if state is None:
            # Transactional apps have no arrival event; their epoch
            # trace starts lazily at the first event that names them.
            state = self._start(subject, "app")
        self._next_span += 1
        span = f"S{self._next_span:06d}"
        record: Dict[str, object] = {
            "time": time,
            "trace": state["trace"],
            "span": span,
            "parent": state["last"],
            "subject": subject,
            "name": name,
            "detail": _jsonable(detail),
        }
        state["last"] = span
        if self.sink is not None:
            self.sink.write({"type": "trace_event", **record})
        if len(self._records) == self._records.maxlen:
            self._dropped += 1
            evicted = self._records[0]["subject"]
            history = self._by_subject[evicted]
            del history[0]
            if not history:
                del self._by_subject[evicted]
        self._records.append(record)
        self._by_subject.setdefault(subject, []).append(record)

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by simulator / APC / reconciler)
    # ------------------------------------------------------------------
    def emit(self, time: float, kind, subject: str, **detail: object) -> None:
        """Record one simulator event (a
        :class:`~repro.sim.trace.TraceEventKind`) as :data:`LIFECYCLE`
        says; kinds it does not list are ignored.  The simulator hands
        every event to each of its observers through this method."""
        step = LIFECYCLE.get(kind.value)
        if step is not None:
            self._step(time, subject, kind.value, step, detail)

    def _step(
        self, time: float, subject: str, name: str, step: str,
        detail: Dict[str, object],
    ) -> None:
        """Record one job lifecycle event; ``step`` is its
        :data:`LIFECYCLE` entry."""
        if step == "open":
            self._active.pop(subject, None)
            self._start(subject, "job")
        self._record(time, subject, name, detail)
        if step == "close":
            self._active.pop(subject, None)

    def job_arrival(self, time: float, job_id: str, **detail: object) -> str:
        """Start a job's trace at arrival; returns the trace ID."""
        self._step(time, job_id, "arrival", "open", detail)
        return str(self._active[job_id]["trace"])

    def admission(
        self,
        app: str,
        *,
        accepted: bool,
        reason: str,
        lrpf_rank: Optional[int] = None,
        utility: Optional[float] = None,
        nodes: Iterable[str] = (),
    ) -> None:
        """One APC admission verdict (timestamped by :meth:`begin_cycle`).

        A transactional app's epoch ends when a formerly placed app is
        rejected: the rejection is the epoch's final event, and the next
        verdict starts a fresh trace.  Batch-job traces never rotate —
        they run arrival to completion.
        """
        detail: Dict[str, object] = {
            "cycle": self._cycle,
            "accepted": accepted,
            "reason": reason,
            "nodes": ",".join(sorted(nodes)),
        }
        if lrpf_rank is not None:
            detail["lrpf_rank"] = lrpf_rank
        if utility is not None:
            detail["utility"] = round(utility, 4)
        self._record(self._time, app, "admission", detail)
        state = self._active[app]
        if state["kind"] == "app" and state["placed"] and not accepted:
            del self._active[app]
        else:
            state["placed"] = accepted

    def directive(self, time: float, subject: str, action: str, **detail: object) -> None:
        """A committed placement directive: ``boot`` / ``suspend`` /
        ``resume`` / ``migrate``."""
        self._record(time, subject, action, detail)

    def reconcile(self, time: float, subject: str, outcome: str, **detail: object) -> None:
        """A reconciler outcome for an in-flight action: ``attempt`` /
        ``commit`` / ``fail`` / ``retry`` / ``stall`` / ``abandon`` /
        ``supersede``."""
        self._record(time, subject, f"reconcile-{outcome}", detail)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def dropped_records(self) -> int:
        """Records evicted by the capacity bound (oldest-first)."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[Dict[str, object]]:
        """Retained trace records, oldest first."""
        return list(self._records)

    def trace_id(self, subject: str) -> Optional[str]:
        """The active trace ID for ``subject`` (``None`` once closed)."""
        state = self._active.get(subject)
        return None if state is None else str(state["trace"])

    def history_of(self, subject: str) -> List[Dict[str, object]]:
        """Every retained record naming one job/app, oldest first."""
        return list(self._by_subject.get(subject, ()))

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Counters, active-trace map, and retained records as JSON data.

        Everything a resumed run needs to keep emitting byte-identical
        IDs: the trace/span counters, the per-subject parent chain, and
        the controller clock.  Events already evicted live (at most) in
        the streaming sink, an append-only file that needs no restoring.
        """
        return {
            "capacity": self._records.maxlen,
            "dropped": self._dropped,
            "next_trace": self._next_trace,
            "next_span": self._next_span,
            "cycle": self._cycle,
            "time": self._time,
            "active": {subject: dict(state) for subject, state in self._active.items()},
            "records": [dict(r) for r in self._records],
        }

    def restore_state(self, data: Dict[str, object]) -> None:
        """Overwrite this tracer in place from :meth:`state_dict` output.

        In place because the simulator, APC, and reconciler hold the
        tracer by reference.  The sink is left untouched: restored
        records were already streamed when first emitted.
        """
        self._records = deque(
            (dict(r) for r in data["records"]), maxlen=int(data["capacity"])
        )
        self._by_subject = {}
        for record in self._records:
            self._by_subject.setdefault(record["subject"], []).append(record)
        self._dropped = int(data["dropped"])
        self._next_trace = int(data["next_trace"])
        self._next_span = int(data["next_span"])
        self._cycle = int(data["cycle"])
        self._time = float(data["time"])
        self._active = {
            subject: dict(state) for subject, state in data["active"].items()
        }


# ----------------------------------------------------------------------
# Trace reconstruction
# ----------------------------------------------------------------------
def group_traces(
    records: Iterable[Dict[str, object]],
) -> Dict[str, List[Dict[str, object]]]:
    """Group ``trace_event`` records by trace ID, stream order kept.

    Accepts raw tracer records or JSONL records (extra ``v``/``type``
    keys are tolerated); anything without a ``trace`` field is ignored.
    """
    out: Dict[str, List[Dict[str, object]]] = {}
    for record in records:
        trace = record.get("trace")
        if isinstance(trace, str):
            out.setdefault(trace, []).append(record)
    return out


def trace_chain(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Reconstruct one trace's unbroken causal chain, root first.

    Follows parent pointers from the last span back to the root and
    raises :class:`~repro.errors.ConfigurationError` if any link is
    missing or the events span multiple traces — the integrity check
    behind "every completed job's trace reconstructs an unbroken chain".
    """
    if not events:
        raise ConfigurationError("empty trace")
    traces = {e["trace"] for e in events}
    if len(traces) > 1:
        raise ConfigurationError(
            f"events span multiple traces: {sorted(map(str, traces))}"
        )
    by_span = {e["span"]: e for e in events}
    children = {e["parent"] for e in events if e["parent"]}
    tails = [e for e in events if e["span"] not in children]
    if len(tails) != 1:
        raise ConfigurationError(
            f"trace {next(iter(traces))!r} has {len(tails)} chain tails, expected 1"
        )
    chain: List[Dict[str, object]] = []
    cursor: Optional[Dict[str, object]] = tails[0]
    while cursor is not None:
        chain.append(cursor)
        parent = cursor["parent"]
        if parent == "":
            cursor = None
        elif parent in by_span:
            cursor = by_span[parent]
        else:
            raise ConfigurationError(
                f"broken trace chain: span {cursor['span']!r} references "
                f"missing parent {parent!r}"
            )
    if len(chain) != len(events):
        raise ConfigurationError(
            f"trace {next(iter(traces))!r} chain covers {len(chain)} of "
            f"{len(events)} events"
        )
    chain.reverse()
    return chain


# ----------------------------------------------------------------------
# Wait-time decomposition
# ----------------------------------------------------------------------
def _bucket_after(name: str, detail: Dict[str, object], current: str) -> str:
    """The segment a trace occupies *after* an event of ``name``."""
    if name == "admission":
        return "provision" if detail.get("accepted") else "admission"
    if name in ("boot", "resume", "migrate"):
        return "execution"
    if name == "suspend":
        return "suspended"
    if name.startswith("reconcile-"):
        if name[len("reconcile-"):] in _FAULT_OUTCOMES:
            return "reconcile"
        return current
    return current


def segment_timeline(
    events: Sequence[Dict[str, object]],
) -> List[Tuple[str, float, float]]:
    """The trace's life as contiguous ``(segment, start, end)`` spans.

    A bucket-accrual walk: between consecutive events elapsed time
    accrues to the current segment, then the event transitions the
    segment.  Zero-length gaps are skipped, so the spans partition
    ``[first event, last event]`` exactly.
    """
    ordered = sorted(events, key=lambda r: r["time"])
    spans: List[Tuple[str, float, float]] = []
    bucket = "queue"
    prev = float(ordered[0]["time"])
    for event in ordered:
        t = float(event["time"])
        if t > prev:
            if spans and spans[-1][0] == bucket:
                spans[-1] = (bucket, spans[-1][1], t)
            else:
                spans.append((bucket, prev, t))
            prev = t
        bucket = _bucket_after(str(event["name"]), event.get("detail") or {}, bucket)
    return spans


def critical_path(trace: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Decompose one trace's end-to-end latency into wait segments.

    ``trace`` is the event list of a single trace (see
    :func:`group_traces`).  The chain is verified unbroken first, then
    the segment sums are computed from :func:`segment_timeline`; by
    construction they add up to exactly ``end - start``.
    """
    chain = trace_chain(trace)
    segments = {name: 0.0 for name in SEGMENTS}
    for name, start, end in segment_timeline(chain):
        segments[name] += end - start
    first, last = chain[0], chain[-1]
    return {
        "trace": first["trace"],
        "subject": first["subject"],
        "start": float(first["time"]),
        "end": float(last["time"]),
        "total": float(last["time"]) - float(first["time"]),
        "events": len(chain),
        "complete": str(last["name"]) == "completion",
        "segments": segments,
    }


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def to_chrome_trace(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Convert trace records to Chrome trace-event JSON.

    Returns the ``{"traceEvents": [...]}`` object form of the trace
    event format; ``json.dump`` it and the file loads directly in
    Perfetto or ``chrome://tracing``.  Each trace becomes one "thread"
    (named after its subject): complete events (``ph: "X"``) for the
    wait-decomposition segments, instant events (``ph: "i"``) for the
    raw lifecycle events.  Timestamps are microseconds, per the format.
    """
    events: List[Dict[str, object]] = []
    for tid, (trace, trace_events) in enumerate(
        sorted(group_traces(records).items()), start=1
    ):
        subject = str(trace_events[0]["subject"])
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{subject} ({trace})"},
            }
        )
        for name, start, end in segment_timeline(trace_events):
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": "segment",
                    "pid": 1,
                    "tid": tid,
                    "ts": round(start * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"trace": trace, "subject": subject},
                }
            )
        for event in trace_events:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": str(event["name"]),
                    "cat": "lifecycle",
                    "pid": 1,
                    "tid": tid,
                    "ts": round(float(event["time"]) * 1e6, 3),
                    "args": {
                        "trace": trace,
                        "span": event["span"],
                        "parent": event["parent"],
                        **(event.get("detail") or {}),
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: Iterable[Dict[str, object]], path: Union[str, Path]
) -> int:
    """Write :func:`to_chrome_trace` output to ``path``; returns the
    number of Chrome events written."""
    payload = to_chrome_trace(records)
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    return len(payload["traceEvents"])


# ----------------------------------------------------------------------
# Terminal rendering (repro trace)
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int) -> str:
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_trace(
    records: Iterable[Dict[str, object]],
    job: Optional[str] = None,
    width: int = 40,
) -> str:
    """Terminal waterfall + wait-decomposition table.

    With ``job`` set, renders that subject's full event chain and its
    decomposition; otherwise a one-line summary per trace.
    """
    groups = group_traces(records)
    if not groups:
        return "no trace events"
    if job is not None:
        groups = {t: evs for t, evs in groups.items() if evs[0]["subject"] == job}
        if not groups:
            raise ConfigurationError(f"no trace found for subject {job!r}")
    lines: List[str] = []
    if job is None:
        lines.append(
            f"{'trace':<9} {'subject':<24} {'events':>6} {'total':>10}  dominant"
        )
        for trace, events in sorted(groups.items()):
            path = critical_path(events)
            segments: Dict[str, float] = path["segments"]  # type: ignore[assignment]
            dominant = max(segments, key=lambda k: segments[k]) if path["total"] else "-"
            lines.append(
                f"{trace:<9} {path['subject']:<24} {path['events']:>6} "
                f"{path['total']:>9.1f}s  {dominant}"
            )
        return "\n".join(lines)
    for trace, events in sorted(groups.items()):
        path = critical_path(events)
        status = "complete" if path["complete"] else "in flight"
        lines.append(
            f"{path['subject']}  {trace}  total {path['total']:.1f}s  ({status})"
        )
        total = float(path["total"])
        segments = path["segments"]  # type: ignore[assignment]
        for name in SEGMENTS:
            value = segments[name]
            fraction = value / total if total > 0 else 0.0
            lines.append(
                f"  {name:<10} |{_bar(fraction, width)}| {value:>9.1f}s {fraction:>6.1%}"
            )
        lines.append("  events:")
        for event in trace_chain(events):
            detail = event.get("detail") or {}
            rendered = " ".join(f"{k}={v}" for k, v in sorted(detail.items()))
            lines.append(
                f"    [{float(event['time']):>10.1f}s] {event['name']:<18} "
                f"{event['span']}<-{event['parent'] or 'root'} {rendered}".rstrip()
            )
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "JobTracer",
    "LIFECYCLE",
    "SEGMENTS",
    "critical_path",
    "group_traces",
    "render_trace",
    "segment_timeline",
    "to_chrome_trace",
    "trace_chain",
    "write_chrome_trace",
]
