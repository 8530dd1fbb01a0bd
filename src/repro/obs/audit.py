"""Decision flight recorder for the placement controller.

The paper's controller is defined by *decisions*: the lexicographic
maxmin comparison over sorted relative-performance vectors (§3.3), the
hypothetical-RPF predictions that feed it for queued jobs (§4.2), and
the LRPF ordering that drives both admission and node refill.  The span
profiler and metric registry (PR 2) record how long those decisions
took and what they produced — not *why* each candidate won or lost.

:class:`DecisionAudit` fills that gap.  The controller threads an
optional audit through ``place()`` and reports, per control cycle:

* the incumbent utility vector before the search and the final vector
  after it (``audit_cycle``);
* every candidate placement it scored — admission trials and search
  sweep trials alike, and the structural short-circuits that skipped
  evaluation entirely — with the element-wise lexicographic comparison
  that decided acceptance (``audit_candidate``);
* every greedy-admission verdict with its accept/reject reason and the
  app's rank in the LRPF ordering (``audit_admission``);
* the hypothetical-RPF inputs for each queued candidate
  (``audit_rpf``).

Like every other observability layer in this repo the audit is strictly
opt-in: instrumented call sites hold ``None`` by default, and audit-off
runs are byte-identical (pinned by ``tests/test_telemetry.py`` and
``tests/test_incremental_search.py``).

Records accumulate in memory (bounded by ``capacity``, oldest cycles
are not evicted — excess records are counted in ``dropped_records``)
and stream through an optional :class:`~repro.obs.sink.JsonlSink` as
schema-v3 record types the moment they are emitted, so capacity never
loses on-disk history.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Reasons an admission or candidate verdict may carry.  Kept here as
#: documentation of the closed vocabulary; the validator intentionally
#: accepts any string so new reasons are not a schema bump.
ADMISSION_REASONS = (
    "placed",            # accepted onto at least one node
    "max_instances",     # instance limit already reached
    "memory",            # no node has the memory headroom
    "min_cpu",           # committed min-CPU would exceed node capacity
    "constraint",        # placement-constraint veto on every node
    "no_host",           # no node passed the combined host checks
)

SHORTCIRCUIT_REASONS = (
    "upper_bound",       # sorted-utility upper bound reached, sweep cut
    "node_noop",         # zero-removal trial skipped: the fill pass's
                         # first-placement test found nothing to place
    "search_skipped",    # _search_is_worthwhile said no
    "search_disabled",   # APCConfig(enable_search=False)
)


class DecisionAudit:
    """Opt-in per-cycle audit of every placement decision.

    Parameters
    ----------
    sink:
        Optional :class:`~repro.obs.sink.JsonlSink`; every record is
        streamed as it is emitted (before the in-memory bound applies).
    trace:
        Optional :class:`~repro.sim.trace.SimulationTrace`; a one-line
        ``decision`` event summarizing each cycle is emitted into it.
    capacity:
        In-memory record bound.  Records beyond it are dropped from the
        in-memory view (but still streamed) and counted in
        :attr:`dropped_records`.
    """

    def __init__(self, sink=None, trace=None, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._sink = sink
        self._trace = trace
        self._capacity = capacity
        self._records: List[Dict[str, object]] = []
        self.dropped_records = 0
        self._cycle = -1
        self._time = 0.0
        self._utilities_before: List[float] = []
        self._pending_fill: Optional[Tuple[str, Tuple[str, ...]]] = None

    # ------------------------------------------------------------------
    # Controller-facing hooks (one call site each in apc.py)
    # ------------------------------------------------------------------
    def begin_cycle(self, now: float) -> None:
        """Open the audit window for one ``place()`` call."""
        self._cycle += 1
        self._time = float(now)
        self._utilities_before = []
        self._pending_fill = None

    def resume_at(self, cycles_completed: int) -> None:
        """Continue cycle numbering after a snapshot restore.

        A restored simulation replays no history through the audit; this
        aligns the next ``begin_cycle`` with the first cycle the resumed
        run will actually execute, so streamed records from the original
        and resumed runs concatenate into one consistent sequence.
        """
        if cycles_completed < 0:
            raise ValueError(
                f"cycles_completed must be >= 0, got {cycles_completed}"
            )
        self._cycle = cycles_completed - 1

    def incumbent(self, utilities: Dict[str, float]) -> None:
        """Record the baseline (no-change) utility vector."""
        self._utilities_before = sorted(utilities.values())

    def rpf_inputs(
        self,
        app: str,
        *,
        max_utility: float,
        saturation_cpu: float,
        min_cpu: float,
        memory_mb: float,
        divisible: bool,
    ) -> None:
        """Record the hypothetical-RPF inputs for one queued candidate."""
        self._emit(
            {
                "type": "audit_rpf",
                "app": app,
                "max_utility": float(max_utility),
                "saturation_cpu": float(saturation_cpu),
                "min_cpu": float(min_cpu),
                "memory_mb": float(memory_mb),
                "divisible": divisible,
            }
        )

    def admission(
        self,
        app: str,
        *,
        accepted: bool,
        reason: str,
        lrpf_rank: int,
        utility: float,
        nodes: Sequence[str] = (),
    ) -> None:
        """Record one greedy-admission verdict.

        ``lrpf_rank`` is the app's position in the lowest-relative-
        performance-first ordering the pass used — rank 0 is the worst
        performer, admitted first — so the sequence of admission records
        for a cycle *is* the LRPF ordering snapshot.
        """
        self._emit(
            {
                "type": "audit_admission",
                "app": app,
                "accepted": accepted,
                "reason": reason,
                "lrpf_rank": lrpf_rank,
                "utility": float(utility),
                "nodes": list(nodes),
            }
        )

    def note_fill(self, node: str, order: Sequence[str]) -> None:
        """Stash the LRPF refill ordering ``_fill_node`` used for
        ``node``; attached to the next candidate record for that node."""
        self._pending_fill = (node, tuple(order))

    def candidate(
        self,
        *,
        stage: str,
        accepted: bool,
        reason: str,
        utilities: Dict[str, float],
        comparison: Optional[Dict[str, object]] = None,
        node: Optional[str] = None,
        removals: Optional[int] = None,
        churn: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> None:
        """Record one scored candidate placement.

        ``comparison`` is the :func:`repro.core.objective.lex_explain`
        dict for candidate-vs-incumbent; ``stage`` is ``"admission"`` or
        ``"search"``.
        """
        record: Dict[str, object] = {
            "type": "audit_candidate",
            "stage": stage,
            "accepted": accepted,
            "reason": reason,
            "utilities": {app: float(u) for app, u in utilities.items()},
        }
        if comparison is not None:
            record["comparison"] = dict(comparison)
        if node is not None:
            record["node"] = node
        if removals is not None:
            record["removals"] = removals
        if churn is not None:
            record["churn"] = churn
        if tolerance is not None:
            record["tolerance"] = tolerance
        if self._pending_fill is not None and self._pending_fill[0] == node:
            record["fill_order"] = list(self._pending_fill[1])
            self._pending_fill = None
        self._emit(record)

    def shortcircuit(self, kind: str, node: Optional[str] = None) -> None:
        """Record a candidate (or whole phase) skipped without
        evaluation: an internal shortcut in the paper's terms (§5.1)."""
        record: Dict[str, object] = {
            "type": "audit_candidate",
            "stage": "search",
            "accepted": False,
            "reason": kind,
            "utilities": {},
        }
        if node is not None:
            record["node"] = node
        self._emit(record)

    def end_cycle(
        self,
        *,
        utilities_after: Dict[str, float],
        changed: bool,
        evaluations: int,
    ) -> None:
        """Close the audit window: final vector and search effort."""
        after = sorted(utilities_after.values())
        self._emit(
            {
                "type": "audit_cycle",
                "utilities_before": list(self._utilities_before),
                "utilities_after": after,
                "changed": changed,
                "evaluations": evaluations,
            }
        )
        if self._trace is not None:
            from repro.sim.trace import TraceEventKind

            self._trace.emit(
                self._time,
                TraceEventKind.DECISION,
                "controller",
                cycle=self._cycle,
                changed=changed,
                evaluations=evaluations,
                worst_before=self._utilities_before[0] if self._utilities_before else None,
                worst_after=after[0] if after else None,
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, object]]:
        """The in-memory record list (stream order)."""
        return list(self._records)

    def cycles(self) -> List[int]:
        """Cycle indices present in the in-memory records."""
        seen: List[int] = []
        for record in self._records:
            cycle = record["cycle"]
            if not seen or seen[-1] != cycle:
                seen.append(cycle)  # records arrive in cycle order
        return seen

    def records_for(self, cycle: int) -> List[Dict[str, object]]:
        """All records of one cycle, in emission order."""
        return [r for r in self._records if r["cycle"] == cycle]

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, object]) -> None:
        record.setdefault("time", self._time)
        record.setdefault("cycle", self._cycle)
        if self._sink is not None:
            self._sink.write(dict(record))
        if len(self._records) < self._capacity:
            self._records.append(record)
        else:
            self.dropped_records += 1


__all__ = ["ADMISSION_REASONS", "SHORTCIRCUIT_REASONS", "DecisionAudit"]
