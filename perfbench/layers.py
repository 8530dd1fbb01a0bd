"""Outside-in per-layer tracing of one benchmark window.

The benchmark does not change the program to trace it.  For the traced
run, :class:`LayerTracer` replaces the public entry points of each module
with timing wrappers (and puts the originals back afterwards).  Every
wrapped call becomes a span ``(layer, start, end, parent)`` kept in
memory; :meth:`LayerTracer.write` writes them out when the benchmark ends.

A layer's *self* time is the duration of its spans minus the part covered
by their child spans, so the self times of all layers add up to the total
of the outermost spans (the simulator's ``run`` calls).  Every span reads
the same clock as the rest of the benchmark.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.apc as apc_module
from repro.batch.hypothetical import HypotheticalRPF
from repro.batch.model import BatchWorkloadModel
from repro.core.apc import ApplicationPlacementController
from repro.core.objective import Objective
from repro.obs.alerts import AlertEngine
from repro.obs.audit import DecisionAudit
from repro.obs.sink import JsonlSink
from repro.obs.tracing import JobTracer
from repro.policies import APCPolicy
from repro.sim.metrics import MetricsRecorder
from repro.sim.reconcile import Reconciler
from repro.sim.simulator import MixedWorkloadSimulator
from repro.sim.trace import SimulationTrace
from repro.txn.model import TransactionalWorkloadModel

#: Every traced layer, outermost first.  Each is reported on every
#: workload (as zero where the workload never calls it).
LAYERS: Tuple[str, ...] = (
    "sim.run",
    "policy.decide",
    "apc.place",
    "loadbalance",
    "batch.app_specs",
    "batch.spec_arrays",
    "batch.candidates",
    "batch.evaluate",
    "batch.hypothetical",
    "txn.app_specs",
    "txn.evaluate",
    "objective.score",
    "metrics.record_cycle",
    "reconcile.attempt",
    "obs.trace",
    "obs.audit",
    "obs.tracer",
    "obs.sink_write",
    "obs.alerts_observe",
)

#: (owner, attribute, layer): the entry points wrapped for the traced run.
#: ``repro.core.apc.distribute_load`` is the load balancer as the
#: controller sees it (the controller calls it through its module global).
ENTRY_POINTS: Tuple[Tuple[object, str, str], ...] = (
    (MixedWorkloadSimulator, "run", "sim.run"),
    (APCPolicy, "decide", "policy.decide"),
    (ApplicationPlacementController, "place", "apc.place"),
    (apc_module, "distribute_load", "loadbalance"),
    (BatchWorkloadModel, "app_specs", "batch.app_specs"),
    (BatchWorkloadModel, "app_spec_arrays", "batch.spec_arrays"),
    (BatchWorkloadModel, "placement_candidates", "batch.candidates"),
    (BatchWorkloadModel, "evaluate", "batch.evaluate"),
    (BatchWorkloadModel, "hypothetical", "batch.hypothetical"),
    (HypotheticalRPF, "average_utility", "batch.hypothetical"),
    (TransactionalWorkloadModel, "app_specs", "txn.app_specs"),
    (TransactionalWorkloadModel, "evaluate", "txn.evaluate"),
    (MetricsRecorder, "record_cycle", "metrics.record_cycle"),
    (Reconciler, "attempt", "reconcile.attempt"),
    (SimulationTrace, "emit", "obs.trace"),
    (JsonlSink, "write", "obs.sink_write"),
    (AlertEngine, "observe", "obs.alerts_observe"),
)

#: Classes whose every public method counts toward one layer.
WHOLE_CLASSES: Tuple[Tuple[type, str], ...] = (
    (DecisionAudit, "obs.audit"),
    (JobTracer, "obs.tracer"),
)

Span = Tuple[str, float, float, int]


class LayerTracer:
    """Records one span per wrapped call while :meth:`installed` is active."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Control cycles that entered the §3.2 search.
        self.search_cycles = 0
        #: Candidate evaluations, from each cycle's result.
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def _count_decision(self, fn: Callable) -> Callable:
        def decide(policy, current, now):
            state = fn(policy, current, now)
            self.evaluations += policy.last_result.evaluations
            return state

        return decide

    def _count_search(self, fn: Callable) -> Callable:
        # The one private hook: whether the controller enters the search
        # is decided here and leaves no trace in its result.
        def worthwhile(controller, *args, **kwargs):
            enter = fn(controller, *args, **kwargs)
            if enter and controller.config.enable_search:
                self.search_cycles += 1
            return enter

        return worthwhile

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every entry point for the duration of the block."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        patch(
            ApplicationPlacementController,
            "_search_is_worthwhile",
            self._count_search(ApplicationPlacementController._search_is_worthwhile),
        )
        patch(APCPolicy, "decide", self._count_decision(APCPolicy.decide))
        for owner, attr, layer in ENTRY_POINTS:
            patch(owner, attr, self._wrap(layer, getattr(owner, attr)))
        for cls, layer in WHOLE_CLASSES:
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    patch(cls, attr, self._wrap(layer, value))
        for objective in _subclasses(Objective):
            if "score" in vars(objective):
                patch(objective, "score", self._wrap("objective.score", objective.score))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def summary(self) -> "LayerSummary":
        spans = self.spans
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        covered = [0.0] * len(spans)
        #: (parent layer, child layer) -> time of direct child spans.
        under: Dict[Tuple[str, str], float] = defaultdict(float)
        root_total = 0.0
        # Children always come after their parent in the list, so one
        # backwards pass has every span's covered time complete.
        for index in range(len(spans) - 1, -1, -1):
            layer, start, end, parent = spans[index]
            duration = end - start
            calls[layer] += 1
            if not _inside_same_layer(spans, index):
                total[layer] += duration
            own[layer] += duration - covered[index]
            if parent < 0:
                root_total += duration
            else:
                covered[parent] += duration
                under[(spans[parent][0], layer)] += duration
        return LayerSummary(
            calls=dict(calls),
            total_s=dict(total),
            self_s=dict(own),
            under=dict(under),
            root_total_s=root_total,
            spans=len(spans),
        )

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines ``[layer, start_us, dur_us,
        parent]`` (parent is a line index, -1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for layer, start, end, parent in self.spans:
                out.write(
                    json.dumps([layer, round(start * 1e6, 1),
                                round((end - start) * 1e6, 1), parent])
                    + "\n"
                )


@dataclass
class LayerSummary:
    """Per-layer call counts, total and self time of one traced window.
    A layer's total counts only its outermost spans, so a layer whose
    entry points call each other is not counted twice."""

    calls: Dict[str, int]
    total_s: Dict[str, float]
    self_s: Dict[str, float]
    #: (parent layer, child layer) -> time of direct child spans.
    under: Dict[Tuple[str, str], float]
    root_total_s: float
    spans: int

    @property
    def self_sum_s(self) -> float:
        return sum(self.self_s.values())

    def largest_under(self, parent: str) -> Optional[str]:
        """The layer with the most time inside ``parent``, counting the
        parent's own self time as the parent."""
        shares = {c: t for (p, c), t in self.under.items() if p == parent}
        shares[parent] = self.self_s.get(parent, 0.0)
        return max(shares, key=shares.get) if shares else None


def _inside_same_layer(spans: List[Span], index: int) -> bool:
    layer, parent = spans[index][0], spans[index][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
