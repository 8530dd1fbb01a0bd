"""Hierarchical span profiler.

The paper reports the controller's decision time as a single number
(~1.5 s per cycle, §5.1).  A single number cannot explain *why* a cycle
was slow — was it the hypothetical-performance build over the W/V
samples, the load-balancing solves, or the candidate generation itself?
This profiler answers that: code wraps regions in nested, named spans
(context-manager API, monotonic clock), and the recorded tree is
aggregated into a per-phase breakdown, overall or per root-span
occurrence (one control cycle = one root span).

Design constraints:

* **Injectable clock** — tests (and same-seed reproducibility checks)
  supply a deterministic counter instead of ``time.perf_counter``, so
  timing-derived output never depends on wall-clock jitter.
* **Zero overhead by default** — instrumented call sites hold an
  ``Optional[SpanProfiler]`` and use a shared no-op context manager when
  none is attached; with no profiler the instrumented code path performs
  no timing calls and allocates nothing.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Shared, stateless no-op context manager for un-instrumented runs.
NULL_SPAN = nullcontext()

#: Path separator between a parent span's path and a child's name.
SEP = "/"


@dataclass
class SpanRecord:
    """One finished span occurrence."""

    #: Full path from the root, e.g. ``"apc.place/apc.search/apc.evaluate"``.
    path: str
    #: Leaf name, e.g. ``"apc.evaluate"``.
    name: str
    #: Nesting depth (0 = root span).
    depth: int
    #: Clock reading at entry (units of the injected clock; seconds for
    #: the default monotonic clock).
    start: float
    #: Clock delta between exit and entry.
    duration: float
    #: Index of the enclosing span in the profiler's record list, or
    #: ``None`` for roots.
    parent: Optional[int] = None
    #: Free-form key/values attached at entry.
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for the JSONL sink."""
        out: Dict[str, object] = {
            "path": self.path,
            "name": self.name,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass
class SpanStats:
    """Aggregate over every occurrence of one span path."""

    path: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.min = min(self.min, duration)
        self.max = max(self.max, duration)


class _OpenSpan:
    """Context manager for one span entry (internal)."""

    __slots__ = ("_profiler", "_name", "_attrs", "_index", "_start")

    def __init__(self, profiler: "SpanProfiler", name: str, attrs: Dict[str, object]):
        self._profiler = profiler
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        self._index, self._start = self._profiler._open(self._name, self._attrs)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._close(self._index, self._start)


class SpanProfiler:
    """Records a tree of timed spans.

    Use :meth:`span` as a context manager around each instrumented
    region; nesting is tracked automatically through a stack, so a span
    entered while another is open becomes its child.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self.records: List[SpanRecord] = []
        self._stack: List[int] = []  # indices of open spans

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _OpenSpan:
        """Open a span named ``name``; close it when the ``with`` exits."""
        return _OpenSpan(self, name, attrs)

    def _open(self, name: str, attrs: Dict[str, object]):
        if self._stack:
            parent = self._stack[-1]
            parent_rec = self.records[parent]
            path = parent_rec.path + SEP + name
            depth = parent_rec.depth + 1
        else:
            parent, path, depth = None, name, 0
        index = len(self.records)
        # The record is appended open (duration filled at close) so that
        # children created meanwhile can reference it as their parent.
        self.records.append(
            SpanRecord(
                path=path, name=name, depth=depth,
                start=0.0, duration=0.0, parent=parent, attrs=attrs,
            )
        )
        self._stack.append(index)
        start = self._clock()  # read last: exclude bookkeeping from the span
        self.records[index].start = start
        return index, start

    def _close(self, index: int, start: float) -> None:
        end = self._clock()
        self._stack.pop()
        self.records[index].duration = end - start

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, SpanStats]:
        """Per-path aggregate stats over all recorded occurrences."""
        out: Dict[str, SpanStats] = {}
        for record in self.records:
            stats = out.get(record.path)
            if stats is None:
                stats = out[record.path] = SpanStats(record.path)
            stats.add(record.duration)
        return out

    def roots(self, name: Optional[str] = None) -> List[SpanRecord]:
        """Top-level span occurrences (optionally filtered by name)."""
        return [
            r for r in self.records
            if r.parent is None and (name is None or r.name == name)
        ]

    def breakdowns(self, anchor: str) -> List[Dict[str, SpanStats]]:
        """Per-occurrence phase breakdown of every span named ``anchor``.

        Each list element corresponds to one occurrence (one APC control
        cycle when ``anchor="apc.place"``) and maps the anchor and its
        descendants — keyed by path *relative to the anchor* — to their
        aggregated stats within that occurrence.  Anchors may appear at
        any depth, so an APC nested under the simulator's spans is found
        the same as a standalone one.
        """
        out: List[Dict[str, SpanStats]] = []
        #: record index -> (bucket, chars to strip off the path).
        scope: Dict[int, tuple] = {}
        for i, record in enumerate(self.records):
            if record.name == anchor:
                bucket: Dict[str, SpanStats] = {}
                out.append(bucket)
                strip = len(record.path) - len(record.name)
                scope[i] = (bucket, strip)
            elif record.parent in scope:
                scope[i] = scope[record.parent]
            else:
                continue
            bucket, strip = scope[i]
            key = record.path[strip:]
            stats = bucket.get(key)
            if stats is None:
                stats = bucket[key] = SpanStats(key)
            stats.add(record.duration)
        return out

    def __len__(self) -> int:
        return len(self.records)


def render_profile(profiler: SpanProfiler, unit: str = "ms") -> str:
    """Text table of the profiler's aggregate, tree-ordered.

    ``unit`` scales durations for display: ``"ms"`` (default), ``"s"``,
    or ``"raw"`` (clock units, for deterministic test clocks).
    """
    scale = {"ms": 1e3, "s": 1.0, "raw": 1.0}[unit]
    suffix = {"ms": " ms", "s": " s", "raw": ""}[unit]
    aggregate = profiler.aggregate()
    if not aggregate:
        return "(no spans recorded)"
    # Tree order: parents before children, siblings in first-open
    # order, so a child first seen in a later cycle still prints under
    # its own parent.
    children: Dict[Optional[str], List[str]] = {}
    for record in profiler.records:
        parent = record.parent
        siblings = children.setdefault(
            None if parent is None else profiler.records[parent].path, []
        )
        if record.path not in siblings:
            siblings.append(record.path)

    def tree(parent: Optional[str]):
        for path in children.get(parent, ()):
            yield path
            yield from tree(path)

    header = f"{'span':<44} {'calls':>6} {'total':>12} {'mean':>12}"
    lines = [header, "-" * len(header)]
    for path in tree(None):
        stats = aggregate[path]
        depth = path.count(SEP)
        label = "  " * depth + path.rsplit(SEP, 1)[-1]
        lines.append(
            f"{label:<44} {stats.count:>6} "
            f"{stats.total * scale:>10.3f}{suffix} "
            f"{stats.mean * scale:>10.3f}{suffix}"
        )
    return "\n".join(lines)


__all__ = [
    "NULL_SPAN",
    "SpanProfiler",
    "SpanRecord",
    "SpanStats",
    "render_profile",
]
