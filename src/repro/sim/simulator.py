"""The mixed-workload cluster simulator.

Drives a :class:`~repro.policies.PlacementPolicy` over a virtualized
cluster on a fixed control cycle ``T`` (§3.1), exactly as the paper's
evaluation does:

* **arrivals**: jobs are submitted at their scheduled times and wait in
  the queue until the next control cycle considers them;
* **control cycles**: at every multiple of ``T`` the policy computes a
  new placement; the diff against the running placement is translated
  into VM control actions (boot / suspend / resume / migrate), whose
  costs — the paper's measured linear-in-footprint model — delay the
  affected job's execution within the cycle;
* **execution**: between control points allocations are constant; placed
  jobs progress at their allocated speed; completions are scheduled as
  exact-time events (capacity freed mid-cycle stays idle until the next
  control point, matching the control-cycle granularity of the real
  system);
* **metrics**: every cycle records the series the paper plots (average
  hypothetical relative performance, transactional relative performance,
  per-workload allocations, placement changes), and every completion
  records the job-level outcome (deadline distance, relative performance
  at completion time).
"""

from __future__ import annotations

import dataclasses
import time as _wallclock
from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro._compat import keyword_only

from repro.batch.job import Job, JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.placement import PlacementState
from repro.errors import (
    ActionFailedError,
    CapacityError,
    CheckpointError,
    ConfigurationError,
    PlacementError,
    SimulationError,
)
from repro.sim.engine import (
    EventQueue,
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    PRIORITY_CYCLE,
    ScheduledEvent,
)
from repro.obs.alerts import AlertConfig, AlertEngine, CycleObservation
from repro.obs.registry import MetricRegistry
from repro.obs.spans import NULL_SPAN, SpanProfiler
from repro.sim.metrics import CycleSample, MetricsRecorder
from repro.policies import PlacementPolicy
from repro.sim.reconcile import Decision, Directive, PendingAction, Reconciler
from repro.sim.snapshot import SNAPSHOT_SCHEMA_VERSION, check_version, require
from repro.sim.trace import SimulationTrace, TraceEventKind
from repro.txn.application import TransactionalApp
from repro.units import EPSILON, is_finite_real
from repro.virt.actions import ActionType, CHANGE_ACTIONS, diff_placements
from repro.virt.costs import PAPER_COST_MODEL, VirtualizationCostModel
from repro.virt.faults import ActionFaultModel, RetryPolicy


@keyword_only
@dataclass
class SimulationConfig:
    """Simulator parameters.  Construct with keyword arguments.

    Attributes
    ----------
    cycle_length:
        Control cycle period ``T`` (s).
    max_time:
        Hard stop; ``None`` runs until the batch workload drains.
    cost_model:
        VM action cost model (the paper's measured model by default;
        Experiment Two uses :data:`~repro.virt.costs.FREE_COST_MODEL`).
    failures:
        Injected node outages (failure-injection extension).
    fault_model:
        Per-action fault injection
        (:class:`~repro.virt.faults.ActionFaultModel`).  ``None`` (the
        default) keeps the classic infallible actuator: no RNG is ever
        consulted and results are bit-identical to a build without the
        extension.
    retry_policy:
        Backoff schedule for re-issuing failed actions (only consulted
        when a fault model is active).
    action_timeout:
        Patience for stalled actions (s): a stall exceeding this is
        detected as a failure when the timeout event fires.
    decision_clock:
        Clock used to time the policy's per-cycle decision
        (``decision_seconds``).  ``None`` (the default) uses the
        wall-clock monotonic counter; tests inject a deterministic
        counter so timing-derived output is reproducible across runs.
    alerts:
        Live SLO watchdog rules
        (:class:`~repro.obs.alerts.AlertConfig`).  ``None`` (the
        default) never constructs an engine: no per-cycle observation is
        built and simulation output is bit-identical to a build without
        the watchdog.  With a config set, the simulator evaluates every
        rule at each control cycle and streams ``alert_fired`` /
        ``alert_resolved`` records through the trace's sink (if any).
        The engine's history, active alerts and rule windows are
        snapshotted, so a restored run goes on alerting as the
        uninterrupted one would.  A snapshot of a run without a
        watchdog, or an older one, lacks them, and the restored watchdog
        starts afresh.

    Completed jobs leave the queue at the end of every control cycle, so
    the controller's working set stays the incomplete jobs (metrics keep
    their own records).  Each field is checked when the config is built,
    so a wrong-typed part fails here, not inside a control cycle.
    """

    cycle_length: float = 600.0
    max_time: Optional[float] = None
    cost_model: VirtualizationCostModel = field(default_factory=lambda: PAPER_COST_MODEL)
    failures: Sequence["NodeFailure"] = ()
    fault_model: Optional[ActionFaultModel] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    action_timeout: float = 120.0
    decision_clock: Optional[Callable[[], float]] = None
    alerts: Optional[AlertConfig] = None

    def __post_init__(self) -> None:
        for name in ("cycle_length", "action_timeout"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if self.max_time is not None and not (
            is_finite_real(self.max_time) and self.max_time > 0
        ):
            raise ConfigurationError(
                f"max_time must be None or finite and positive, got "
                f"{self.max_time!r}"
            )
        for name, kind, optional in (
            ("cost_model", VirtualizationCostModel, False),
            ("fault_model", ActionFaultModel, True),
            ("retry_policy", RetryPolicy, False),
            ("alerts", AlertConfig, True),
        ):
            value = getattr(self, name)
            if not (isinstance(value, kind) or (optional and value is None)):
                raise ConfigurationError(
                    f"{name} must be {'None or ' if optional else ''}a "
                    f"{kind.__name__}, got {value!r}"
                )
        try:
            failures = tuple(self.failures)
        except TypeError:
            failures = None
        if failures is None or not all(
            isinstance(f, NodeFailure) for f in failures
        ):
            raise ConfigurationError(
                f"failures must be a sequence of NodeFailure, got "
                f"{self.failures!r}"
            )
        self.failures = failures
        if self.decision_clock is not None and not callable(self.decision_clock):
            raise ConfigurationError(
                f"decision_clock must be None or callable, got "
                f"{self.decision_clock!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation.

        Round-trips through :meth:`from_dict` except for
        ``decision_clock`` (a live callable, deliberately excluded — a
        deserialized config always falls back to the wall clock).  A
        :class:`NodeFailure` of infinite duration serializes its
        ``duration`` as ``None``.
        """
        return {
            "cycle_length": self.cycle_length,
            "max_time": self.max_time,
            "cost_model": dataclasses.asdict(self.cost_model),
            "failures": [
                {
                    "node": f.node,
                    "fail_time": f.fail_time,
                    "duration": None if f.duration == float("inf") else f.duration,
                    "lose_progress": f.lose_progress,
                }
                for f in self.failures
            ],
            "fault_model": (
                None
                if self.fault_model is None
                else {
                    "specs": {
                        action.value: dataclasses.asdict(spec)
                        for action, spec in self.fault_model.specs.items()
                    },
                    "node_flakiness": dict(self.fault_model.node_flakiness),
                    "seed": self.fault_model.seed,
                }
            ),
            "retry_policy": dataclasses.asdict(self.retry_policy),
            "action_timeout": self.action_timeout,
            "alerts": None if self.alerts is None else self.alerts.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationConfig":
        """Build from a plain dict (inverse of :meth:`to_dict`); unknown
        keys are rejected to surface config typos.  The retired switch
        ``prune_completed`` is dropped when it holds ``True``, the value
        documents recorded, so scenario JSON, snapshots and sweep
        manifests that carry it still load; ``False`` asked for a
        simulator that keeps completed jobs queued, so it is refused."""
        value = data.get("prune_completed", True)
        if value is not True:
            raise ConfigurationError(
                "SimulationConfig key 'prune_completed' is retired and must "
                f"be True (the simulator always prunes), got {value!r}"
            )
        data = {k: v for k, v in data.items() if k != "prune_completed"}
        known = {
            f.name for f in dataclasses.fields(cls) if f.name != "decision_clock"
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SimulationConfig keys: {sorted(unknown)}"
            )
        kwargs: Dict[str, object] = dict(data)
        if "cost_model" in kwargs and isinstance(kwargs["cost_model"], Mapping):
            kwargs["cost_model"] = VirtualizationCostModel(**kwargs["cost_model"])
        if "failures" in kwargs:
            kwargs["failures"] = tuple(
                NodeFailure(
                    node=f["node"],
                    fail_time=f["fail_time"],
                    duration=(
                        float("inf") if f.get("duration") is None else f["duration"]
                    ),
                    lose_progress=f.get("lose_progress", True),
                )
                if isinstance(f, Mapping)
                else f
                for f in kwargs["failures"]
            )
        fm = kwargs.get("fault_model")
        if fm is not None and isinstance(fm, Mapping):
            from repro.virt.faults import FaultSpec

            kwargs["fault_model"] = ActionFaultModel(
                specs={
                    ActionType(action): FaultSpec(**spec)
                    for action, spec in fm.get("specs", {}).items()
                },
                node_flakiness=fm.get("node_flakiness", {}),
                seed=fm.get("seed", 0),
            )
        if "retry_policy" in kwargs and isinstance(kwargs["retry_policy"], Mapping):
            kwargs["retry_policy"] = RetryPolicy(**kwargs["retry_policy"])
        if isinstance(kwargs.get("alerts"), Mapping):
            kwargs["alerts"] = AlertConfig.from_dict(kwargs["alerts"])
        return cls(**kwargs)


@dataclass(frozen=True)
class NodeFailure:
    """One injected node outage.

    ``lose_progress`` models an abrupt crash — the VM state is gone and
    affected jobs restart from zero; ``False`` models a graceful drain —
    jobs are suspended with progress intact and resumable elsewhere.
    ``duration`` of ``inf`` keeps the node down for the rest of the run.
    """

    node: str
    fail_time: float
    duration: float = float("inf")
    lose_progress: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.node, str):
            raise ConfigurationError(
                f"node must be a node name (str), got {self.node!r}"
            )
        if not (is_finite_real(self.fail_time) and self.fail_time >= 0):
            raise ConfigurationError(
                f"fail_time must be finite and >= 0, got {self.fail_time!r}"
            )
        if not (
            (is_finite_real(self.duration) or self.duration == float("inf"))
            and self.duration > 0
        ):
            raise ConfigurationError(
                f"duration must be positive (inf: down for good), got "
                f"{self.duration!r}"
            )


#: The outcome of every action when no fault model is configured.
_COMMIT_NOW = Directive(Decision.COMMIT)

# Event payloads --------------------------------------------------------
_ARRIVAL = "arrival"
_CYCLE = "cycle"
_COMPLETION = "completion"
_STAGE = "stage"
_FAIL = "fail"
_RESTORE = "restore"
_RETRY = "retry"
_STALL_TIMEOUT = "stall-timeout"


class MixedWorkloadSimulator:
    """Simulates one policy over one workload on one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        policy: PlacementPolicy,
        queue: JobQueue,
        arrivals: Iterable[Job],
        txn_apps: Sequence[TransactionalApp] = (),
        batch_model: Optional[BatchWorkloadModel] = None,
        config: Optional[SimulationConfig] = None,
        trace: Optional[SimulationTrace] = None,
        registry: Optional[MetricRegistry] = None,
        profiler: Optional[SpanProfiler] = None,
        tracer=None,
    ) -> None:
        self._cluster = cluster
        self._policy = policy
        self._queue = queue
        self._arrivals: Iterator[Job] = iter(arrivals)
        self._txn_apps = list(txn_apps)
        self._batch_model = batch_model or BatchWorkloadModel(queue)
        self._config = config or SimulationConfig()

        self.metrics = MetricsRecorder(registry=registry)
        #: Optional span profiler: each control cycle becomes a
        #: ``sim.cycle`` span with a ``sim.decide`` child; an APC sharing
        #: the same profiler nests its ``apc.place`` phases beneath it.
        self.profiler = profiler
        self.trace = trace
        #: Optional causal job tracer (``repro.obs.tracing.JobTracer``):
        #: every job lifecycle event — arrival, directives, reconcile
        #: outcomes, suspend/resume, completion — lands on the job's
        #: trace.
        self.tracer = tracer
        #: Every event observer, fixed at construction, in fan-out
        #: order (see :meth:`_emit`).
        self._observers = tuple(o for o in (trace, tracer) if o is not None)
        self._state = PlacementState(cluster)
        #: Per running job: (allocated speed MHz, execution start time).
        self._speeds: Dict[str, float] = {}
        self._run_since: Dict[str, float] = {}
        self._pending_arrival: Optional[Job] = None
        self._arrivals_done = False
        self._cycle_end = 0.0
        #: Live in-cycle progress event per job, so mid-cycle
        #: reconfigurations (the fallible-actuator extension) can
        #: invalidate a completion computed under a superseded speed.
        self._progress_events: Dict[str, ScheduledEvent] = {}
        #: Overlapping-outage reference counts per node: a node is
        #: available again only when every outage window covering it
        #: has ended.
        self._down_count: Dict[str, int] = {}
        #: Reconciliation loop for fallible placement actions (built at
        #: run time iff the config carries an active fault model).
        self._reconciler: Optional[Reconciler] = None
        #: Placement changes committed by mid-cycle retries, credited to
        #: the next cycle sample.
        self._deferred_changes = 0
        #: Memory moved by mid-cycle retried migrations, likewise
        #: credited to the next cycle sample.
        self._deferred_moved_mb = 0.0
        #: Live SLO watchdog (built at run time iff the config carries
        #: an :class:`~repro.obs.alerts.AlertConfig`; ``None`` keeps the
        #: control loop untouched).
        self.alert_engine: Optional[AlertEngine] = None
        #: The persistent event queue.  ``None`` until the first
        #: :meth:`run` (or a :meth:`restore`) — its presence is what
        #: distinguishes a fresh simulator from a started one.
        self._events: Optional[EventQueue] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def state(self) -> PlacementState:
        """The placement currently in effect."""
        return self._state

    @property
    def config(self) -> SimulationConfig:
        return self._config

    def run(self, until: Optional[float] = None) -> MetricsRecorder:
        """Run the simulation and return the metrics recorder.

        With ``until`` set, events are processed only while the next
        event's time is ``<= until``; the simulator keeps all state (the
        event queue persists across calls) and a later ``run()`` — or a
        :meth:`snapshot` followed by :meth:`restore` + ``run()`` on a
        fresh simulator — continues byte-identically where this call
        stopped.  Without ``until`` the run drains to completion.
        """
        if self._events is None:
            self._events = EventQueue()
            self._init_reconciler()
            self._init_alerts()
            self._bootstrap(self._events)
        events = self._events

        while True:
            next_time = events.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until + EPSILON:
                break
            now, (kind, payload) = events.pop()
            if self._config.max_time is not None and now > self._config.max_time + EPSILON:
                break
            if kind == _ARRIVAL:
                self._queue.submit(payload)
                self._emit(
                    now, TraceEventKind.ARRIVAL, payload.job_id,
                    goal=round(payload.completion_goal, 1),
                )
                if self.tracer is not None:
                    payload.trace_id = self.tracer.trace_id(payload.job_id)
                self._schedule_next_arrival(events, now)
            elif kind == _COMPLETION:
                self._complete_job(payload, now)
            elif kind == _STAGE:
                self._cross_stage_boundary(payload, now, events)
            elif kind == _FAIL:
                self._fail_node(payload, now, events)
            elif kind == _RESTORE:
                self._restore_node(payload, now)
            elif kind == _RETRY:
                self._retry_pending(payload, now, events)
            elif kind == _STALL_TIMEOUT:
                self._stall_timed_out(payload, now, events)
            elif kind == _CYCLE:
                self._control_cycle(now, events)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")
        registry = self.metrics.registry
        if registry is not None:
            engine_gauge = registry.gauge(
                "repro_engine_events",
                "Discrete-event engine lifetime tallies",
                ("tally",),
            )
            for tally, value in events.stats().items():
                engine_gauge.set(value, tally=tally)
        return self.metrics

    @property
    def next_event_time(self) -> Optional[float]:
        """Time of the earliest scheduled event, or ``None`` when the
        run has drained (or never started).  Lets chunked drivers — e.g.
        sweep workers emitting progress heartbeats between
        ``run(until=...)`` calls — detect completion without guessing a
        horizon."""
        return None if self._events is None else self._events.peek_time()

    def _init_alerts(self) -> None:
        if self._config.alerts is None:
            return
        sink = self.trace.sink if self.trace is not None else None
        self.alert_engine = AlertEngine(
            self._config.alerts, sink=sink, registry=self.metrics.registry
        )
        #: Baselines for per-cycle deltas the watchdog consumes.
        self._alert_completions_seen = len(self.metrics.completions)
        self._alert_prev_moves: Dict[str, int] = {}
        self._alert_prev_attempts = 0
        self._alert_prev_stalls = 0

    def _init_reconciler(self) -> None:
        fault_model = self._config.fault_model
        if fault_model is not None and fault_model.enabled:
            # A fresh sampler per run: re-running the same configuration
            # replays the same seeded fault/jitter stream.
            self._reconciler = Reconciler(
                fault_model.sampler(),
                self._config.retry_policy,
                self._config.action_timeout,
                self.metrics.faults,
                tracer=self.tracer,
            )

    def _bootstrap(self, events: EventQueue) -> None:
        """Seed the fresh event queue: first arrival, injected node
        outages, and the control cycle at t = 0."""
        self._schedule_next_arrival(events, 0.0)
        for failure in self._config.failures:
            if failure.node not in self._cluster:
                raise SimulationError(f"failure targets unknown node {failure.node!r}")
            events.schedule(
                failure.fail_time, (_FAIL, failure), priority=PRIORITY_ARRIVAL
            )
            if failure.duration != float("inf"):
                events.schedule(
                    failure.fail_time + failure.duration,
                    (_RESTORE, failure.node),
                    priority=PRIORITY_ARRIVAL,
                )
        events.schedule(0.0, (_CYCLE, None), priority=PRIORITY_CYCLE)

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The simulator's complete state as plain JSON data.

        Captures everything a byte-identical continuation needs: the
        queue and arrival stream (with per-job runtime state), placement
        matrices, node availability windows, in-flight reconciliation
        actions with their retry/stall timers, the event queue (live
        *and* cancelled entries, with original sequence numbers), the
        fault/jitter RNG stream, and all recorded metrics and trace
        events.  ``restore(snapshot)`` on a freshly constructed simulator
        with the same configuration, followed by ``run()``, produces
        exactly the trace, metrics, and audit stream of an uninterrupted
        run.

        Snapshotting a never-started simulator is allowed (it bootstraps
        first, so the restored run equals a straight ``run()``).
        """
        if self._events is None:
            self._events = EventQueue()
            self._init_reconciler()
            self._init_alerts()
            self._bootstrap(self._events)
        remaining = list(self._arrivals)
        self._arrivals = iter(remaining)
        rec = self._reconciler
        data: Dict[str, object] = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "config": self._config.to_dict(),
            "cluster": {
                "nodes": list(self._cluster.node_names),
                "availability": self._cluster.availability(),
                "down_count": dict(self._down_count),
            },
            "queue": self._queue.to_dict(),
            "arrivals": [job.to_dict() for job in remaining],
            "arrivals_done": self._arrivals_done,
            "placement": self._state.to_dict(),
            "speeds": dict(self._speeds),
            "run_since": dict(self._run_since),
            "cycle_end": self._cycle_end,
            "deferred_changes": self._deferred_changes,
            "deferred_moved_mb": self._deferred_moved_mb,
            "reconciler": (
                None
                if rec is None
                else {
                    "rng": rec.sampler.rng_state(),
                    "pending": {
                        app_id: p.to_dict() for app_id, p in rec.pending.items()
                    },
                }
            ),
            "metrics": self.metrics.state_dict(),
            "trace": None if self.trace is None else self.trace.state_dict(),
            "tracer": None if self.tracer is None else self.tracer.state_dict(),
            "engine": self._events.snapshot_base(),
            "events": [self._encode_event(e) for e in self._events.dump_events()],
            "cycles_recorded": len(self.metrics.cycles),
        }
        # Only runs with a watchdog write the key, so other snapshots
        # keep their pre-alert bytes.
        if self.alert_engine is not None:
            data["alerts"] = {
                "engine": self.alert_engine.state_dict(),
                "completions_seen": self._alert_completions_seen,
                "prev_moves": dict(self._alert_prev_moves),
                "prev_attempts": self._alert_prev_attempts,
                "prev_stalls": self._alert_prev_stalls,
            }
        return data

    def restore(self, snapshot: Mapping[str, object]) -> None:
        """Load a :meth:`snapshot` into this (fresh, same-config)
        simulator; the next :meth:`run` continues where it left off.

        Raises :class:`~repro.errors.CheckpointError` — never a bare
        ``KeyError`` — when the snapshot is truncated, malformed, carries
        an unsupported schema version, or was taken under a different
        configuration or cluster.
        """
        if self._events is not None:
            raise CheckpointError(
                "restore() requires a fresh simulator (run() already started)"
            )
        try:
            self._restore_impl(snapshot)
        except CheckpointError:
            raise
        except (
            KeyError, TypeError, ValueError, AttributeError, PlacementError,
            ConfigurationError,
        ) as exc:
            raise CheckpointError(
                f"snapshot is truncated or malformed: {exc!r}"
            ) from exc

    def _restore_impl(self, snapshot: Mapping[str, object]) -> None:
        check_version(snapshot, "simulator snapshot")
        # A retired key that older checkpoints carry at its one value
        # loads; compare the config it builds.
        config = SimulationConfig.from_dict(
            require(snapshot, "config", "simulator snapshot")
        ).to_dict()
        if config != self._config.to_dict():
            raise CheckpointError(
                "snapshot was taken under a different SimulationConfig; "
                "rebuild the simulator with the configuration it was "
                "snapshotted with"
            )
        cluster_data = require(snapshot, "cluster", "simulator snapshot")
        if list(cluster_data["nodes"]) != list(self._cluster.node_names):
            raise CheckpointError(
                "snapshot belongs to a different cluster: node sets differ"
            )
        self._cluster.restore_availability(cluster_data["availability"])
        self._down_count = {
            name: int(count) for name, count in cluster_data["down_count"].items()
        }
        self._queue.load_state(
            Job.from_dict(j) for j in require(snapshot, "queue", "snapshot")["jobs"]
        )
        remaining = [Job.from_dict(j) for j in snapshot["arrivals"]]
        self._arrivals = iter(remaining)
        self._arrivals_done = bool(snapshot["arrivals_done"])
        self._state = PlacementState.from_dict(self._cluster, snapshot["placement"])
        # Metrics: the fault stats object is restored in place because
        # the reconciler (rebuilt next) holds it by reference.
        self.metrics.restore_state(snapshot["metrics"])
        trace_state = snapshot["trace"]
        if self.trace is not None and trace_state is not None:
            self.trace.restore_state(trace_state)
        # ``.get``: pre-tracer snapshots simply lack the key.
        tracer_state = snapshot.get("tracer")
        if self.tracer is not None and tracer_state is not None:
            self.tracer.restore_state(tracer_state)
        self._init_reconciler()
        self._init_alerts()
        # ``.get``: snapshots of runs without a watchdog, and older ones,
        # lack the key; the watchdog then starts afresh.
        alert_state = snapshot.get("alerts")
        if self.alert_engine is not None and alert_state is not None:
            self.alert_engine.restore_state(alert_state["engine"])
            self._alert_completions_seen = int(alert_state["completions_seen"])
            self._alert_prev_moves = {
                job_id: int(moves)
                for job_id, moves in alert_state["prev_moves"].items()
            }
            self._alert_prev_attempts = int(alert_state["prev_attempts"])
            self._alert_prev_stalls = int(alert_state["prev_stalls"])
        rec_state = snapshot["reconciler"]
        if rec_state is not None:
            if self._reconciler is None:
                raise CheckpointError(
                    "snapshot carries reconciler state but this simulator's "
                    "config has no active fault model"
                )
            self._reconciler.sampler.set_rng_state(rec_state["rng"])
            self._reconciler.pending.clear()
            for app_id, data in rec_state["pending"].items():
                self._reconciler.pending[app_id] = PendingAction.from_dict(data)
        events = EventQueue()
        events.restore_base(require(snapshot, "engine", "snapshot"))
        for entry in require(snapshot, "events", "snapshot"):
            self._decode_event(entry, events)
        self._speeds = {k: float(v) for k, v in snapshot["speeds"].items()}
        self._run_since = {k: float(v) for k, v in snapshot["run_since"].items()}
        self._cycle_end = float(snapshot["cycle_end"])
        self._deferred_changes = int(snapshot["deferred_changes"])
        self._deferred_moved_mb = float(snapshot["deferred_moved_mb"])
        self._events = events

    def _encode_event(self, event: ScheduledEvent) -> Dict[str, object]:
        """One in-heap event as JSON data.

        Cancelled entries keep only their heap key: the payload is never
        delivered, but the entry must survive so dead-entry counts (and
        therefore compaction sweeps and lifetime tallies) replay exactly.
        """
        base: Dict[str, object] = {
            "time": event.time, "priority": event.priority, "seq": event.seq,
        }
        if event.cancelled:
            base["cancelled"] = True
            return base
        kind, payload = event.payload
        base["kind"] = kind
        if kind == _ARRIVAL:
            base["job"] = payload.to_dict()
        elif kind in (_COMPLETION, _STAGE):
            base["job_id"] = payload
        elif kind == _FAIL:
            base["failure"] = {
                "node": payload.node,
                "fail_time": payload.fail_time,
                "duration": (
                    None if payload.duration == float("inf") else payload.duration
                ),
                "lose_progress": payload.lose_progress,
            }
        elif kind == _RESTORE:
            base["node"] = payload
        elif kind in (_RETRY, _STALL_TIMEOUT):
            base["app_id"] = payload.app_id
        elif kind != _CYCLE:  # pragma: no cover - defensive
            raise SimulationError(f"cannot serialize event kind {kind!r}")
        return base

    def _decode_event(self, entry: Mapping[str, object], events: EventQueue) -> None:
        """Re-inject one serialized event, relinking live handles."""
        time, priority, seq = entry["time"], entry["priority"], entry["seq"]
        if entry.get("cancelled"):
            events.inject(time, priority, seq, None, cancelled=True)
            return
        kind = entry["kind"]
        if kind == _ARRIVAL:
            payload: object = Job.from_dict(entry["job"])
        elif kind in (_COMPLETION, _STAGE):
            payload = entry["job_id"]
        elif kind == _FAIL:
            f = entry["failure"]
            payload = NodeFailure(
                node=f["node"],
                fail_time=f["fail_time"],
                duration=float("inf") if f["duration"] is None else f["duration"],
                lose_progress=f["lose_progress"],
            )
        elif kind == _RESTORE:
            payload = entry["node"]
        elif kind in (_RETRY, _STALL_TIMEOUT):
            rec = self._reconciler
            if rec is None or entry["app_id"] not in rec.pending:
                raise CheckpointError(
                    f"snapshot event references unknown pending action "
                    f"{entry['app_id']!r}"
                )
            # The restored event must reference the SAME PendingAction
            # object the reconciler tracks: the simulator's staleness
            # checks compare by identity.
            payload = rec.pending[entry["app_id"]]
        elif kind == _CYCLE:
            payload = None
        else:
            raise CheckpointError(f"unknown event kind {kind!r} in snapshot")
        handle = events.inject(time, priority, seq, (kind, payload))
        if kind in (_COMPLETION, _STAGE):
            self._progress_events[payload] = handle
        elif kind in (_RETRY, _STALL_TIMEOUT):
            payload.event_handle = handle

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self, events: EventQueue, now: float) -> None:
        job = next(self._arrivals, None)
        if job is None:
            self._arrivals_done = True
            return
        if job.submit_time < now - EPSILON:
            raise SimulationError(
                f"arrival stream not sorted: {job.job_id} at {job.submit_time} < {now}"
            )
        events.schedule(job.submit_time, (_ARRIVAL, job), priority=PRIORITY_ARRIVAL)

    def _complete_job(self, job_id: str, now: float) -> None:
        self._progress_events.pop(job_id, None)  # this event just fired
        job = self._queue.job(job_id)
        if job.status is not JobStatus.RUNNING:
            return  # stale event that escaped cancellation
        self._advance_job(job, now)
        # Snap exact completion: floating residue below a millicycle.
        job.cpu_consumed = job.profile.total_work
        job.status = JobStatus.COMPLETED
        job.completion_time = now
        self._speeds.pop(job_id, None)
        self._run_since.pop(job_id, None)
        self.metrics.record_completion(job)
        self._emit(
            now, TraceEventKind.COMPLETION, job_id,
            met=job.met_deadline(),
            distance=round(job.deadline_distance(), 1),
        )
        if self.tracer is not None:
            self._record_wait_profile(job_id)

    def _record_wait_profile(self, job_id: str) -> None:
        """Feed the completed job's wait-time decomposition into the
        metrics recorder.  Skipped (never fatal) when the tracer's
        capacity bound evicted part of the job's chain."""
        from repro.errors import ConfigurationError
        from repro.obs.tracing import critical_path

        try:
            path = critical_path(self.tracer.history_of(job_id))
        except ConfigurationError:
            return
        self.metrics.record_wait_profile(path)

    def _advance_job(self, job: Job, now: float) -> None:
        """Credit work done since the job last ran."""
        speed = self._speeds.get(job.job_id)
        if speed is None:
            return
        since = self._run_since.get(job.job_id, now)
        dt = max(0.0, now - since)
        if dt > 0:
            job.advance(speed * dt)
            self._run_since[job.job_id] = now

    def _fail_node(
        self, failure: NodeFailure, now: float, events: EventQueue
    ) -> None:
        """Take a node down: evict its placements and requeue its jobs.

        Evictions happen *before* the node is marked unavailable — the
        capacity bookkeeping must still see the node's real capacity
        while allocations are being released.  A parallel job that keeps
        instances elsewhere runs on at its remaining speed, so its
        in-cycle progress event is rescheduled at that speed.

        Outage windows may overlap (or abut): a reference count per node
        tracks how many windows currently cover it, and the node comes
        back only when the *last* one ends.  For an already-down node
        the eviction sweep below is naturally a no-op.
        """
        self._down_count[failure.node] = self._down_count.get(failure.node, 0) + 1
        node = self._cluster.node(failure.node)
        for app_id in list(self._state.apps_on(failure.node)):
            count = self._state.instances(app_id).get(failure.node, 0)
            if count:
                self._state.remove(app_id, failure.node, count)
            if app_id not in self._queue:
                continue  # transactional instance: re-placed next cycle
            job = self._queue.job(app_id)
            if not job.is_incomplete:
                continue
            still_placed = bool(self._state.nodes_of(app_id))
            if still_placed:
                # A parallel job survives on its remaining instances at a
                # proportionally reduced speed until the next cycle.
                self._advance_job(job, now)
                remaining_speed = min(
                    self._state.cpu_of(app_id), job.max_speed
                )
                if remaining_speed > EPSILON:
                    # A job still in its boot or resume delay starts when
                    # the delay ends, not at the outage.
                    start = max(now, self._run_since.get(app_id, now))
                    self._speeds[app_id] = remaining_speed
                    self._run_since[app_id] = start
                    self._schedule_progress(job, start, events)
                else:
                    self._speeds.pop(app_id, None)
                    self._run_since.pop(app_id, None)
                    self._cancel_progress(app_id)
                continue
            if job.status is JobStatus.RUNNING:
                self._advance_job(job, now)
                self._speeds.pop(app_id, None)
                self._run_since.pop(app_id, None)
                if failure.lose_progress:
                    job.cpu_consumed = 0.0
                    job.status = JobStatus.NOT_STARTED
                    job.node = None
                else:
                    job.status = JobStatus.SUSPENDED
                if self.tracer is not None:
                    self.tracer.directive(
                        now, app_id, "suspend",
                        reason="node-failure", node=failure.node,
                        lost_progress=failure.lose_progress,
                    )
            elif job.status is JobStatus.SUSPENDED and failure.lose_progress:
                if job.node == failure.node:
                    job.cpu_consumed = 0.0
                    job.status = JobStatus.NOT_STARTED
                    job.node = None
                    if self.tracer is not None:
                        self.tracer.directive(
                            now, app_id, "suspend",
                            reason="node-failure", node=failure.node,
                            lost_progress=True,
                        )
        node.available = False
        if self.trace is not None:
            self.trace.emit(
                now, TraceEventKind.SUSPEND, failure.node,
                event="node-failure", lose_progress=failure.lose_progress,
            )

    def _restore_node(self, node_name: str, now: float) -> None:
        remaining = self._down_count.get(node_name, 1) - 1
        self._down_count[node_name] = remaining
        if remaining > 0:
            return  # another outage window still covers this node
        self._cluster.node(node_name).available = True
        if self.trace is not None:
            self.trace.emit(
                now, TraceEventKind.RESUME, node_name, event="node-restore"
            )

    def _schedule_progress(self, job: Job, start: float, events: EventQueue) -> None:
        """Schedule the job's next in-cycle progress event.

        Within a control cycle allocations are constant, but a job's
        *speed cap* changes at stage boundaries (§4.1: each stage has its
        own ``ω^max``).  The next event is whichever comes first of the
        stage boundary and the completion, if it lands inside the cycle.
        """
        self._cancel_progress(job.job_id)
        speed = self._speeds.get(job.job_id)
        if speed is None or speed <= EPSILON:
            return
        if job.profile.is_last_stage(job.cpu_consumed):
            completion = start + job.remaining_work / speed
            if completion <= self._cycle_end + EPSILON:
                self._progress_events[job.job_id] = events.schedule(
                    completion, (_COMPLETION, job.job_id),
                    priority=PRIORITY_COMPLETION,
                )
            return
        boundary = start + job.profile.work_to_stage_end(job.cpu_consumed) / speed
        if boundary <= self._cycle_end + EPSILON:
            self._progress_events[job.job_id] = events.schedule(
                boundary, (_STAGE, job.job_id), priority=PRIORITY_COMPLETION
            )

    def _cancel_progress(self, job_id: str) -> None:
        """Invalidate the job's pending in-cycle progress event, if any."""
        handle = self._progress_events.pop(job_id, None)
        if handle is not None:
            handle.cancel()

    def _cross_stage_boundary(
        self, job_id: str, now: float, events: EventQueue
    ) -> None:
        """The job finished a stage mid-cycle: re-apply the new stage's
        speed cap (the allocation itself only changes at control points)
        and schedule the next progress event."""
        self._progress_events.pop(job_id, None)  # this event just fired
        job = self._queue.job(job_id)
        if job.status is not JobStatus.RUNNING:
            return  # reconfigured away before the boundary
        self._advance_job(job, now)
        allocated = self._state.cpu_of(job.job_id)
        speed = min(allocated, job.max_speed)
        if speed <= EPSILON:
            self._speeds.pop(job.job_id, None)
            return
        self._speeds[job.job_id] = speed
        self._run_since[job.job_id] = now
        self._schedule_progress(job, now, events)

    def _span(self, name: str, **attrs: object):
        """A profiler span, or the shared no-op when un-instrumented."""
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.span(name, **attrs)

    def _emit(
        self, now: float, kind: TraceEventKind, subject: str, **detail: object
    ) -> None:
        """Hand one event to every attached observer, text trace first.
        Each observer keeps the kinds it records; with none attached
        this does nothing."""
        for observer in self._observers:
            observer.emit(now, kind, subject, **detail)

    def _control_cycle(self, now: float, events: EventQueue) -> None:
        with self._span("sim.cycle", t=now):
            self._control_cycle_impl(now, events)

    def _control_cycle_impl(self, now: float, events: EventQueue) -> None:
        # 0. Settle in-flight fallible actions: the new cycle supersedes
        #    pending retries/stalls and plans from the *actual* placement.
        self._resolve_in_flight(now)

        # 1. Bring all running jobs' progress up to date.
        for job in self._queue.running():
            self._advance_job(job, now)

        # 2. Ask the policy for the next placement.
        clock = self._config.decision_clock or _wallclock.perf_counter
        with self._span("sim.decide"):
            t0 = clock()
            new_state = self._policy.decide(self._state, now)
            decision_seconds = clock() - t0

        # 3. Apply the placement diff as VM control actions.  With a
        #    fault model active, each action may fail or stall; the
        #    *effective* state patches failures out of the desired one.
        prev_matrix = self._state.as_matrix()
        changes, delays, moved_mb, effective = self._actuate(new_state, now, events)
        changes += self._deferred_changes
        self._deferred_changes = 0
        moved_mb += self._deferred_moved_mb
        self._deferred_moved_mb = 0.0
        removed, added = diff_placements(prev_matrix, effective.as_matrix())
        churn = sum(c for _, _, c in removed) + sum(c for _, _, c in added)

        # 4. Refresh execution speeds and schedule in-cycle progress
        #    events (stage boundaries and completions).  Jobs frozen by
        #    a stalled action do not execute until it resolves.
        self._cycle_end = now + self._config.cycle_length
        self._speeds = {}
        self._state = effective
        frozen = self._frozen_apps()
        for job in self._queue.running():
            if job.job_id in frozen:
                continue
            allocated = effective.cpu_of(job.job_id)
            speed = min(allocated, job.max_speed)
            if speed <= EPSILON:
                continue
            self._speeds[job.job_id] = speed
            start = now + delays.get(job.job_id, 0.0)
            self._run_since[job.job_id] = start
            self._schedule_progress(job, start, events)

        # 5. Record the cycle sample.
        self._record_cycle(effective, now, changes, decision_seconds, churn, moved_mb)
        self._emit(
            now, TraceEventKind.CYCLE, "controller",
            changes=changes,
            running=len(self._speeds),
            decision_ms=round(decision_seconds * 1e3, 2),
        )
        if self.alert_engine is not None:
            self.alert_engine.observe(self._observe_cycle(effective, now))

        # 6. Book-keeping and the next cycle.
        self._queue.prune_completed()
        more_batch = bool(self._queue.incomplete()) or not self._arrivals_done
        next_cycle = now + self._config.cycle_length
        past_horizon = (
            self._config.max_time is not None
            and next_cycle > self._config.max_time + EPSILON
        )
        if more_batch and not past_horizon:
            events.schedule(next_cycle, (_CYCLE, None), priority=PRIORITY_CYCLE)

    # ------------------------------------------------------------------
    # Placement application
    # ------------------------------------------------------------------
    def _frozen_apps(self) -> set:
        """Apps frozen mid-action by a stalled attempt (no execution)."""
        if self._reconciler is None:
            return set()
        return {
            app_id
            for app_id, pending in self._reconciler.pending.items()
            if pending.holding
        }

    def _actuate(
        self, new_state: PlacementState, now: float, events: EventQueue
    ) -> Tuple[int, Dict[str, float], float, PlacementState]:
        """Classify per-job placement changes as VM control actions and
        carry them out.

        Returns ``(change_count, per-job execution delays, migrated
        memory MB, effective state)``.  Change semantics (and Figure 4's
        counting):

        * queued job placed            -> BOOT (not a "change")
        * running job unplaced         -> SUSPEND (1 change)
        * suspended job, same node     -> RESUME (1 change)
        * suspended job, other node    -> migrate + resume (1 change)
        * running job, other node      -> live MIGRATE (1 change)

        With no fault model every action commits at once and the
        effective state is the desired one.  With a fault model every
        attempt is sampled by the reconciler; the effective state starts
        as a copy of the desired one and is patched for every failed
        action: the instance goes back exactly where it was, so capacity
        is never double-counted and the next cycle's policy plans from
        what the cluster actually looks like.
        """
        costs = self._config.cost_model
        rec = self._reconciler
        changes = 0
        moved_mb = 0.0
        delays: Dict[str, float] = {}
        actual = new_state if rec is None else new_state.copy()
        for job in self._queue.incomplete():
            old_set = set(self._state.nodes_of(job.job_id))
            new_set = set(new_state.nodes_of(job.job_id))

            if not new_set:
                if job.status is not JobStatus.RUNNING:
                    continue
                action = ActionType.SUSPEND
                base = costs.suspend_cost(job.memory_mb)
            elif job.status is JobStatus.NOT_STARTED:
                action = ActionType.BOOT
                base = costs.boot_cost(job.memory_mb)
            elif job.status is JobStatus.SUSPENDED:
                if job.node in new_set:
                    action = ActionType.RESUME
                    base = costs.resume_cost(job.memory_mb)
                else:
                    action = ActionType.MIGRATE
                    base = costs.migrate_cost(job.memory_mb) + costs.resume_cost(
                        job.memory_mb
                    )
            elif job.status is JobStatus.RUNNING and old_set - new_set:
                # Losing nodes means (at least part of) the job moved: a
                # live migration.
                action = ActionType.MIGRATE
                base = costs.migrate_cost(job.memory_mb)
            else:
                # Pure growth (new instances of a parallel job booting on
                # extra nodes) or no-op: dispatch, not reconfiguration
                # churn, and never a fallible action.
                if job.node not in new_set:
                    job.node = min(new_set)
                continue

            if rec is None:
                directive = _COMMIT_NOW
            else:
                pending = PendingAction(
                    action=action,
                    app_id=job.job_id,
                    dest_nodes={
                        n: new_state.instances(job.job_id).get(n, 0)
                        for n in new_set
                    },
                    dest_cpu={n: new_state.cpu_on(job.job_id, n) for n in new_set},
                    prior_nodes={
                        n: self._state.instances(job.job_id).get(n, 0)
                        for n in old_set
                    },
                    prior_cpu={n: self._state.cpu_on(job.job_id, n) for n in old_set},
                    prior_status=job.status,
                    prior_node_attr=job.node,
                    memory_mb=job.memory_mb,
                    base_delay=base,
                    issued_at=now,
                )
                directive = rec.attempt(pending, now)
            if directive.decision is Decision.COMMIT:
                change, moved = self._commit_transition(
                    job, action, old_set, new_set, job.memory_mb, now,
                    base + directive.extra_delay, delays,
                )
                changes += change
                moved_mb += moved
            elif directive.decision is Decision.STALL:
                self._begin_stall(pending, job, directive, now, events)
            else:
                # Failed outright: the instance stays where it was.
                self._emit_fault(
                    TraceEventKind.ACTION_FAILED, pending, now, reason="fault"
                )
                if not self._revert_in(actual, job, pending, now):
                    changes += 1  # degraded to a forced suspension
                self._dispatch_followup(pending, directive, now, events)
        return changes, delays, moved_mb, actual

    def _commit_transition(
        self,
        job: Job,
        action: ActionType,
        prior_nodes: Collection[str],
        dest_nodes: Collection[str],
        memory_mb: float,
        now: float,
        delay: float,
        delays: Dict[str, float],
    ) -> Tuple[int, float]:
        """Apply the job-state effects of a committed action (the
        placement itself is already in the target state) and report it.

        Returns the action's ``(placement changes, migrated memory MB)``;
        a job that runs again starts after ``delay`` (set in ``delays``).
        """
        change = 1 if action in CHANGE_ACTIONS else 0
        if action is ActionType.SUSPEND:
            job.status = JobStatus.SUSPENDED
            job.suspend_count += 1
            self._speeds.pop(job.job_id, None)
            self._run_since.pop(job.job_id, None)
            self._cancel_progress(job.job_id)
            # job.node keeps the suspension node for resume/migrate
            # classification next time it is placed.
            self._emit(now, TraceEventKind.SUSPEND, job.job_id, node=job.node)
            return change, 0.0
        primary = min(dest_nodes)
        delays[job.job_id] = delay
        if action is ActionType.BOOT:
            job.status = JobStatus.RUNNING
            job.start_time = now
            job.node = primary
            self._emit(
                now, TraceEventKind.BOOT, job.job_id, node=primary,
                delay=round(delay, 2),
            )
            return change, 0.0
        if action is ActionType.RESUME:
            job.resume_count += 1
            job.status = JobStatus.RUNNING
            self._emit(
                now, TraceEventKind.RESUME, job.job_id, node=job.node,
                delay=round(delay, 2),
            )
            return change, 0.0
        job.migration_count += 1
        if job.status is JobStatus.SUSPENDED:
            # Migrate + resume of a suspended instance.
            source = job.node
            job.status = JobStatus.RUNNING
        else:
            # Live migration of a running instance.
            source = min(prior_nodes)
        if job.node not in dest_nodes:
            job.node = primary
        self._emit(
            now, TraceEventKind.MIGRATE, job.job_id,
            source=source, node=primary, delay=round(delay, 2),
        )
        return change, memory_mb

    # ------------------------------------------------------------------
    # Action faults (fault-injection extension)
    # ------------------------------------------------------------------
    def _revert_in(
        self,
        state: PlacementState,
        job: Job,
        pending: PendingAction,
        now: float,
    ) -> bool:
        """Put the instance back where it was before the failed action.

        Mutates ``state``: removes whatever the action claimed at the
        destination and restores the prior placement and CPU shares.
        Returns ``False`` when the fallback slot has meanwhile been given
        away (or its node died) and the job had to be force-suspended
        instead — progress is kept, and the next cycle re-plans it.
        """
        app_id = job.job_id
        for node in sorted(pending.dest_nodes):
            have = state.instances(app_id).get(node, 0)
            if have:
                state.remove(app_id, node, min(have, pending.dest_nodes[node]))
        placed = []
        try:
            for node in sorted(pending.prior_nodes):
                count = pending.prior_nodes[node]
                if count <= 0:
                    continue
                if not self._cluster.node(node).available:
                    raise CapacityError(f"fallback node {node} is down")
                state.place(app_id, node, pending.memory_mb, count)
                placed.append((node, count))
        except (CapacityError, PlacementError):
            for node, count in placed:
                state.remove(app_id, node, count)
            if pending.prior_status is JobStatus.RUNNING:
                job.status = JobStatus.SUSPENDED
                job.suspend_count += 1
                self._speeds.pop(app_id, None)
                self._run_since.pop(app_id, None)
                self._cancel_progress(app_id)
                self._emit(
                    now, TraceEventKind.SUSPEND, app_id,
                    node=pending.prior_node_attr, reason="fallback-lost",
                )
            return False
        for node in sorted(pending.prior_cpu):
            cpu = pending.prior_cpu[node]
            if cpu <= EPSILON:
                continue
            grant = min(cpu, state.cpu_available(node) + state.cpu_on(app_id, node))
            state.set_cpu(app_id, node, grant)
        return True

    def _begin_stall(
        self,
        pending: PendingAction,
        job: Job,
        directive: Directive,
        now: float,
        events: EventQueue,
    ) -> None:
        """The action is in flight but not converging: the destination
        resources stay claimed, the instance is frozen (it neither
        executes nor fails) until the stall timeout fires."""
        pending.holding = True
        self._speeds.pop(job.job_id, None)
        self._run_since.pop(job.job_id, None)
        self._cancel_progress(job.job_id)
        pending.event_handle = events.schedule(
            directive.at, (_STALL_TIMEOUT, pending), priority=PRIORITY_ARRIVAL
        )
        self._emit_fault(
            TraceEventKind.ACTION_STALLED, pending, now,
            timeout_at=round(directive.at, 1),
        )

    def _dispatch_followup(
        self,
        pending: PendingAction,
        directive: Directive,
        now: float,
        events: EventQueue,
    ) -> None:
        """Schedule (or close out) the aftermath of a failed attempt."""
        if directive.decision is Decision.RETRY:
            self._emit_fault(
                TraceEventKind.ACTION_RETRIED, pending, now,
                retry_at=round(directive.at, 1),
            )
            pending.event_handle = events.schedule(
                directive.at, (_RETRY, pending), priority=PRIORITY_ARRIVAL
            )
        else:
            self._emit_fault(TraceEventKind.ACTION_ABANDONED, pending, now)

    def _retry_pending(
        self, pending: PendingAction, now: float, events: EventQueue
    ) -> None:
        """A scheduled retry fired: re-attempt the action mid-cycle."""
        rec = self._reconciler
        if rec is None or rec.pending.get(pending.app_id) is not pending:
            return  # superseded by a newer control cycle
        pending.event_handle = None
        job = (
            self._queue.job(pending.app_id)
            if pending.app_id in self._queue else None
        )
        if job is None or job.status is not pending.prior_status:
            # The world changed under us (completion, node outage, ...):
            # the retry no longer applies.
            rec.supersede(pending, now)
            return
        directive = rec.attempt(pending, now)
        if directive.decision is Decision.COMMIT:
            self._commit_retry(pending, job, directive.extra_delay, now, events)
        elif directive.decision is Decision.STALL:
            try:
                self._claim_destination(pending, job)
            except ActionFailedError as exc:
                self._destination_lost(pending, now, events, exc.reason)
            else:
                self._begin_stall(pending, job, directive, now, events)
        else:
            self._emit_fault(
                TraceEventKind.ACTION_FAILED, pending, now, reason="fault"
            )
            self._dispatch_followup(pending, directive, now, events)

    def _commit_retry(
        self,
        pending: PendingAction,
        job: Job,
        extra_delay: float,
        now: float,
        events: EventQueue,
    ) -> None:
        """A retried action finally succeeded: move the instance in the
        live state and restart execution under the new placement."""
        try:
            self._claim_destination(pending, job)
        except ActionFailedError as exc:
            self._destination_lost(pending, now, events, exc.reason)
            return
        self._advance_job(job, now)  # credit progress made on the fallback
        delays: Dict[str, float] = {}
        change, moved = self._commit_transition(
            job, pending.action, pending.prior_nodes, pending.dest_nodes,
            pending.memory_mb, now, pending.base_delay + extra_delay, delays,
        )
        self._deferred_changes += change
        self._deferred_moved_mb += moved
        if job.status is not JobStatus.RUNNING:
            return  # committed suspend: nothing left to schedule
        speed = min(self._state.cpu_of(job.job_id), job.max_speed)
        if speed <= EPSILON:
            self._speeds.pop(job.job_id, None)
            self._run_since.pop(job.job_id, None)
            self._cancel_progress(job.job_id)
            return
        start = now + delays.get(job.job_id, 0.0)
        self._speeds[job.job_id] = speed
        self._run_since[job.job_id] = start
        self._schedule_progress(job, start, events)

    def _claim_destination(self, pending: PendingAction, job: Job) -> None:
        """Move the instance from its fallback to the action's destination
        in the live state.

        On capacity loss (the slot was given away mid-backoff, or the
        destination node died) everything is rolled back and
        :class:`~repro.errors.ActionFailedError` is raised.
        """
        app_id = job.job_id
        state = self._state
        for node in sorted(pending.prior_nodes):
            have = state.instances(app_id).get(node, 0)
            if have:
                state.remove(app_id, node, min(have, pending.prior_nodes[node]))
        placed = []
        try:
            for node in sorted(pending.dest_nodes):
                count = pending.dest_nodes[node]
                if count <= 0:
                    continue
                if not self._cluster.node(node).available:
                    raise CapacityError(f"destination node {node} is down")
                state.place(app_id, node, pending.memory_mb, count)
                placed.append((node, count))
        except (CapacityError, PlacementError) as exc:
            for node, count in placed:
                state.remove(app_id, node, count)
            # Re-place the fallback we just released; it must fit because
            # we freed exactly those slots a moment ago.
            for node in sorted(pending.prior_nodes):
                count = pending.prior_nodes[node]
                if count > 0:
                    state.place(app_id, node, pending.memory_mb, count)
            for node in sorted(pending.prior_cpu):
                cpu = pending.prior_cpu[node]
                if cpu > EPSILON:
                    grant = min(
                        cpu,
                        state.cpu_available(node) + state.cpu_on(app_id, node),
                    )
                    state.set_cpu(app_id, node, grant)
            raise ActionFailedError(
                pending.action_name, app_id, pending.target_node, str(exc)
            ) from exc
        for node in sorted(pending.dest_cpu):
            cpu = pending.dest_cpu[node]
            if cpu <= EPSILON:
                continue
            grant = min(cpu, state.cpu_available(node) + state.cpu_on(app_id, node))
            state.set_cpu(app_id, node, grant)

    def _destination_lost(
        self,
        pending: PendingAction,
        now: float,
        events: EventQueue,
        reason: str,
    ) -> None:
        """An attempt sampled OK but its destination could not actually be
        claimed (capacity gone, node down): treat it as one more failure."""
        directive = self._reconciler.force_failure(pending, now)
        self._emit_fault(
            TraceEventKind.ACTION_FAILED, pending, now,
            reason=f"destination-lost: {reason}",
        )
        self._dispatch_followup(pending, directive, now, events)

    def _stall_timed_out(
        self, pending: PendingAction, now: float, events: EventQueue
    ) -> None:
        """A stalled action exceeded the timeout: release the destination,
        put the instance back, and retry or abandon."""
        rec = self._reconciler
        if rec is None or rec.pending.get(pending.app_id) is not pending:
            return  # superseded by a newer control cycle
        pending.event_handle = None
        pending.holding = False
        job = (
            self._queue.job(pending.app_id)
            if pending.app_id in self._queue else None
        )
        if job is None or job.status is not pending.prior_status:
            rec.supersede(pending, now)
            return
        directive = rec.on_stall_timeout(pending, now)
        self._emit_fault(
            TraceEventKind.ACTION_FAILED, pending, now, reason="stall-timeout"
        )
        reverted = self._revert_in(self._state, job, pending, now)
        if reverted and job.status is JobStatus.RUNNING:
            # Resume execution on the fallback nodes while waiting.
            speed = min(self._state.cpu_of(job.job_id), job.max_speed)
            if speed > EPSILON:
                self._speeds[job.job_id] = speed
                self._run_since[job.job_id] = now
                self._schedule_progress(job, now, events)
        self._dispatch_followup(pending, directive, now, events)

    def _resolve_in_flight(self, now: float) -> None:
        """A new control cycle starts: cancel every pending retry/stall
        and settle their resources so the policy plans from the actual
        placement (in-flight actions are *superseded*, not failed)."""
        rec = self._reconciler
        if rec is None or not rec.pending:
            return
        for pending in list(rec.pending.values()):
            if pending.event_handle is not None:
                pending.event_handle.cancel()
                pending.event_handle = None
            if pending.holding:
                pending.holding = False
                job = (
                    self._queue.job(pending.app_id)
                    if pending.app_id in self._queue else None
                )
                if job is not None and job.status is pending.prior_status:
                    self._revert_in(self._state, job, pending, now)
            rec.supersede(pending, now)

    def _emit_fault(
        self,
        kind: TraceEventKind,
        pending: PendingAction,
        now: float,
        **detail: object,
    ) -> None:
        self._emit(
            now, kind, pending.app_id,
            action=pending.action_name,
            attempt=pending.attempts,
            node=pending.target_node,
            **detail,
        )

    # ------------------------------------------------------------------
    # Live SLO watchdog (opt-in; see SimulationConfig.alerts)
    # ------------------------------------------------------------------
    def _observe_cycle(
        self, effective: PlacementState, now: float
    ) -> CycleObservation:
        """Build the watchdog's view of the cycle just recorded.

        Pure read-only derivation from state the control loop already
        maintains — it mutates nothing the simulation consults, so
        enabling alerting cannot perturb results.
        """
        sample = self.metrics.cycles[-1]
        completions = self.metrics.completions
        new_completions = completions[self._alert_completions_seen:]
        self._alert_completions_seen = len(completions)

        waiting = self._queue.not_started() + self._queue.suspended()
        ages = [max(0.0, now - job.submit_time) for job in waiting]
        slacks = [
            job.completion_goal
            - now
            - job.remaining_work / max(job.max_speed, EPSILON)
            for job in waiting
        ]

        moves: Dict[str, int] = {}
        prev_moves = self._alert_prev_moves
        current_moves: Dict[str, int] = {}
        for job in self._queue.incomplete():
            total = job.suspend_count + job.resume_count + job.migration_count
            current_moves[job.job_id] = total
            delta = total - prev_moves.get(job.job_id, 0)
            if delta > 0:
                moves[job.job_id] = delta
        self._alert_prev_moves = current_moves

        utilization: Dict[str, float] = {}
        below_goal: Dict[str, list] = {}
        for node in self._cluster.nodes:
            if not node.available:
                continue
            capacity = node.cpu_capacity
            if capacity <= EPSILON:
                continue
            utilization[node.name] = 1.0 - effective.cpu_available(node.name) / capacity
        for app_id, utility in sample.txn_utilities.items():
            if utility < 0.0:
                for node_name in effective.nodes_of(app_id):
                    below_goal.setdefault(node_name, []).append(app_id)

        faults = self.metrics.faults
        attempts = sum(faults.attempts.values())
        stalls = sum(faults.stalls.values())
        obs = CycleObservation(
            time=now,
            cycle=len(self.metrics.cycles) - 1,
            txn_utilities=dict(sample.txn_utilities),
            completions_met=[c.met_deadline for c in new_completions],
            queued_ages=ages,
            queued_slacks=slacks,
            app_moves=moves,
            node_utilization=utilization,
            node_below_goal_txn=below_goal,
            action_attempts=attempts - self._alert_prev_attempts,
            action_stalls=stalls - self._alert_prev_stalls,
        )
        self._alert_prev_attempts = attempts
        self._alert_prev_stalls = stalls
        return obs

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_cycle(
        self,
        new_state: PlacementState,
        now: float,
        changes: int,
        decision_seconds: float,
        churn_instances: int = 0,
        migration_distance_mb: float = 0.0,
    ) -> None:
        incomplete = self._queue.incomplete()
        batch_alloc = sum(
            min(new_state.cpu_of(j.job_id), j.max_speed) for j in incomplete
        )
        if incomplete:
            hypo = self._batch_model.hypothetical(now).average_utility(batch_alloc)
        else:
            hypo = float("nan")
        txn_utilities: Dict[str, float] = {}
        txn_allocations: Dict[str, float] = {}
        for app in self._txn_apps:
            allocated = new_state.cpu_of(app.app_id)
            txn_allocations[app.app_id] = allocated
            txn_utilities[app.app_id] = app.rpf_at(now).utility(allocated)
        running = sum(1 for j in incomplete if j.status is JobStatus.RUNNING)
        self.metrics.record_cycle(
            CycleSample(
                time=now,
                batch_hypothetical_utility=hypo,
                batch_allocation_mhz=batch_alloc,
                txn_utilities=txn_utilities,
                txn_allocations_mhz=txn_allocations,
                running_jobs=running,
                queued_jobs=len(incomplete) - running,
                placement_changes=changes,
                decision_seconds=decision_seconds,
                churn_instances=churn_instances,
                migration_distance_mb=migration_distance_mb,
            )
        )
