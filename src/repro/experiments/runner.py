"""Parallel scenario sweeps: fan experiment and ablation configs across
worker processes.

Every run is described by a :class:`RunSpec` — a picklable, JSON-round-
trippable record naming the *kind* of run (an experiment driver, an
ablation, or a full :class:`~repro.scenario.Scenario`) plus its
parameters.  :func:`run_sweep` executes a batch of specs, inline or via a
``ProcessPoolExecutor``, and returns per-run *summaries*: plain dicts
(picklable across the pool boundary, JSON-dumpable for artifacts) in the
same order as the input specs, regardless of worker scheduling.

Determinism: a spec fully seeds its run (job streams, fault models), so
``run_sweep(specs, workers=8)`` and ``run_sweep(specs, workers=1)``
produce identical summaries up to wall-clock-derived fields
(``*_seconds`` and the ``repro_decision_seconds`` samples inside
``"metrics"``).

Scenario runs attach a fresh :class:`~repro.obs.registry.MetricRegistry`
whose samples land in the summary under ``"metrics"``;
:meth:`SweepResult.merged_metrics` folds those into one counter view
across the sweep.  A ``trace_path`` parameter streams the run's
simulation trace to a JSONL file as it executes.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro._compat import from_mapping, keyword_only
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.common import SCALES, Scale
from repro.obs.sink import SCHEMA_VERSION

#: Handler registry: kind -> callable(RunSpec) -> summary dict.
_KINDS: Dict[str, Callable[["RunSpec"], Dict[str, object]]] = {}

#: Heartbeat file inside a sweep run directory (schema-v4 ``heartbeat``
#: JSON lines; see :mod:`repro.obs.sink`).
HEARTBEATS_NAME = "heartbeats.jsonl"

#: Cycles per ``run(until=...)`` chunk between progress heartbeats.
_HEARTBEAT_CHUNK_CYCLES = 25

#: The active spec's heartbeat writer, set around handler execution.
#: Module-global (not threaded through handler signatures) because
#: handlers run in single-shot worker processes — one spec per process —
#: and the registry's handler signature must stay picklable-simple.
_HEARTBEAT: Optional["_HeartbeatWriter"] = None


class _HeartbeatWriter:
    """Appends liveness/progress records to a run directory.

    One JSON line per emit, written with ``O_APPEND`` in a single
    ``write`` call, so concurrent workers interleave whole lines (POSIX
    append atomicity) and a killed worker leaves at most one torn final
    line — which readers tolerate.
    """

    def __init__(self, path: str, spec: str, index: int) -> None:
        self.path = path
        self.spec = spec
        self.index = index
        self.started = time.time()

    def emit(self, status: str, **fields: object) -> None:
        record = {
            "v": SCHEMA_VERSION,
            "type": "heartbeat",
            "time": time.time(),
            "spec": self.spec,
            "index": self.index,
            "pid": os.getpid(),
            "status": status,
            **fields,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)


def register_kind(
    kind: str,
) -> Callable[[Callable[["RunSpec"], Dict[str, object]]], Callable]:
    """Register a handler for a spec kind (module-level, so specs stay
    executable inside worker processes)."""

    def decorate(fn: Callable[["RunSpec"], Dict[str, object]]) -> Callable:
        _KINDS[kind] = fn
        return fn

    return decorate


def known_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_KINDS))


@keyword_only
@dataclass
class RunSpec:
    """One runnable unit of a sweep.  Construct with keyword arguments.

    Attributes
    ----------
    kind:
        Which handler executes this spec (see :func:`known_kinds`).
    name:
        Label carried into the summary (defaults to ``kind[seed]``).
    scale:
        Key into :data:`~repro.experiments.common.SCALES` for the
        experiment kinds (ignored by ``scenario`` specs, which carry
        their own cluster shape).
    seed:
        Workload/fault seed for the run.
    params:
        Kind-specific keyword parameters (e.g. ``interarrival``,
        ``policy``, or a full ``scenario`` dict).
    """

    kind: str = "scenario"
    name: str = ""
    scale: Optional[str] = None
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown run kind {self.kind!r}; expected one of {known_kinds()}"
            )
        if self.scale is not None and self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; expected one of {tuple(SCALES)}"
            )
        if not self.name:
            self.name = f"{self.kind}[{self.seed}]"
        self.params = dict(self.params)

    def resolved_scale(self, default: str = "tiny") -> Scale:
        return SCALES[self.scale or default]

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "scale": self.scale,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        return from_mapping(cls, data)


# ----------------------------------------------------------------------
# Handlers (module-level: worker processes re-import this module)
# ----------------------------------------------------------------------
@register_kind("experiment1")
def _run_experiment1(spec: RunSpec) -> Dict[str, object]:
    from repro.experiments.experiment1 import run_experiment_one

    result = run_experiment_one(
        scale=spec.resolved_scale(),
        seed=spec.seed,
        **spec.params,
    )
    return {
        "peak_hypothetical": result.peak_hypothetical,
        "placement_changes": result.placement_changes,
        "deadline_satisfaction": result.deadline_satisfaction,
        "mean_decision_seconds": result.mean_decision_seconds,
        "completed": len(result.metrics.completions),
    }


@register_kind("experiment2")
def _run_experiment2(spec: RunSpec) -> Dict[str, object]:
    from repro.experiments.experiment2 import run_single

    params = dict(spec.params)
    policy = params.pop("policy", "APC")
    interarrival = params.pop("interarrival", 200.0)
    cell = run_single(
        policy, interarrival, spec.resolved_scale(), seed=spec.seed, **params
    )
    return {
        "policy": cell.policy,
        "interarrival": cell.paper_interarrival,
        "deadline_satisfaction": cell.deadline_satisfaction,
        "placement_changes": cell.placement_changes,
    }


@register_kind("experiment3")
def _run_experiment3(spec: RunSpec) -> Dict[str, object]:
    from repro.experiments.experiment3 import run_experiment_three

    result = run_experiment_three(
        scale=spec.resolved_scale(), seed=spec.seed, **spec.params
    )
    return {
        name: {
            "deadline_satisfaction": conf.deadline_satisfaction,
            "min_txn_utility": conf.min_txn_utility(),
            "max_txn_utility": conf.max_txn_utility(),
        }
        for name, conf in result.configurations.items()
    }


@register_kind("sampling_ablation")
def _run_sampling_ablation(spec: RunSpec) -> Dict[str, object]:
    from repro.experiments.ablations import run_sampling_ablation

    rows = run_sampling_ablation(seed=spec.seed, **spec.params)
    return {"rows": [dataclasses.asdict(r) for r in rows]}


@register_kind("cycle_ablation")
def _run_cycle_ablation(spec: RunSpec) -> Dict[str, object]:
    from repro.experiments.ablations import run_cycle_length_ablation

    rows = run_cycle_length_ablation(
        scale=spec.resolved_scale(), seed=spec.seed, **spec.params
    )
    return {"rows": [dataclasses.asdict(r) for r in rows]}


@register_kind("cost_ablation")
def _run_cost_ablation(spec: RunSpec) -> Dict[str, object]:
    from repro.experiments.ablations import run_cost_model_ablation

    rows = run_cost_model_ablation(
        scale=spec.resolved_scale(), seed=spec.seed, **spec.params
    )
    return {"rows": [dataclasses.asdict(r) for r in rows]}


@register_kind("scenario")
def _run_scenario(spec: RunSpec) -> Dict[str, object]:
    from repro.obs.registry import MetricRegistry
    from repro.obs.sink import JsonlSink
    from repro.scenario import Scenario, Simulation
    from repro.sim.trace import SimulationTrace

    params = dict(spec.params)
    scenario_data = params.pop("scenario", None)
    if scenario_data is None:
        raise ConfigurationError("scenario specs need a 'scenario' params entry")
    trace_path = params.pop("trace_path", None)
    if params:
        raise ConfigurationError(
            f"unknown scenario spec params: {sorted(params)}"
        )
    scenario = (
        scenario_data
        if isinstance(scenario_data, Scenario)
        else Scenario.from_dict(scenario_data)
    )
    registry = MetricRegistry()
    sink = JsonlSink(trace_path, run=spec.name) if trace_path else None
    trace = SimulationTrace(sink=sink) if sink is not None else None
    try:
        simulation = Simulation.from_scenario(
            scenario, registry=registry, trace=trace
        )
        if _HEARTBEAT is None:
            metrics = simulation.run()
        else:
            metrics = _run_with_heartbeats(simulation, scenario, _HEARTBEAT)
    finally:
        if sink is not None:
            sink.close()
    from repro.sim.metrics import sla_summary

    summary = {
        "scenario": scenario.name,
        "policy": scenario.policy,
        "deadline_satisfaction": metrics.deadline_satisfaction_rate(),
        "placement_changes": metrics.total_placement_changes(),
        "completed": len(metrics.completions),
        "mean_decision_seconds": metrics.mean_decision_seconds(),
        "sla": sla_summary(metrics),
        "metrics": registry.collect(),
        "trace_path": trace_path,
    }
    engine = simulation.simulator.alert_engine
    if engine is not None:
        summary["alerts"] = engine.summary()
    return summary


def _run_with_heartbeats(simulation, scenario, hb: "_HeartbeatWriter"):
    """Drive the simulation in ``run(until=...)`` chunks, emitting one
    progress heartbeat per chunk.

    Chunked execution is result-identical to one straight ``run()`` (the
    event queue persists across calls); only the wall-clock heartbeat
    side channel differs.
    """
    cycle_length = scenario.sim.cycle_length
    chunk = cycle_length * _HEARTBEAT_CHUNK_CYCLES
    horizon = chunk
    while True:
        metrics = simulation.run(until=horizon)
        sim = simulation.simulator
        next_time = sim.next_event_time
        if next_time is None:
            return metrics
        completed = len(metrics.completions)
        remaining = (
            metrics.cycles[-1].running_jobs + metrics.cycles[-1].queued_jobs
            if metrics.cycles else scenario.job_count
        )
        elapsed = time.time() - hb.started
        eta = elapsed * remaining / completed if completed else None
        fields: Dict[str, object] = {
            "cycle": len(metrics.cycles),
            "sim_time": metrics.cycles[-1].time if metrics.cycles else 0.0,
            "completed": completed,
            "remaining": remaining,
        }
        if eta is not None:
            fields["eta_seconds"] = round(eta, 1)
        engine = sim.alert_engine
        if engine is not None:
            fields["alerts_active"] = len(engine.active)
            fields["alerts_total"] = engine.fired_count
            fields["alert_keys"] = engine.active_keys()[:8]
        hb.emit("running", **fields)
        horizon = max(horizon + chunk, next_time)


@register_kind("selftest")
def _run_selftest(spec: RunSpec) -> Dict[str, object]:
    """Harness-exercising spec: sleep, fail, or kill its own worker.

    Exists so the fault-tolerant pool (timeouts, crash retries, degraded
    workers) can be tested — and demonstrated — without contriving a
    real workload that crashes.  Params: ``sleep`` (seconds), ``fail``
    (raise), ``crash`` (kill the process), ``crash_once_path`` (crash
    only while the marker file does not exist — the retry then
    succeeds), ``value`` (echoed into the summary).
    """
    params = dict(spec.params)
    sleep = float(params.pop("sleep", 0.0))
    fail = params.pop("fail", False)
    crash = params.pop("crash", False)
    crash_once_path = params.pop("crash_once_path", None)
    value = params.pop("value", None)
    if params:
        raise ConfigurationError(f"unknown selftest params: {sorted(params)}")
    if crash_once_path is not None:
        if not os.path.exists(crash_once_path):
            with open(crash_once_path, "w", encoding="utf-8") as fh:
                fh.write(spec.name)
            os._exit(13)
    if crash:
        os._exit(13)
    if sleep:
        time.sleep(sleep)
    if fail:
        raise RuntimeError("selftest failure requested")
    return {"value": value}


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------
def _execute(
    spec_data: Dict[str, object],
    heartbeat_path: Optional[str] = None,
    index: int = 0,
) -> Dict[str, object]:
    """Worker entry point: run one spec, never raise.

    With ``heartbeat_path`` set (sweeps with a run directory), the
    spec's start/end and in-flight progress are appended there as
    schema-v4 ``heartbeat`` records.  The path travels out-of-band —
    never inside the spec payload, which must stay identical to the
    manifest for resume validation.
    """
    global _HEARTBEAT
    hb = None
    if heartbeat_path is not None:
        hb = _HeartbeatWriter(
            heartbeat_path,
            str(spec_data.get("name") or spec_data.get("kind", "?")),
            index,
        )
    try:
        spec = RunSpec.from_dict(spec_data)
        if hb is not None:
            hb.emit("start", run_kind=spec.kind)
            _HEARTBEAT = hb
        try:
            summary = _KINDS[spec.kind](spec)
        finally:
            _HEARTBEAT = None
        if hb is not None:
            hb.emit("ok")
        return {"name": spec.name, "kind": spec.kind, "ok": True, **summary}
    except Exception as exc:  # surface, don't poison the pool
        if hb is not None:
            hb.emit("failed", error=f"{type(exc).__name__}: {exc}")
        return {
            "name": spec_data.get("name") or spec_data.get("kind", "?"),
            "kind": spec_data.get("kind", "?"),
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }


@dataclass
class SweepResult:
    """Summaries of one sweep, in input-spec order."""

    specs: List[RunSpec]
    summaries: List[Dict[str, object]]
    workers: int = 1

    def __iter__(self):
        return iter(self.summaries)

    def __len__(self) -> int:
        return len(self.summaries)

    def failures(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Summaries that did not succeed.

        ``kind`` filters the list: ``"failed"`` keeps runs whose spec
        raised inside the handler (deterministic — a retry would fail
        the same way), ``"crashed"`` keeps runs whose worker process
        died or timed out (environmental — these *are* retried, up to
        the sweep's attempt budget).  ``None`` returns both.
        """
        if kind not in (None, "failed", "crashed"):
            raise ValueError(
                f"kind must be None, 'failed' or 'crashed', got {kind!r}"
            )
        out: List[Dict[str, object]] = []
        for summary in self.summaries:
            if summary.get("ok"):
                continue
            crashed = bool(summary.get("crashed"))
            if kind == "crashed" and not crashed:
                continue
            if kind == "failed" and crashed:
                continue
            out.append(summary)
        return out

    @property
    def total_retries(self) -> int:
        """Extra attempts beyond the first, summed over all runs."""
        return sum(
            max(0, int(s.get("attempts", 1)) - 1) for s in self.summaries
        )

    def by_name(self, name: str) -> Dict[str, object]:
        for summary in self.summaries:
            if summary.get("name") == name:
                return summary
        raise KeyError(name)

    def merged_metrics(self) -> Dict[str, float]:
        """Counter samples summed across all runs, keyed
        ``name{label=value,...}`` — one aggregate view of a sweep's
        telemetry (search shortcuts, submissions, ...)."""
        merged: Dict[str, float] = {}
        for summary in self.summaries:
            for sample in summary.get("metrics", ()):
                if sample.get("kind") != "counter":
                    continue
                labels = sample.get("labels") or {}
                label_part = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                key = sample["name"] + (
                    f"{{{label_part}}}" if label_part else ""
                )
                merged[key] = merged.get(key, 0.0) + float(sample["value"])
        return merged

    def to_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "specs": [s.to_dict() for s in self.specs],
            "summaries": self.summaries,
            "failed": len(self.failures("failed")),
            "crashed": len(self.failures("crashed")),
            "retries": self.total_retries,
        }


SpecLike = Union[RunSpec, Mapping[str, object]]

#: Version stamped into the sweep manifest and every results line.
CHECKPOINT_VERSION = 1

_MANIFEST_NAME = "sweep.json"
_RESULTS_NAME = "results.jsonl"


# ----------------------------------------------------------------------
# Run-directory checkpointing
# ----------------------------------------------------------------------
def _init_run_dir(run_dir: str, payloads: List[Dict[str, object]]) -> None:
    """Prepare a fresh run directory: write the spec manifest atomically.

    Refuses to start a *new* sweep into a directory that already holds
    checkpointed results — that is what ``resume=True`` is for.
    """
    os.makedirs(run_dir, exist_ok=True)
    results_path = os.path.join(run_dir, _RESULTS_NAME)
    if os.path.exists(results_path) and os.path.getsize(results_path) > 0:
        raise CheckpointError(
            f"{run_dir!r} already holds checkpointed sweep results; "
            "pass resume=True (repro sweep --resume) to continue it, or "
            "use a fresh directory"
        )
    manifest = {"version": CHECKPOINT_VERSION, "specs": payloads}
    tmp_path = os.path.join(run_dir, _MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, os.path.join(run_dir, _MANIFEST_NAME))


def _load_manifest(run_dir: str) -> List[Dict[str, object]]:
    """The checkpointed spec payloads, validated."""
    path = os.path.join(run_dir, _MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(
            f"{run_dir!r} has no sweep manifest ({_MANIFEST_NAME}); "
            "it is not a resumable run directory"
        ) from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"sweep manifest in {run_dir!r} is corrupt: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or "specs" not in manifest:
        raise CheckpointError(
            f"sweep manifest in {run_dir!r} is malformed (no 'specs')"
        )
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"sweep manifest version {manifest.get('version')!r} is not "
            f"supported (this code reads version {CHECKPOINT_VERSION})"
        )
    return list(manifest["specs"])


def _load_results(run_dir: str, spec_count: int) -> Dict[int, Dict[str, object]]:
    """Checkpointed summaries by spec index.

    A truncated *final* line is tolerated (the writer was killed
    mid-append; that spec simply re-runs); corruption anywhere else
    means the file cannot be trusted and raises
    :class:`~repro.errors.CheckpointError`.
    """
    path = os.path.join(run_dir, _RESULTS_NAME)
    done: Dict[int, Dict[str, object]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return done
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines) - 1:
                break  # killed mid-append: drop the partial record
            raise CheckpointError(
                f"sweep checkpoint {path!r} is corrupt at line "
                f"{lineno + 1}: {exc}"
            ) from exc
        if entry.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"sweep checkpoint {path!r} line {lineno + 1} has "
                f"unsupported version {entry.get('version')!r}"
            )
        index = entry.get("index")
        if not isinstance(index, int) or not 0 <= index < spec_count:
            raise CheckpointError(
                f"sweep checkpoint {path!r} line {lineno + 1} references "
                f"spec index {index!r}, outside the manifest's "
                f"{spec_count} specs"
            )
        done[index] = entry["summary"]
    return done


# ----------------------------------------------------------------------
# Fault-tolerant worker pool
# ----------------------------------------------------------------------
def _pool_worker(
    payload: Dict[str, object],
    conn,
    heartbeat_path: Optional[str] = None,
    index: int = 0,
) -> None:
    """Child-process entry: run one spec, ship the summary back."""
    try:
        conn.send(_execute(payload, heartbeat_path, index))
    finally:
        conn.close()


def _run_pool(
    todo: Sequence[Tuple[int, Dict[str, object]]],
    workers: int,
    spec_timeout: Optional[float],
    max_attempts: int,
    on_result: Callable[[int, Dict[str, object]], None],
    heartbeat_path: Optional[str] = None,
) -> None:
    """Run payloads on a pool of single-shot worker processes.

    One process per attempt, talking back over a pipe: a worker that
    dies (any cause — OOM kill, segfault, ``os._exit``) or exceeds
    ``spec_timeout`` only loses its own spec.  Crashed specs are
    re-enqueued with the *identical* payload (seed-stable retry) until
    ``max_attempts`` is exhausted, then recorded as ``crashed``; the
    pool itself degrades but never dies.
    """
    ctx = multiprocessing.get_context()
    queued = deque(todo)
    attempts: Dict[int, int] = {}
    #: conn -> (process, spec index, payload, absolute deadline or None)
    running: Dict[object, Tuple[object, int, Dict[str, object], Optional[float]]] = {}

    def settle_crash(index: int, payload: Dict[str, object], why: str) -> None:
        if attempts[index] < max_attempts:
            queued.append((index, payload))
            return
        on_result(index, {
            "name": payload.get("name") or payload.get("kind", "?"),
            "kind": payload.get("kind", "?"),
            "ok": False,
            "crashed": True,
            "error": why,
            "attempts": attempts[index],
        })

    try:
        while queued or running:
            while queued and len(running) < workers:
                index, payload = queued.popleft()
                attempts[index] = attempts.get(index, 0) + 1
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(payload, child_conn, heartbeat_path, index),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                deadline = (
                    time.monotonic() + spec_timeout
                    if spec_timeout is not None else None
                )
                running[parent_conn] = (proc, index, payload, deadline)
            for conn in _connection_wait(list(running), timeout=0.1):
                proc, index, payload, _ = running.pop(conn)
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    result = None
                conn.close()
                proc.join()
                if result is None:
                    settle_crash(
                        index, payload,
                        f"worker died (exit code {proc.exitcode})",
                    )
                else:
                    on_result(index, {**result, "attempts": attempts[index]})
            if spec_timeout is not None:
                now = time.monotonic()
                for conn in list(running):
                    proc, index, payload, deadline = running[conn]
                    if deadline is not None and now > deadline:
                        del running[conn]
                        proc.kill()
                        proc.join()
                        conn.close()
                        settle_crash(
                            index, payload,
                            f"worker timed out after {spec_timeout}s",
                        )
    finally:
        for conn, (proc, _, _, _) in running.items():
            proc.kill()
            conn.close()


def run_sweep(
    specs: Optional[Sequence[SpecLike]] = None,
    workers: Optional[int] = None,
    *,
    run_dir: Optional[str] = None,
    resume: bool = False,
    spec_timeout: Optional[float] = None,
    max_attempts: int = 2,
) -> SweepResult:
    """Execute every spec and collect summaries in input order.

    ``workers=None`` sizes the pool to ``min(len(specs), cpu_count)``;
    ``workers<=1`` runs inline (no subprocesses — the debuggable path,
    and byte-identical summaries modulo ``*_seconds`` timing fields).
    A spec that raises never raises out of the sweep; it surfaces as an
    ``ok: False`` summary with the error message.

    Crash safety (all opt-in):

    * ``run_dir`` checkpoints the sweep: the spec manifest is written up
      front and each finished spec is appended (flushed and fsynced) to
      ``results.jsonl`` — a SIGKILL at any point loses at most the specs
      still in flight.
    * ``resume=True`` continues a checkpointed sweep from ``run_dir``:
      completed specs are served from the checkpoint, the rest run.
      ``specs`` may be omitted (the manifest is authoritative); if given
      they must match the manifest.
    * ``spec_timeout`` kills any pooled worker that exceeds it (seconds
      per attempt); ``max_attempts`` bounds seed-stable retries for
      crashed or timed-out workers (deterministic in-handler failures
      are *not* retried).  Both apply to the pooled path only — inline
      runs execute in this process, which cannot outlive its own specs.
    """
    if max_attempts < 1:
        raise ConfigurationError(
            f"max_attempts must be >= 1, got {max_attempts}"
        )
    if resume:
        if run_dir is None:
            raise ConfigurationError("resume=True requires run_dir")
        payloads = _load_manifest(run_dir)
        if specs is not None:
            given = [
                (s if isinstance(s, RunSpec) else RunSpec.from_dict(s)).to_dict()
                for s in specs
            ]
            if given != payloads:
                raise CheckpointError(
                    f"the given specs do not match the sweep manifest in "
                    f"{run_dir!r}; resume without specs to use the "
                    "manifest, or start a fresh run directory"
                )
        try:
            normalized = [RunSpec.from_dict(p) for p in payloads]
        except (ConfigurationError, TypeError) as exc:
            raise CheckpointError(
                f"sweep manifest in {run_dir!r} holds an unreadable spec: {exc}"
            ) from exc
        done = _load_results(run_dir, len(normalized))
    else:
        if specs is None:
            raise ConfigurationError(
                "run_sweep needs specs (or resume=True with a run_dir)"
            )
        normalized = [
            s if isinstance(s, RunSpec) else RunSpec.from_dict(s) for s in specs
        ]
        payloads = [s.to_dict() for s in normalized]
        done = {}
        if run_dir is not None and normalized:
            _init_run_dir(run_dir, payloads)
    if not normalized:
        return SweepResult(specs=[], summaries=[], workers=0)
    if workers is None:
        workers = min(len(normalized), os.cpu_count() or 1)
    todo = [(i, payloads[i]) for i in range(len(payloads)) if i not in done]
    summaries_by_index: Dict[int, Dict[str, object]] = dict(done)

    results_fh = None
    heartbeat_path = None
    if run_dir is not None:
        results_fh = open(
            os.path.join(run_dir, _RESULTS_NAME), "a", encoding="utf-8"
        )
        heartbeat_path = os.path.join(run_dir, HEARTBEATS_NAME)

    def on_result(index: int, summary: Dict[str, object]) -> None:
        summaries_by_index[index] = summary
        if results_fh is not None:
            results_fh.write(json.dumps({
                "version": CHECKPOINT_VERSION,
                "index": index,
                "summary": summary,
            }) + "\n")
            results_fh.flush()
            os.fsync(results_fh.fileno())

    try:
        if workers <= 1:
            for index, payload in todo:
                on_result(
                    index,
                    {**_execute(payload, heartbeat_path, index), "attempts": 1},
                )
            workers = 1
        else:
            _run_pool(
                todo, workers, spec_timeout, max_attempts, on_result,
                heartbeat_path=heartbeat_path,
            )
    finally:
        if results_fh is not None:
            results_fh.close()
    summaries = [summaries_by_index[i] for i in range(len(normalized))]
    return SweepResult(specs=normalized, summaries=summaries, workers=workers)
