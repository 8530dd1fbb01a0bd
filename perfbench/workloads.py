"""The benchmark's workloads: seeded inputs, a timed window, output checks.

Each workload builds its simulation through the public API
(:class:`~repro.scenario.Scenario`, :meth:`Simulation.from_scenario
<repro.scenario.Simulation.from_scenario>`, :class:`MixedWorkloadSimulator
<repro.sim.simulator.MixedWorkloadSimulator>`), positions it at the start
of a timed window (:func:`prepare`), and runs that window
(:func:`run_window`).  The simulator is deterministic: one seed always
simulates exactly the same cycles, so repeated windows differ only in how
long the host took.

Times are process CPU seconds (``time.process_time``), for the window and
for the simulator's own per-cycle decision clock: on a virtual machine
whose vCPU is regularly stolen, wall time of one and the same run varies
by 20-30%.  Each window also records a host speed probe after every
chunk, which the report uses to scale the run's times to reference
seconds (:mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.calibrate import probe
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.experiments.common import PAPER_CONTROL_CYCLE, PAPER_NODES, Scale
from repro.experiments.experiment3 import make_txn_app
from repro.obs.alerts import AlertConfig
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry
from repro.obs.sink import SCHEMA_VERSION, JsonlSink, read_jsonl, validate_jsonl
from repro.obs.tracing import JobTracer
from repro.policies import APCPolicy
from repro.scenario import Scenario, Simulation
from repro.sim.simulator import MixedWorkloadSimulator, NodeFailure, SimulationConfig
from repro.sim.trace import SimulationTrace
from repro.txn.model import TransactionalWorkloadModel
from repro.virt.actions import ActionType
from repro.virt.costs import FREE_COST_MODEL
from repro.virt.faults import ActionFaultModel, FaultSpec
from repro.workloads.generators import experiment_one_jobs

#: The clock every benchmark time is read from (see the module docstring).
CLOCK = time.process_time

CYCLE = PAPER_CONTROL_CYCLE
#: Simulated seconds between the capacity checks (and host speed probes)
#: of a running window.
CHECK_EVERY = 10 * CYCLE
#: Slack for float comparisons against node capacity.
CAPACITY_SLACK = 1e-6

# --- paper-steady / faulty-observed -----------------------------------
#: Experiment One at paper scale (§5.1).
STEADY_JOBS = 800
STEADY_INTERARRIVAL = 260.0
#: Concurrent Experiment One jobs the 25-node cluster holds: memory
#: admits three 4,320 MB jobs per 16 GB node.
STEADY_SLOTS = 75
#: A job holds its slot for its 17,600 s run plus its boot, rounded up to
#: the next control cycle (when the slot is handed on).
STEADY_HOLD = 17_600.0 + 60.0
#: Streams whose queueing model backs up more than this many jobs after
#: a cycle's admissions are skipped (see :func:`steady_inputs`).
STEADY_MAX_BACKLOG = 4
#: Realized mean inter-arrival (s) a kept stream must have.  Streams that
#: never back up run lighter than the nominal 260 s; within that set the
#: per-cycle cost follows the load, so the band keeps it alike across
#: seeds.  About 1% of candidate streams pass both tests.
STEADY_MEAN_GAP = (275.0, 283.0)
#: Candidate streams tried per benchmark seed before giving up.
STEADY_CANDIDATES = 5000
#: The faulty workload's outage: one node, for this many seconds, from
#: the middle of the arrival stream.
OUTAGE_SECONDS = 6 * CYCLE
#: Failure probability of every action type in the faulty workload.
FAULT_PROBABILITY = 0.10

# --- overload ---------------------------------------------------------
#: Experiment Two's mixed classes at paper scale, at the heaviest load of
#: the §5.2 sweep.  At 100 s the cluster is only just saturated and some
#: seeds' backlogs drain within the window.
OVERLOAD_JOBS = 800
OVERLOAD_INTERARRIVAL = 50.0
#: The window opens at the first cycle that starts with this many queued
#: jobs: more than the 48-job queue window, so every timed cycle offers
#: the controller a full window of candidates.
OVERLOAD_BACKLOG = 60
#: Control cycles timed from there.
OVERLOAD_WINDOW = 30
#: Warm-up cycles allowed before a workload's backlog must have formed.
MAX_WARMUP = 400

# --- share ------------------------------------------------------------
#: §5.3 with dynamic sharing, at 4 nodes: one calibrated transactional
#: app beside an Experiment One stream.  The 4-node cluster holds 12 jobs;
#: the controller is offered at most 8 queued ones per cycle.
SHARE_SCALE = Scale("share", nodes=4, job_count=150, queue_window=8)
#: Paper-term mean inter-arrival (stretched by 25/4 at 4 nodes): enough
#: pressure that the backlog persists through the window.
SHARE_INTERARRIVAL = 150.0
#: The window opens at the first cycle that starts with this many queued
#: jobs, more than the queue window, so every timed cycle trades CPU
#: between the two workloads over the same number of candidates.
SHARE_BACKLOG = 10
SHARE_WINDOW = 60


@dataclass
class Observers:
    """Every observability layer attached to one simulation."""

    registry: MetricRegistry
    buffer: io.StringIO
    sink: JsonlSink
    trace: SimulationTrace
    audit: DecisionAudit
    tracer: JobTracer


@dataclass
class Prepared:
    """A simulation positioned at the start of its timed window."""

    simulator: MixedWorkloadSimulator
    policy: APCPolicy
    batch_model: BatchWorkloadModel
    #: Jobs the window must complete (drain workloads), else ``None``.
    drain_jobs: Optional[int]
    #: Simulated end of the window; ``None`` runs until the queue drains.
    until: Optional[float]
    txn_model: Optional[TransactionalWorkloadModel] = None
    observers: Optional[Observers] = None
    registry: Optional[MetricRegistry] = None
    first_cycle: int = 0
    first_completion: int = 0


@dataclass
class WindowResult:
    """What one timed window did."""

    #: CPU seconds of each stretch between two capacity checks.
    chunk_cpu_s: List[float]
    decision_s: List[float]
    #: Host speed probes taken after each chunk (see ``calibrate``).
    probe_s: List[float]
    #: Exact simulated outcomes (identical on every run of a seed).
    outcome: Dict[str, float]
    #: Digest of every cycle sample and completion in the window.
    fingerprint: str
    #: Failed output checks; empty when the window is correct.
    problems: List[str] = field(default_factory=list)
    #: Observability stream size (faulty-observed only).
    sink_records: int = 0
    sink_bytes: int = 0
    audit_records: int = 0
    tracer_events: int = 0
    #: Action outcome counters (``ActionFaultStats.as_dict``).
    faults: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Cache and engine tallies read from the registry, when one is bound.
    registry_counts: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Percentile reported as ``decision_ms_tail``: the highest whole
    #: percentile that leaves at least ten of the window's cycles above it.
    tail_percentile: int
    #: (seed, derived inputs, bind a metric registry) -> prepared window.
    prepare: Callable[[int, Dict, bool], Prepared]
    #: Inputs derived from the seed once per run, outside the timed
    #: set-up: the benchmark choosing its inputs is not program work.
    inputs: Callable[[int], Dict] = lambda seed: {}
    #: Workload-specific output checks of one window.
    check: Callable[[WindowResult], List[str]] = lambda result: []


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def modelled_backlog(
    arrivals: Sequence[float],
    slots: int = STEADY_SLOTS,
    outage: Optional[tuple] = None,
) -> int:
    """Largest backlog left after a cycle's admissions, in a slot model
    of the cluster: every job holds one of ``slots`` for
    :data:`STEADY_HOLD` seconds and is admitted only at control cycles.
    ``outage`` = (start, end, lost slots) takes slots away for a while."""
    i, queued, t, worst = 0, 0, 0.0, 0
    ends: List[float] = []
    while i < len(arrivals) or queued:
        while i < len(arrivals) and arrivals[i] <= t:
            queued += 1
            i += 1
        ends = [e for e in ends if e > t]
        capacity = slots
        if outage is not None and outage[0] <= t < outage[1]:
            capacity -= outage[2]
        admitted = max(0, min(queued, capacity - len(ends)))
        ends.extend([t + STEADY_HOLD] * admitted)
        queued -= admitted
        worst = max(worst, queued)
        t += CYCLE
    return worst


def outage_window(arrivals: Sequence[float]) -> tuple:
    """The faulty workload's outage: from the middle arrival, for
    :data:`OUTAGE_SECONDS`."""
    start = arrivals[len(arrivals) // 2]
    return start, start + OUTAGE_SECONDS


def steady_inputs(seed: int, with_outage: bool = False) -> Dict[str, float]:
    """The Experiment One stream for benchmark seed ``seed``: its
    generator seed and, with ``with_outage``, the outage start.

    §5.1's steady state is the regime where the admission pass places
    every arrival and the controller never needs the search: with
    identical jobs a queued job's headroom is one cycle's goal erosion,
    below the preemption penalty.  At a mean inter-arrival of 260 s the
    cluster runs at about 92% of its slots, so some exponential streams
    build a backlog deep enough to start searching, which multiplies a
    run's cost several times.  The benchmark therefore draws candidate
    streams from ``seed`` in a fixed order and keeps the first whose
    realized mean inter-arrival lies in :data:`STEADY_MEAN_GAP` and whose
    slot model never backs up more than :data:`STEADY_MAX_BACKLOG` jobs.
    """
    for k in range(STEADY_CANDIDATES):
        candidate = seed * STEADY_CANDIDATES + k
        arrivals = [
            job.submit_time
            for job in experiment_one_jobs(
                count=STEADY_JOBS,
                mean_interarrival=STEADY_INTERARRIVAL,
                seed=candidate,
            )
        ]
        low, high = STEADY_MEAN_GAP
        if not low <= arrivals[-1] / len(arrivals) <= high:
            continue
        outage = None
        if with_outage:
            start, end = outage_window(arrivals)
            outage = (start, end, STEADY_SLOTS // PAPER_NODES)
        if modelled_backlog(arrivals, outage=outage) <= STEADY_MAX_BACKLOG:
            inputs = {"stream_seed": candidate}
            if outage is not None:
                inputs["outage_start"] = outage[0]
            return inputs
    raise RuntimeError(f"no steady Experiment One stream for seed {seed}")


def faulty_inputs(seed: int) -> Dict[str, object]:
    """:func:`steady_inputs` with the outage, and the node it takes down."""
    nodes = Scenario().build_cluster().node_names
    return {**steady_inputs(seed, with_outage=True), "outage_node": nodes[seed % len(nodes)]}


def _observers(name: str, seed: int) -> Observers:
    registry = MetricRegistry()
    buffer = io.StringIO()
    sink = JsonlSink(buffer, workload=name, seed=seed)
    trace = SimulationTrace(sink=sink)
    return Observers(
        registry=registry,
        buffer=buffer,
        sink=sink,
        trace=trace,
        audit=DecisionAudit(sink=sink, trace=trace),
        tracer=JobTracer(sink=sink),
    )


def _drain(sim: Simulation, **extra) -> Prepared:
    """A window that runs ``sim`` from the start until its queue drains."""
    return Prepared(
        simulator=sim.simulator,
        policy=sim.policy,
        batch_model=sim.batch_model,
        drain_jobs=len(sim.jobs),
        until=None,
        **extra,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def prepare_paper_steady(seed: int, inputs: Dict, registry: bool) -> Prepared:
    scenario = Scenario(
        name="paper-steady",
        job_count=STEADY_JOBS,
        interarrival=STEADY_INTERARRIVAL,
        seed=inputs["stream_seed"],
    )
    reg = MetricRegistry() if registry else None
    sim = Simulation.from_scenario(scenario, registry=reg, decision_clock=CLOCK)
    return _drain(sim, registry=reg)


def prepare_faulty_observed(seed: int, inputs: Dict, registry: bool) -> Prepared:
    spec = FaultSpec(failure_probability=FAULT_PROBABILITY)
    config = SimulationConfig(
        fault_model=ActionFaultModel(specs={a: spec for a in ActionType}, seed=seed),
        failures=(
            NodeFailure(
                node=inputs["outage_node"],
                fail_time=inputs["outage_start"],
                duration=OUTAGE_SECONDS,
            ),
        ),
        alerts=AlertConfig(),
    )
    scenario = Scenario(
        name="faulty-observed",
        job_count=STEADY_JOBS,
        interarrival=STEADY_INTERARRIVAL,
        seed=inputs["stream_seed"],
        sim=config,
    )
    obs = _observers("faulty-observed", seed)
    sim = Simulation.from_scenario(
        scenario,
        registry=obs.registry,
        trace=obs.trace,
        audit=obs.audit,
        tracer=obs.tracer,
        decision_clock=CLOCK,
    )
    return _drain(sim, observers=obs, registry=obs.registry)


def warm_up(run: Callable[[float], object], cycles: list, backlog: int) -> float:
    """Run cycle by cycle until one starts with ``backlog`` queued jobs;
    returns that cycle's time."""
    now = 0.0
    while not cycles or cycles[-1].queued_jobs < backlog:
        if len(cycles) >= MAX_WARMUP:
            raise RuntimeError(
                f"no backlog of {backlog} jobs after {len(cycles)} cycles"
            )
        run(now)
        now += CYCLE
    return cycles[-1].time


def prepare_overload(seed: int, inputs: Dict, registry: bool) -> Prepared:
    """Warm up with the admission pass only (the search switched off),
    which builds the backlog cheaply, then hand the snapshot to the full
    controller and time :data:`OVERLOAD_WINDOW` cycles of it."""
    scenario = Scenario(
        name="overload",
        workload="experiment2",
        job_count=OVERLOAD_JOBS,
        interarrival=OVERLOAD_INTERARRIVAL,
        seed=seed,
        apc=APCConfig(enable_search=False),
        # Experiment Two ignores the cost of placement changes (§5.2).
        sim=SimulationConfig(cost_model=FREE_COST_MODEL),
    )
    warm = Simulation.from_scenario(scenario)
    start = warm_up(
        lambda t: warm.run(until=t), warm.simulator.metrics.cycles, OVERLOAD_BACKLOG
    )
    snapshot = warm.snapshot()
    snapshot["scenario"]["apc"]["enable_search"] = True
    reg = MetricRegistry() if registry else None
    sim = Simulation.from_snapshot(snapshot, registry=reg, decision_clock=CLOCK)
    metrics = sim.simulator.metrics
    return Prepared(
        simulator=sim.simulator,
        policy=sim.policy,
        batch_model=sim.batch_model,
        drain_jobs=None,
        until=start + OVERLOAD_WINDOW * CYCLE,
        registry=reg,
        first_cycle=len(metrics.cycles),
        first_completion=len(metrics.completions),
    )


def _share_simulation(seed: int, search: bool, registry: Optional[MetricRegistry]):
    """Experiment Three's dynamic-sharing configuration, wired as
    :func:`repro.experiments.experiment3.run_configuration` wires it."""
    scale = SHARE_SCALE
    cluster = scale.cluster()
    txn_app = make_txn_app(scale)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue, queue_window=scale.queue_window)
    txn_model = TransactionalWorkloadModel([txn_app])
    controller = ApplicationPlacementController(
        cluster, APCConfig(cycle_length=CYCLE, enable_search=search)
    )
    if registry is not None:
        batch.bind_registry(registry)
        controller.bind_registry(registry)
    policy = APCPolicy(controller, [txn_model, batch])
    jobs = experiment_one_jobs(
        count=scale.job_count,
        mean_interarrival=scale.interarrival(SHARE_INTERARRIVAL),
        seed=seed,
    )
    simulator = MixedWorkloadSimulator(
        cluster,
        policy,
        queue,
        arrivals=jobs,
        txn_apps=[txn_app],
        batch_model=batch,
        config=SimulationConfig(cycle_length=CYCLE, decision_clock=CLOCK),
        registry=registry,
    )
    return simulator, policy, batch, txn_model


def prepare_share(seed: int, inputs: Dict, registry: bool) -> Prepared:
    """Warm up with the search switched off until the backlog forms, then
    restore the snapshot into the full controller and time
    :data:`SHARE_WINDOW` cycles of it."""
    warm, _, _, _ = _share_simulation(seed, search=False, registry=None)
    start = warm_up(lambda t: warm.run(until=t), warm.metrics.cycles, SHARE_BACKLOG)
    reg = MetricRegistry() if registry else None
    simulator, policy, batch, txn_model = _share_simulation(seed, True, reg)
    simulator.restore(warm.snapshot())
    metrics = simulator.metrics
    return Prepared(
        simulator=simulator,
        policy=policy,
        batch_model=batch,
        drain_jobs=None,
        until=start + SHARE_WINDOW * CYCLE,
        txn_model=txn_model,
        registry=reg,
        first_cycle=len(metrics.cycles),
        first_completion=len(metrics.completions),
    )


def check_paper_steady(result: WindowResult) -> List[str]:
    """§5.1: identical jobs never justify a placement change, and every
    deadline is met."""
    problems = []
    changes = result.outcome["placement_changes"]
    if changes != 0:
        problems.append(f"§5.1 expects zero placement changes, got {changes}")
    met = result.outcome["deadline_met_frac"]
    if met != 1.0:
        problems.append(f"§5.1 expects every deadline met, got {met:.4f}")
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-steady",
            why="Paper 5.1 Experiment One, 25 nodes, 800 jobs: every cycle "
            "takes the admission shortcut, so simulator bookkeeping, batch "
            "model specs and admission set the cost",
            tail_percentile=97,
            prepare=prepare_paper_steady,
            inputs=steady_inputs,
            check=check_paper_steady,
        ),
        Workload(
            name="overload",
            why="Paper 5.2 Experiment Two mixed jobs far past saturation: "
            "every timed cycle runs the three-loop search over a full "
            "48-job queue window",
            tail_percentile=66,
            prepare=prepare_overload,
        ),
        Workload(
            name="share",
            why="Paper 5.3 dynamic sharing of a transactional app and a job "
            "backlog on 4 nodes: the only txn-model workload, on the "
            "small-cluster solver path, load balancing dominant",
            tail_percentile=83,
            prepare=prepare_share,
        ),
        Workload(
            name="faulty-observed",
            why="paper-steady streams with 10% action failures, a node "
            "outage and every observer on: reconciliation and "
            "observability overhead on cheap decisions",
            tail_percentile=97,
            prepare=prepare_faulty_observed,
            inputs=faulty_inputs,
        ),
    )
}


# ----------------------------------------------------------------------
# The timed window and its checks
# ----------------------------------------------------------------------
def capacity_problems(simulator: MixedWorkloadSimulator) -> List[str]:
    """Nodes whose committed placement exceeds their CPU or memory."""
    state = simulator.state
    problems = []
    for node in state.cluster.nodes:
        cpu, mem = state.cpu_used(node.name), state.memory_used(node.name)
        if cpu > node.cpu_capacity + CAPACITY_SLACK:
            problems.append(f"{node.name} CPU {cpu:.1f} > {node.cpu_capacity}")
        if mem > node.memory_capacity + CAPACITY_SLACK:
            problems.append(f"{node.name} memory {mem:.1f} > {node.memory_capacity}")
    return problems


def run_window(prep: Prepared) -> WindowResult:
    """Run the timed window, pausing every :data:`CHECK_EVERY` simulated
    seconds to check node capacity outside the timed region."""
    sim = prep.simulator
    chunks: List[float] = []
    probes: List[float] = []
    problems: List[str] = []
    now = sim.metrics.cycles[-1].time if sim.metrics.cycles else -CYCLE
    while True:
        step = now + CHECK_EVERY
        if prep.until is not None:
            step = min(step, prep.until)
        t0 = CLOCK()
        sim.run(until=step)
        chunks.append(CLOCK() - t0)
        probes.append(probe())
        problems.extend(capacity_problems(sim))
        now = step
        if prep.until is not None and now >= prep.until:
            break
        if prep.until is None and sim.next_event_time is None:
            break

    metrics = sim.metrics
    cycles = metrics.cycles[prep.first_cycle:]
    completions = metrics.completions[prep.first_completion:]
    met = sum(1 for c in completions if c.met_deadline)
    outcome: Dict[str, float] = {
        "cycles": len(cycles),
        "placement_changes": sum(c.placement_changes for c in cycles),
        "completions": len(completions),
        "deadline_met_frac": met / len(completions) if completions else 0.0,
    }
    if prep.txn_model is not None:
        perf = [u for c in cycles for u in c.txn_utilities.values()]
        outcome["txn_perf_mean"] = sum(perf) / len(perf) if perf else 0.0
    if not completions:
        problems.append("no job completed in the window")
    if prep.drain_jobs is not None:
        left = len(prep.batch_model.queue.incomplete())
        if len(metrics.completions) != prep.drain_jobs or left:
            problems.append(
                f"{len(metrics.completions)} of {prep.drain_jobs} jobs "
                f"completed, {left} left"
            )
    digest = hashlib.sha256()
    for c in cycles:
        digest.update(
            repr((c.time, c.placement_changes, c.running_jobs, c.queued_jobs,
                  c.churn_instances, c.batch_allocation_mhz)).encode()
        )
    for c in completions:
        digest.update(repr((c.job_id, c.completion_time)).encode())

    result = WindowResult(
        chunk_cpu_s=chunks,
        probe_s=probes,
        decision_s=[c.decision_seconds for c in cycles],
        outcome=outcome,
        fingerprint=digest.hexdigest(),
        problems=problems,
        faults=metrics.faults.as_dict(),
    )
    if prep.registry is not None:
        result.registry_counts = registry_counts(prep.registry)
    return result


def registry_counts(registry: MetricRegistry) -> Dict[str, object]:
    """The cache outcome counters and engine tallies the trace reports."""
    def by_label(name: str, label: str) -> Dict[str, float]:
        metric = registry.get(name)
        if metric is None:
            return {}
        return {labels[label]: child.value for labels, child in metric.children()}

    return {
        "apc_cache": by_label("repro_apc_cache_total", "outcome"),
        "batch_eval_cache": by_label("repro_batch_eval_cache_total", "outcome"),
        "events_scheduled": by_label("repro_engine_events", "tally").get("scheduled", 0),
    }


def close_stream(prep: Prepared, result: WindowResult) -> None:
    """Finish the observability stream, if the workload has one, and
    check it against schema v5 (outside the timed region)."""
    obs = prep.observers
    if obs is None:
        return
    obs.sink.metrics(obs.registry.collect())
    obs.sink.close()
    text = obs.buffer.getvalue()
    result.sink_records = obs.sink.records_written
    result.audit_records = len(obs.audit)
    result.tracer_events = len(obs.tracer)
    result.sink_bytes = len(text.encode())
    try:
        validate_jsonl(io.StringIO(text))
    except Exception as exc:  # any schema failure fails the run's check
        result.problems.append(f"stream fails validation: {exc}")
        return
    versions = {r.get("v") for r in read_jsonl(io.StringIO(text))}
    if versions != {SCHEMA_VERSION} or SCHEMA_VERSION != 5:
        result.problems.append(f"stream schema versions {sorted(versions)}, want v5")
    if prep.simulator.metrics.faults.total(prep.simulator.metrics.faults.retries) == 0:
        result.problems.append("no action was retried: the fault layer is idle")
