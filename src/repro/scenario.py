"""Declarative scenario descriptions and the one-call simulation builder.

The experiment drivers (:mod:`repro.experiments`) wire the same object
graph every time: cluster → job stream → queue → batch workload model →
placement controller → policy → simulator.  :class:`Scenario` captures
that wiring as plain data — JSON-loadable, round-trippable through
:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict` — and
:class:`Simulation.from_scenario` assembles the live objects.

A scenario is *complete*: two processes given equal scenario dicts build
equal simulations (seeded job streams, seeded fault models), which is
what lets :mod:`repro.experiments.runner` fan scenarios out across
worker processes and merge the results deterministically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro._compat import keyword_only
from repro.batch.hypothetical import MethodLike, PredictionMethod
from repro.batch.job import Job
from repro.batch.model import BatchWorkloadModel, check_queue_window
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.common import (
    PAPER_CPU_PER_PROCESSOR,
    PAPER_MEMORY_PER_NODE,
    PAPER_NODES,
    PAPER_PROCESSORS_PER_NODE,
)
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanProfiler
from repro.policies import (
    APCPolicy,
    PlacementPolicy,
    PolicyContext,
    default_policy_registry,
)
from repro.sim.metrics import MetricsRecorder
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.sim.snapshot import SNAPSHOT_SCHEMA_VERSION, check_version, require
from repro.sim.trace import SimulationTrace
from repro.units import is_count, is_finite_real
from repro.workloads.generators import experiment_one_jobs, experiment_two_jobs

#: Workload kinds a scenario can name (the seeded generators).
WORKLOADS = ("experiment1", "experiment2")


@keyword_only
@dataclass
class Scenario:
    """A complete, serializable description of one simulation run.
    Construct with keyword arguments.

    Attributes
    ----------
    name:
        Free-form label (propagated into runner summaries and traces).
    nodes / cpu_per_processor / processors_per_node / memory_per_node:
        Homogeneous cluster shape; the defaults are the paper's
        25-node blade cluster.  ``nodes`` and ``processors_per_node``
        are integers >= 1, the other two positive and finite.
    workload:
        Which seeded job stream to generate: ``"experiment1"``
        (identical jobs, §5.1) or ``"experiment2"`` (mixed classes and
        goal factors, §5.2).
    job_count / interarrival / seed:
        Stream parameters (``job_count`` and ``seed`` integers >= 0,
        ``interarrival`` positive and finite).  ``interarrival`` is in *paper* terms (mean
        seconds between submissions at 25 nodes) and is stretched by
        ``25 / nodes`` so per-node load is scale-invariant.
    queue_window:
        Bound on not-started jobs offered to the controller per cycle
        (``None`` = unlimited; otherwise an integer >= 0).
    prediction_method:
        :class:`~repro.batch.hypothetical.PredictionMethod` (or its
        string value) for the batch model's predictions.
    policy / policy_params:
        Which placement policy drives the run, by registry name
        (:func:`~repro.policies.default_policy_registry`), plus its
        JSON-friendly parameters — e.g. ``policy="proportional_fairness"``
        or ``policy="fcfs", policy_params={"skip_blocked": True}``.
    apc:
        The controller's :class:`~repro.core.apc.APCConfig`.
    sim:
        The simulator's :class:`~repro.sim.simulator.SimulationConfig`.
        Its ``cycle_length`` must equal ``apc.cycle_length``: the
        simulator runs a cycle every ``T`` seconds, and the controller
        predicts ``T`` seconds ahead.  Each of its ``failures`` must name
        a node of the scenario's cluster.
    """

    name: str = "scenario"
    nodes: int = PAPER_NODES
    cpu_per_processor: float = PAPER_CPU_PER_PROCESSOR
    processors_per_node: int = PAPER_PROCESSORS_PER_NODE
    memory_per_node: float = PAPER_MEMORY_PER_NODE
    workload: str = "experiment1"
    job_count: int = 800
    interarrival: float = 260.0
    seed: int = 0
    queue_window: Optional[int] = 48
    prediction_method: MethodLike = PredictionMethod.EXACT
    policy: str = "apc"
    policy_params: Dict[str, object] = field(default_factory=dict)
    apc: APCConfig = field(default_factory=APCConfig)
    sim: SimulationConfig = field(default_factory=SimulationConfig)

    def __post_init__(self) -> None:
        # A float count or a NaN capacity fails here, not mid-cycle.
        for name, least in (
            ("nodes", 1), ("processors_per_node", 1), ("job_count", 0),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if not is_count(value) or value < least:
                raise ConfigurationError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )
        for name in ("cpu_per_processor", "memory_per_node", "interarrival"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value!r}"
                )
        check_queue_window(self.queue_window)
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        self.prediction_method = PredictionMethod.coerce(self.prediction_method)
        buildable = default_policy_registry().buildable_names()
        if self.policy not in buildable:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{list(buildable)}"
            )
        if not isinstance(self.policy_params, Mapping):
            raise ConfigurationError(
                "policy_params must be a mapping, got "
                f"{type(self.policy_params).__name__}"
            )
        self.policy_params = dict(self.policy_params)
        if isinstance(self.apc, Mapping):
            self.apc = APCConfig.from_dict(self.apc)
        if isinstance(self.sim, Mapping):
            self.sim = SimulationConfig.from_dict(self.sim)
        # Every prediction looks one control cycle ahead (§4.2: t + T),
        # so the controller's horizon must be the simulator's period.
        if self.apc.cycle_length != self.sim.cycle_length:
            raise ConfigurationError(
                f"apc.cycle_length ({self.apc.cycle_length}) must equal "
                f"sim.cycle_length ({self.sim.cycle_length}): the controller "
                "predicts one control cycle ahead"
            )
        if self.sim.failures:
            names = set(self.build_cluster().node_names)
            for failure in self.sim.failures:
                if failure.node not in names:
                    raise ConfigurationError(
                        f"sim.failures takes down node {failure.node!r}, "
                        f"which the scenario's {self.nodes}-node cluster "
                        "lacks"
                    )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return {
            "name": self.name,
            "nodes": self.nodes,
            "cpu_per_processor": self.cpu_per_processor,
            "processors_per_node": self.processors_per_node,
            "memory_per_node": self.memory_per_node,
            "workload": self.workload,
            "job_count": self.job_count,
            "interarrival": self.interarrival,
            "seed": self.seed,
            "queue_window": self.queue_window,
            "prediction_method": self.prediction_method.value,
            "policy": self.policy,
            "policy_params": dict(self.policy_params),
            "apc": self.apc.to_dict(),
            "sim": self.sim.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        """Build from a plain dict (inverse of :meth:`to_dict`); unknown
        keys are rejected to surface config typos."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown Scenario keys: {sorted(unknown)}")
        return cls(**dict(data))

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @property
    def interarrival_scaled(self) -> float:
        """The paper-term inter-arrival stretched to this node count."""
        return self.interarrival * (PAPER_NODES / self.nodes)

    def build_cluster(self) -> Cluster:
        return Cluster.homogeneous(
            self.nodes,
            cpu_capacity=self.processors_per_node * self.cpu_per_processor,
            memory_capacity=self.memory_per_node,
            cpu_per_processor=self.cpu_per_processor,
        )

    def build_jobs(self) -> List[Job]:
        """The seeded job stream (same scenario → same stream)."""
        if self.workload == "experiment1":
            return experiment_one_jobs(
                count=self.job_count,
                mean_interarrival=self.interarrival_scaled,
                seed=self.seed,
            )
        return experiment_two_jobs(
            count=self.job_count,
            mean_interarrival=self.interarrival_scaled,
            seed=self.seed,
        )


class Simulation:
    """A fully wired simulation: cluster, workload, controller, policy
    and simulator, assembled from a :class:`Scenario`.

    The live pieces are exposed as attributes (``cluster``, ``jobs``,
    ``queue``, ``batch_model``, ``controller``, ``policy``,
    ``simulator``) so callers can inspect or instrument them before
    calling :meth:`run`.  ``controller`` is the placement controller for
    APC-driven scenarios and ``None`` when the scenario selects a policy
    that does not embed one.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        cluster: Cluster,
        jobs: List[Job],
        queue: JobQueue,
        batch_model: BatchWorkloadModel,
        controller: Optional[ApplicationPlacementController],
        policy: PlacementPolicy,
        simulator: MixedWorkloadSimulator,
    ) -> None:
        self.scenario = scenario
        self.cluster = cluster
        self.jobs = jobs
        self.queue = queue
        self.batch_model = batch_model
        self.controller = controller
        self.policy = policy
        self.simulator = simulator

    @classmethod
    def from_scenario(
        cls,
        scenario: Scenario,
        *,
        profiler: Optional[SpanProfiler] = None,
        registry: Optional[MetricRegistry] = None,
        trace: Optional[SimulationTrace] = None,
        decision_clock: Optional[Callable[[], float]] = None,
        audit: Optional[DecisionAudit] = None,
        tracer=None,
    ) -> "Simulation":
        """Assemble the full object graph for one scenario.

        The telemetry knobs are all opt-in (:mod:`repro.obs`); the
        profiler is shared between simulator and controller so APC
        phases nest under the cycle spans, ``audit`` (a
        :class:`~repro.obs.audit.DecisionAudit`) attaches the decision
        flight recorder to the controller, and ``tracer`` (a
        :class:`~repro.obs.tracing.JobTracer`) is shared between
        simulator, reconciler, and controller so every job lifecycle
        event lands on one causal trace.  ``decision_clock`` overrides
        the scenario's simulation config for this build only (it is a
        live callable and deliberately not part of the serialized
        scenario).
        """
        cluster = scenario.build_cluster()
        jobs = scenario.build_jobs()
        queue = JobQueue()
        if registry is not None:
            queue.bind_registry(registry)
        batch_model = BatchWorkloadModel(
            queue,
            queue_window=scenario.queue_window,
            prediction_method=scenario.prediction_method,
        )
        context = PolicyContext(
            cluster=cluster,
            queue=queue,
            batch_model=batch_model,
            apc_config=scenario.apc,
            profiler=profiler,
            registry=registry,
            audit=audit,
            tracer=tracer,
        )
        policy = default_policy_registry().create(
            scenario.policy, context, **scenario.policy_params
        )
        controller = (
            policy.controller if isinstance(policy, APCPolicy) else None
        )
        config = scenario.sim
        if decision_clock is not None:
            config = dataclasses.replace(config, decision_clock=decision_clock)
        simulator = MixedWorkloadSimulator(
            cluster,
            policy,
            queue,
            arrivals=jobs,
            batch_model=batch_model,
            config=config,
            trace=trace,
            registry=registry,
            profiler=profiler,
            tracer=tracer,
        )
        return cls(
            scenario,
            cluster=cluster,
            jobs=jobs,
            queue=queue,
            batch_model=batch_model,
            controller=controller,
            policy=policy,
            simulator=simulator,
        )

    def run(self, until: Optional[float] = None) -> MetricsRecorder:
        """Run the simulation; returns the metrics.

        ``until`` bounds this call (see
        :meth:`~repro.sim.simulator.MixedWorkloadSimulator.run`): state
        persists, and a later ``run()`` — or :meth:`snapshot` — picks up
        exactly where this call stopped.
        """
        return self.simulator.run(until=until)

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A self-contained checkpoint: the scenario plus the simulator's
        full state, as plain JSON data.  Feed it to
        :meth:`from_snapshot` (in this process or another) to continue
        the run byte-identically."""
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "scenario": self.scenario.to_dict(),
            "simulator": self.simulator.snapshot(),
        }

    @classmethod
    def from_snapshot(
        cls,
        snapshot: Mapping[str, object],
        *,
        profiler: Optional[SpanProfiler] = None,
        registry: Optional[MetricRegistry] = None,
        trace: Optional[SimulationTrace] = None,
        decision_clock: Optional[Callable[[], float]] = None,
        audit: Optional[DecisionAudit] = None,
        tracer=None,
    ) -> "Simulation":
        """Rebuild a simulation from a :meth:`snapshot` checkpoint.

        The object graph is assembled from the embedded scenario (same
        telemetry knobs as :meth:`from_scenario`), then the simulator
        state is restored on top.  With an ``audit`` attached, its cycle
        numbering resumes after the cycles the checkpoint already
        recorded; a ``tracer`` restores its full in-flight state (ID
        counters, open parent chains) from the checkpoint when the
        interrupted run carried one, and otherwise just resumes cycle
        numbering.  Raises :class:`~repro.errors.CheckpointError` on a
        truncated, malformed, or version-mismatched checkpoint.
        """
        check_version(snapshot, "simulation checkpoint")
        try:
            scenario = Scenario.from_dict(
                require(snapshot, "scenario", "simulation checkpoint")
            )
        except ConfigurationError as exc:
            raise CheckpointError(
                f"simulation checkpoint carries an unreadable scenario: {exc}"
            ) from exc
        sim = cls.from_scenario(
            scenario,
            profiler=profiler,
            registry=registry,
            trace=trace,
            decision_clock=decision_clock,
            audit=audit,
            tracer=tracer,
        )
        state = require(snapshot, "simulator", "simulation checkpoint")
        sim.simulator.restore(state)
        if audit is not None:
            audit.resume_at(int(state.get("cycles_recorded", 0)))
        if tracer is not None and state.get("tracer") is None:
            tracer.resume_at(int(state.get("cycles_recorded", 0)))
        return sim
