"""The Application Placement Controller (APC).

§3.2: every control cycle the APC "examines the placement of applications
on nodes and their resource allocations, evaluates the relative
performance of this allocation and makes changes to the allocation by
starting, stopping, suspending, resuming, relocating or changing CPU
share configuration of some applications".

The optimization objective is the maxmin extension over per-application
relative performance (see :mod:`repro.core.objective`), subject to node
memory/CPU capacities and placement constraints, with a secondary goal of
minimizing placement changes.

The placement problem is NP-hard; the search is the three-nested-loop
heuristic of [18] (Carrera et al., NOMS 2008):

* the **outer loop** iterates over nodes;
* the **intermediate loop** iterates over the application instances
  placed on the node and removes them one by one (cumulatively),
  generating a set of candidate configurations linear in the number of
  instances on the node — instances of the *highest*-utility applications
  are removed first (they can best afford to lose resources);
* the **inner loop** iterates over applications, attempting to place new
  instances on the node as permitted by the constraints — applications
  are visited lowest-relative-performance first (the paper's LRPF
  ordering), so the neediest work is considered first.

Each candidate configuration is scored by running the load-distribution
optimizer (:mod:`repro.core.loadbalance`) and the workload models'
predictors; it is adopted only if the global utility vector strictly
improves (ties never justify churn — which is exactly why, in the
illustrative example's Scenario 1, the controller leaves J1 running
alone, and why Experiment One's identical-job workload sees zero
placement changes).

Before the full search the controller runs a cheap **greedy admission
pass** that places queued/unplaced applications into free capacity in
LRPF order.  When no removal-based improvement is possible — detected by
comparing unplaced candidates' best-achievable relative performance
against placed applications' current predictions — the search is skipped
entirely.  This is the "internal shortcut" the paper observes: "when all
submitted jobs can be placed concurrently, the algorithm is able to take
internal shortcuts, resulting in a significant reduction in execution
time" (§5.1).

The implementation adds bookkeeping that changes no decision: an upper
bound that ends the search once no candidate can beat the incumbent, a
skipped zero-removal trial when the fill pass would place nothing on the
node, and an admission pass that sorts the nodes by free CPU once and
keeps per-node running sums.  A scored candidate costs one load
distribution, one prediction per model and one objective score: its load
is written into its state only on adoption (nothing reads a trial's load
before), and its churn is its base's plus its change on its one node.
Its distribution is handed its base's result and that node, so off the
node it can reuse the base's entries, and the fill pass's LRPF order is
built once per node and base rather than once per trial.
``tests/reference_apc.py`` keeps the paper-literal solver without any of
it, and the identity tests pin every decision against it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro._compat import keyword_only
from repro.cluster import Cluster
from repro.core.constraints import ConstraintSet
from repro.core.loadbalance import (
    AllocatableApp, LoadDistributionResult, distribute_load,
)
from repro.core.objective import Objective, PlacementScore, UtilityVector
from repro.core.placement import PlacementState
from repro.core.workload import WorkloadModel
from repro.errors import ConfigurationError, PlacementError
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry
from repro.obs.spans import NULL_SPAN, SpanProfiler
from repro.units import EPSILON

#: Every profiler span phase the controller can emit, in nesting order.
#: Pinned by test: dashboards and ``repro bench --profile`` key off these
#: names, so renames are breaking changes.
SPAN_PHASES: Tuple[str, ...] = (
    "apc.place",
    "apc.model_specs",
    "apc.admission",
    "apc.search",
    "apc.evaluate",
    "apc.loadbalance",
    "apc.predict",
    "apc.objective",
)

#: Solver switches that :meth:`APCConfig.from_dict` drops on load.  They
#: chose between implementations of the same decisions, so documents
#: that still carry them load to the same controller.
_RETIRED_KEYS = frozenset({"incremental", "vectorize", "fast_path_min_nodes"})

#: Minimum per-element utility-vector improvement that justifies a
#: change; below it, candidates tie (and ties never justify churn).  0.02
#: matches the paper's reporting granularity for the illustrative
#: example: Scenario 1's alternatives (exactly 0.6875 and 0.6955) are
#: reported as the tie "0.7 vs 0.7" and resolved in favor of no change.
IMPROVEMENT_EPSILON = 0.02

#: Extra utility-vector improvement a candidate must show when it
#: *suspends or relocates* running instances.  The hypothetical
#: predictor has one-cycle lookahead: swapping a queued job for a running
#: one of the same class always shows a transient gain of
#: ``T / relative_goal`` (the queued job's achievable performance stops
#: eroding for one cycle) even though the true completion-time vector
#: cannot improve; the paper proves this for identical jobs (§5.1) and
#: indeed observes zero changes.  Requiring preemptive configs to beat
#: the incumbent by this margin suppresses those illusory swaps while
#: preserving genuine urgency-driven preemption (a tight-goal job's
#: erosion rate is many times larger).  This realizes the paper's
#: "heuristics that aim to minimize the number of changes to the current
#: placement" (§3.2).
PREEMPTION_PENALTY = 0.05

#: The tolerance a search trial that removes instances must clear, and
#: the headroom that lets the search start at all (a removal can realize
#: no more than that).
REMOVAL_GATE = max(PREEMPTION_PENALTY, IMPROVEMENT_EPSILON)

#: Keys that :meth:`APCConfig.from_dict` drops on load, with the value
#: every document written while they were settable carries, and what
#: that value meant.  The search caps asked for one sweep and uncapped
#: removals, the only search the controller runs; the tolerances are
#: the constants above.  Any other value asked for a different
#: controller, so it is refused.
_RETIRED_CAPS: Dict[str, Tuple[object, str]] = {
    "search_sweeps": (1, "one sweep"),
    "max_removals_per_node": (None, "uncapped removals"),
    "improvement_epsilon": (IMPROVEMENT_EPSILON, "the constant IMPROVEMENT_EPSILON"),
    "preemption_penalty": (PREEMPTION_PENALTY, "the constant PREEMPTION_PENALTY"),
}


@keyword_only
@dataclass
class APCConfig:
    """Tunables of the placement controller.  Construct with keyword
    arguments.

    Attributes
    ----------
    cycle_length:
        Control cycle period ``T`` in seconds (§3.1: "of the order of
        minutes"; Experiment One uses 600 s).
    enable_search:
        When False only the greedy admission pass runs (useful for
        ablations; the full paper algorithm keeps it True).

    The tie tolerance and the preemption penalty are the module
    constants :data:`IMPROVEMENT_EPSILON` and :data:`PREEMPTION_PENALTY`.
    """

    cycle_length: float = 600.0
    enable_search: bool = True

    def __post_init__(self) -> None:
        # The chained comparison is false for NaN, so NaN is rejected too.
        if not 0 < self.cycle_length < math.inf:
            raise ConfigurationError(
                f"cycle_length must be positive and finite, got {self.cycle_length}"
            )
        if not isinstance(self.enable_search, bool):
            raise ConfigurationError(
                f"enable_search must be a bool, got {self.enable_search!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return {
            "cycle_length": self.cycle_length,
            "enable_search": self.enable_search,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "APCConfig":
        """Build from a plain dict (inverse of :meth:`to_dict`); unknown
        keys are rejected to surface config typos.  The retired solver
        switches ``incremental``, ``vectorize`` and ``fast_path_min_nodes``
        are dropped, and so are the retired search caps and tolerances
        when they hold the one value documents recorded
        (``search_sweeps`` 1, ``max_removals_per_node`` ``None``,
        ``improvement_epsilon`` 0.02, ``preemption_penalty`` 0.05), so
        scenario JSON, snapshots and sweep manifests that carry them
        still load.  Any other value is refused: it asked for a
        controller that no longer runs."""
        for key, (kept, meaning) in _RETIRED_CAPS.items():
            value = data.get(key, kept)
            if type(value) is not type(kept) or value != kept:
                raise ConfigurationError(
                    f"APCConfig key {key!r} is retired and must be {kept!r} "
                    f"({meaning}), got {value!r}"
                )
        data = {
            k: v
            for k, v in data.items()
            if k not in _RETIRED_KEYS and k not in _RETIRED_CAPS
        }
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown APCConfig keys: {sorted(unknown)}"
            )
        return cls(**data)


@dataclass
class APCResult:
    """Outcome of one control cycle's placement computation."""

    #: The chosen placement with its load matrix filled in.
    state: PlacementState
    #: Total CPU granted per placed application.
    allocations: Dict[str, float] = field(default_factory=dict)
    #: Predicted relative performance for every application (incl. unplaced).
    utilities: Dict[str, float] = field(default_factory=dict)
    #: Score of the chosen placement (vs. the cycle's starting placement).
    score: Optional[PlacementScore] = None
    #: Number of candidate placements fully evaluated.
    evaluations: int = 0
    #: Whether the chosen placement differs from the starting one.
    changed: bool = False

    @property
    def utility_vector(self) -> UtilityVector:
        return UtilityVector(self.utilities.values())


class _Scored(NamedTuple):
    """One evaluated placement: the incumbent or a trial."""

    state: PlacementState
    score: PlacementScore
    utilities: Dict[str, float]
    load: LoadDistributionResult
    #: Instances that differ from the cycle's baseline placement.
    churn: int

    def adopt(self) -> "_Scored":
        """Write the load into the state, which only the incumbent
        needs."""
        self.load.write_load(self.state)
        return self


def lrpf_order(
    eligible: Sequence[str],
    specs: Mapping[str, AllocatableApp],
    utilities: Mapping[str, float],
) -> List[str]:
    """The order both greedy passes visit applications in: lowest
    relative performance first (the paper's LRPF ordering, §1).

    Applications are ranked by their predicted utility, or by their RPF
    maximum when the prediction does not cover them, ascending.  The
    sort is stable, so equal-utility applications keep candidate
    (submission) order.
    """

    def key(app_id: str) -> float:
        # The RPF maximum only for the few the prediction misses.
        if app_id in utilities:
            return utilities[app_id]
        return specs[app_id].rpf.max_utility

    return sorted(eligible, key=key)


class ApplicationPlacementController:
    """Searches for the best placement each control cycle."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[APCConfig] = None,
        constraints: Optional[ConstraintSet] = None,
        profiler: Optional[SpanProfiler] = None,
        registry: Optional[MetricRegistry] = None,
        audit: Optional[DecisionAudit] = None,
        tracer=None,
    ) -> None:
        self._cluster = cluster
        self._config = config or APCConfig()
        self._constraints = constraints or ConstraintSet()
        self._profiler = profiler
        self._audit = audit
        #: Observers of every cycle start and admission verdict: the
        #: audit and the causal job tracer
        #: (``repro.obs.tracing.JobTracer``), whichever are attached.
        self._observers = tuple(o for o in (audit, tracer) if o is not None)
        self._objective = Objective()
        self._c_shortcut = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: MetricRegistry) -> None:
        """Publish search telemetry into a
        :class:`~repro.obs.registry.MetricRegistry`: search
        short-circuits (``repro_apc_shortcircuit_total``)."""
        self._c_shortcut = registry.counter(
            "repro_apc_shortcircuit_total",
            "APC search work skipped by short-circuit checks",
            ("kind",),
        )

    @property
    def config(self) -> APCConfig:
        return self._config

    @property
    def constraints(self) -> ConstraintSet:
        return self._constraints

    def _span(self, name: str, **attrs: object):
        """A profiler span, or the shared no-op when un-instrumented."""
        if self._profiler is None:
            return NULL_SPAN
        return self._profiler.span(name, **attrs)

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def place(
        self,
        models: Sequence[WorkloadModel],
        current: PlacementState,
        now: float,
    ) -> APCResult:
        """Compute the placement for the control cycle starting at ``now``.

        ``current`` is the placement in effect; it is not mutated.  The
        returned state carries the new placement and load matrix.

        With a :class:`~repro.obs.spans.SpanProfiler` attached, the whole
        computation is one ``apc.place`` root span whose children break
        the cycle's decision time into phases: model spec merging
        (``apc.model_specs``), candidate
        evaluation (``apc.evaluate``, itself split into the
        load-balancing solve ``apc.loadbalance``, the workload models'
        hypothetical/RPF prediction ``apc.predict``, and objective
        scoring ``apc.objective``), the greedy admission pass
        (``apc.admission``), and the nested-loop search (``apc.search``).
        The full phase list is pinned as :data:`SPAN_PHASES`.
        Un-instrumented, the spans are no-ops and the computation is
        unchanged.
        """
        with self._span("apc.place"):
            for observer in self._observers:
                observer.begin_cycle(now)
            # Every model whose begin_cycle returned gets its end_cycle,
            # also when a later model's begin_cycle raises.
            with contextlib.ExitStack() as cycle:
                for model in models:
                    model.begin_cycle(now)
                    cycle.callback(model.end_cycle)
                return self._place_profiled(models, current, now)

    def _place_profiled(
        self,
        models: Sequence[WorkloadModel],
        current: PlacementState,
        now: float,
    ) -> APCResult:
        audit = self._audit
        with self._span("apc.model_specs"):
            specs = self._merge_specs(models, now)
            candidates = self._merge_candidates(models, now)

        state = current.copy()
        self._prune_vanished(state, specs)
        self._prune_unavailable(state)
        self._refresh_demands(state, specs)
        baseline = state.as_matrix()

        evaluations = 0

        def evaluate(
            trial: PlacementState,
            churn: int,
            tolerance: float = IMPROVEMENT_EPSILON,
            base: Optional[LoadDistributionResult] = None,
            node: Optional[str] = None,
        ) -> _Scored:
            """Score ``trial``; its load is written only on adoption.  A
            search trial names the load of the placement it was copied
            from and the one node where it differs (``distribute_load``'s
            ``base`` and ``node``)."""
            nonlocal evaluations
            evaluations += 1
            with self._span("apc.evaluate"):
                with self._span("apc.loadbalance"):
                    load = distribute_load(
                        trial, specs, write_load_matrix=False, base=base,
                        node=node,
                    )
                utilities: Dict[str, float] = {}
                with self._span("apc.predict"):
                    for model in models:
                        utilities.update(
                            model.evaluate(
                                load.allocations, now, self._config.cycle_length
                            )
                        )
                with self._span("apc.objective"):
                    score = self._objective.score(utilities, churn, tolerance)
            return _Scored(trial, score, utilities, load, churn)

        best = evaluate(state, 0).adopt()

        if audit is not None:
            audit.incumbent(best.utilities)
            seen_rpf = set()
            for c in candidates:
                spec = specs.get(c)
                if spec is None or state.is_placed(c) or c in seen_rpf:
                    continue
                seen_rpf.add(c)
                audit.rpf_inputs(
                    c,
                    max_utility=spec.rpf.max_utility,
                    saturation_cpu=spec.rpf.saturation_cpu,
                    min_cpu=spec.demand.min_cpu_mhz,
                    memory_mb=spec.demand.memory_mb,
                    divisible=spec.demand.divisible,
                )

        # ---- greedy admission pass --------------------------------------
        # Adoption always requires a *strict* utility-vector improvement:
        # a tie never justifies touching the placement (the illustrative
        # example's Scenario 1 — the equal-utility alternative that
        # starts J2 is rejected because it requires a change).
        with self._span("apc.admission"):
            trial = best.state.copy()
            # Admission only adds instances of unplaced applications, so
            # its churn is the number it placed.
            placed = self._greedy_admit(trial, specs, candidates, best.utilities)
            if placed:
                scored = evaluate(trial, placed)
                adopted = self._objective.better(scored.score, best.score)
                if audit is not None:
                    audit.candidate(
                        stage="admission",
                        accepted=adopted,
                        reason="improved" if adopted else "no_improvement",
                        utilities=scored.utilities,
                        comparison=self._objective.explain(
                            scored.score, best.score
                        ),
                        churn=scored.score.num_changes,
                        tolerance=scored.score.utilities.tolerance,
                    )
                if adopted:
                    best = scored.adopt()

        # ---- full nested-loop search ------------------------------------
        run_search = self._config.enable_search and self._search_is_worthwhile(
            best.state, specs, candidates, best.utilities, best.load.allocations
        )
        if audit is not None and not run_search:
            audit.shortcircuit(
                "search_skipped"
                if self._config.enable_search
                else "search_disabled"
            )
        if run_search:
            bound_reached = self._make_bound_checker(specs)
            with self._span("apc.search"):
                if bound_reached(best.score):
                    # No candidate vector can clear the incumbent by more
                    # than the noise threshold anywhere.
                    if self._c_shortcut is not None:
                        self._c_shortcut.inc(kind="upper_bound")
                    if audit is not None:
                        audit.shortcircuit("upper_bound")
                else:
                    best = self._sweep(
                        best, specs, candidates, baseline, evaluate,
                        bound_reached,
                    )

        # Churn counts every instance that differs from the baseline.
        changed = best.churn > 0
        if audit is not None:
            audit.end_cycle(
                utilities_after=best.utilities,
                changed=changed,
                evaluations=evaluations,
            )
        return APCResult(
            state=best.state,
            allocations=best.load.allocations,
            utilities=best.utilities,
            score=best.score,
            evaluations=evaluations,
            changed=changed,
        )

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _merge_specs(
        self, models: Sequence[WorkloadModel], now: float
    ) -> Dict[str, AllocatableApp]:
        specs: Dict[str, AllocatableApp] = {}
        for model in models:
            for app_id, spec in model.app_specs(now).items():
                if app_id in specs:
                    raise PlacementError(
                        f"application id {app_id!r} provided by multiple models"
                    )
                specs[app_id] = spec
        return specs

    def _merge_candidates(
        self, models: Sequence[WorkloadModel], now: float
    ) -> List[str]:
        out: List[str] = []
        for model in models:
            out.extend(model.placement_candidates(now))
        return out

    @staticmethod
    def _prune_vanished(state: PlacementState, specs: Mapping[str, AllocatableApp]) -> None:
        """Remove instances of applications no longer under management
        (completed jobs, deregistered apps)."""
        for app_id in list(state.app_ids):
            if app_id not in specs:
                for node, count in state.instances(app_id).items():
                    state.remove(app_id, node, count)

    @staticmethod
    def _prune_unavailable(state: PlacementState) -> None:
        """Drop instances stranded on unavailable nodes.

        The simulator evicts placements when a node fails, but the
        controller defends in depth: planning must start from capacity
        that actually exists, however the state it was handed came to be
        (a failed actuator action's fallback, an externally maintained
        placement, ...).  Dropped applications become candidates again
        this same cycle.
        """
        for node in state.cluster:
            if node.available:
                continue
            for app_id in list(state.apps_on(node.name)):
                count = state.instances_on(app_id, node.name)
                if count:
                    state.remove(app_id, node.name, count)

    @staticmethod
    def _refresh_demands(
        state: PlacementState, specs: Mapping[str, AllocatableApp]
    ) -> None:
        """Re-apply current memory demands to carried-over instances.

        A multi-stage job's memory requirement (``γ_k``) changes across
        stage boundaries (§4.1).  Instances are re-placed with the
        current demand; an instance whose grown footprint no longer fits
        its node is removed (the admission/search passes will try to
        place the application elsewhere this same cycle).
        """
        from repro.errors import CapacityError

        for app_id in list(state.app_ids):
            spec = specs.get(app_id)
            if spec is None:
                continue
            recorded = state.memory_demand_of(app_id)
            if recorded is None or abs(recorded - spec.demand.memory_mb) <= EPSILON:
                continue
            placements = state.instances(app_id)
            for node, count in placements.items():
                state.remove(app_id, node, count)
            state.forget_memory_demand(app_id)
            for node, count in placements.items():
                try:
                    state.place(app_id, node, spec.demand.memory_mb, count)
                except CapacityError:
                    pass  # evicted by its own growth; may be re-placed

    def _can_host(
        self,
        state: PlacementState,
        spec: AllocatableApp,
        node: str,
    ) -> bool:
        """Instance-cap and policy check for one more instance.  The
        caller checks memory first, against the node's free memory it
        holds (read again after each placement), and the minimum-speed
        reservation against its running per-node sum."""
        demand = spec.demand
        if demand.max_instances is not None:
            if state.instance_count(demand.app_id) >= demand.max_instances:
                return False
        return self._constraints.allows(state, demand.app_id, node)

    def _make_bound_checker(
        self, specs: Mapping[str, AllocatableApp]
    ) -> Callable[[PlacementScore], bool]:
        """A predicate: can no candidate placement beat this incumbent?

        Any candidate's per-application utility is bounded by the
        application's RPF maximum, and element-wise domination survives
        sorting, so the sorted vector of RPF maxima dominates every
        candidate vector element-wise.  Adoption requires the candidate
        to exceed the incumbent by more than the comparison tolerance at
        some position, and every tolerance in play is at least
        :data:`IMPROVEMENT_EPSILON` — so once the bound is within epsilon
        of the incumbent everywhere, no further candidate can be adopted.
        """
        upper = sorted(spec.rpf.max_utility for spec in specs.values())
        epsilon = IMPROVEMENT_EPSILON

        def reached(score: PlacementScore) -> bool:
            incumbent = score.utilities.values
            if len(incumbent) != len(upper):
                return False
            return all(u <= b + epsilon for u, b in zip(upper, incumbent))

        return reached

    def _greedy_admit(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        utilities: Mapping[str, float],
    ) -> int:
        """Place unplaced candidates into free capacity, LRPF first.
        Returns the number of instances placed.

        Singleton applications (jobs) get one instance on the node with
        the most free CPU among those with room, the first in cluster
        order on a tie, which spreads jobs and leaves each room to reach
        its maximum speed; divisible applications (web clusters) get an
        instance on *every* node that can host one, in cluster order —
        growing the cluster costs nothing at this stage and lets the load
        distributor use all available capacity.

        The pass never writes the load matrix, so free CPU is constant:
        the nodes are sorted by it once, and a singleton takes the first
        node in that order that passes the memory, min-CPU and constraint
        tests.  A node's free memory, committed minimum CPU and CPU
        capacity are read from the state when the walk first reaches it,
        before anything is placed there, and then kept as running sums.
        """
        unplaced = [c for c in candidates if not state.is_placed(c) and c in specs]
        unplaced = lrpf_order(unplaced, specs, utilities)
        if not unplaced:
            return 0
        cluster = state.cluster
        names = cluster.node_names
        # The singletons' walk: most free CPU first (sorted() is stable,
        # so ties keep cluster order), in a dict so that full nodes can
        # leave it.  A node whose sums fail the pass's least singleton
        # demand hosts no later singleton: free memory only shrinks and
        # committed CPU only grows.
        order = dict.fromkeys(
            sorted(names, key=state.cpu_available, reverse=True)
        )
        singles = [
            specs[a].demand for a in unplaced if not specs[a].demand.divisible
        ]
        least_memory = min((d.memory_mb for d in singles), default=0.0)
        least_min_cpu = min((d.min_cpu_mhz for d in singles), default=0.0)
        # node -> [free memory, committed minimum CPU, CPU capacity]
        room: Dict[str, List[float]] = {}
        constraints = self._constraints if len(self._constraints) else None
        observe = bool(self._observers)
        placed = 0
        for rank, app_id in enumerate(unplaced):
            demand = specs[app_id].demand
            memory_mb = demand.memory_mb
            min_cpu = demand.min_cpu_mhz
            max_inst = demand.max_instances
            divisible = demand.divisible
            count = state.instance_count(app_id)
            placed_nodes: List[str] = []
            full: List[str] = []
            # A placement changes only its own node's sums, which the
            # walk has passed, so each node is tested once.
            for node in names if divisible else order:
                if max_inst is not None and count >= max_inst:
                    break
                sums = room.get(node)
                if sums is None:
                    sums = room[node] = [
                        state.memory_available(node),
                        self._node_committed_min(state, specs, node),
                        cluster.node(node).cpu_capacity,
                    ]
                if (
                    sums[0] + EPSILON >= memory_mb
                    and sums[1] + min_cpu <= sums[2] + EPSILON
                    and (
                        constraints is None
                        or constraints.allows(state, app_id, node)
                    )
                ):
                    state.place(app_id, node, memory_mb)
                    sums[0] -= memory_mb
                    sums[1] += min_cpu
                    count += 1
                    placed_nodes.append(node)
                    if not divisible:
                        break
                elif not divisible and not (
                    sums[0] + EPSILON >= least_memory
                    and sums[1] + least_min_cpu <= sums[2] + EPSILON
                ):
                    full.append(node)
            for node in full:
                del order[node]
            placed += len(placed_nodes)
            if observe:
                self._note_admission(
                    state, specs, app_id, rank, utilities, placed_nodes
                )
        return placed

    def _note_admission(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        app_id: str,
        rank: int,
        utilities: Mapping[str, float],
        placed_nodes: Sequence[str],
    ) -> None:
        """Hand one greedy-admission verdict to the attached observers
        (audit and/or tracer); only called when at least one is on."""
        reason = (
            "placed"
            if placed_nodes
            else self._admission_reject_reason(state, specs, app_id)
        )
        utility = utilities.get(app_id, specs[app_id].rpf.max_utility)
        for observer in self._observers:
            observer.admission(
                app_id,
                accepted=bool(placed_nodes),
                reason=reason,
                lrpf_rank=rank,
                utility=utility,
                nodes=placed_nodes,
            )

    def _admission_reject_reason(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        app_id: str,
    ) -> str:
        """Why the admission pass placed nothing for ``app_id``.

        Checks are ordered by specificity and computed from the state
        alone.  Only called with an audit or tracer attached — never on
        the decision path.
        """
        demand = specs[app_id].demand
        if (
            demand.max_instances is not None
            and state.instance_count(app_id) >= demand.max_instances
        ):
            return "max_instances"
        mem_ok = [
            n
            for n in self._cluster.node_names
            if state.memory_available(n) + EPSILON >= demand.memory_mb
        ]
        if not mem_ok:
            return "memory"
        cpu_ok = [
            n
            for n in mem_ok
            if self._node_committed_min(state, specs, n) + demand.min_cpu_mhz
            <= self._cluster.node(n).cpu_capacity + EPSILON
        ]
        if not cpu_ok:
            return "min_cpu"
        if not any(
            self._constraints.allows(state, app_id, n) for n in cpu_ok
        ):
            return "constraint"
        return "no_host"

    def _search_is_worthwhile(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        utilities: Mapping[str, float],
        allocations: Mapping[str, float],
    ) -> bool:
        """Skip the expensive search when no removal can pay off.

        A removal-based change must eventually clear the preemption
        penalty, so the search is only entered when either

        * some unplaced candidate's *best-case* relative performance if
          placed right now (its RPF maximum) exceeds its current
          prediction by more than the penalty — the headroom a swap could
          at most realize; with identical jobs this headroom is one
          cycle's goal erosion (``T / relative_goal``), below the
          penalty, which is why Experiment One skips the search entirely
          (the paper's "internal shortcuts"); or
        * some placed application is starved well below the best placed
          application while other nodes still have free CPU — a live
          migration could rebalance.
        """
        gate = REMOVAL_GATE
        for candidate in candidates:
            if state.is_placed(candidate) or candidate not in specs:
                continue
            headroom = specs[candidate].rpf.max_utility - utilities.get(
                candidate, float("-inf")
            )
            if headroom > gate:
                return True

        placed_utilities = {
            a: utilities[a] for a in state.app_ids if a in utilities
        }
        if not placed_utilities:
            return any(
                not state.is_placed(c) for c in candidates if c in specs
            )
        best_placed = max(placed_utilities.values())
        # One scan for the nodes with free CPU, instead of an O(nodes)
        # availability probe per starved application.
        free_names = [
            n for n in state.cluster.node_names if state.cpu_available(n) > EPSILON
        ]
        for app_id, utility in placed_utilities.items():
            if utility >= best_placed - gate:
                continue
            spec = specs.get(app_id)
            if spec is None:
                continue
            allocated = allocations.get(app_id, 0.0)
            if allocated + EPSILON >= spec.rpf.saturation_cpu:
                continue
            own_nodes = set(state.nodes_of(app_id))
            if any(n not in own_nodes for n in free_names):
                return True
        return False

    def _sweep(
        self,
        best: "_Scored",
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        baseline: Mapping[str, Mapping[str, int]],
        evaluate: Callable[..., "_Scored"],
        bound_reached: Callable[[PlacementScore], bool],
    ) -> "_Scored":
        """The outer loop: one pass over all nodes.  Returns the best
        placement found."""
        audit = self._audit

        # Outer loop: visit nodes hosting the highest-utility instances
        # first — they are the most promising donors of capacity.  One
        # pass over placements gives every node's max hosted utility.
        node_best: Dict[str, float] = {}
        for app_id in best.state.app_ids:
            utility = best.utilities.get(app_id, float("-inf"))
            for node_name, count in best.state.instance_items(app_id):
                if count > 0 and utility > node_best.get(
                    node_name, float("-inf")
                ):
                    node_best[node_name] = utility

        def node_key(node: str) -> float:
            return node_best.get(node, float("-inf"))

        for node in sorted(self._cluster.node_names, key=node_key, reverse=True):
            # All of this node's candidate configurations are built from
            # the same base (competing alternatives for the node); an
            # adopted candidate becomes the base for *subsequent* nodes.
            base = best
            node_base = base.state
            # Intermediate loop: cumulative removals, highest utility first.
            removable: List[str] = []
            for app_id in sorted(
                node_base.apps_on(node),
                key=lambda a: best.utilities.get(a, float("-inf")),
                reverse=True,
            ):
                removable.extend([app_id] * node_base.instances_on(app_id, node))
            # The inner loop's order is the same for every removal count
            # (see _fill_order); it reads best.utilities, so an adoption
            # rebuilds it.
            order: Optional[List[str]] = self._fill_order(
                node_base, specs, candidates, best.utilities, node
            )
            # The zero-removal trial is the incumbent plus whatever the
            # fill pass adds.  When it would add nothing, the trial is the
            # incumbent itself: skip it without paying for the copy.
            first = 0
            if self._fills_nothing(node_base, specs, node, order):
                if self._c_shortcut is not None:
                    self._c_shortcut.inc(kind="node_noop")
                if audit is not None:
                    audit.shortcircuit("node_noop", node=node)
                first = 1

            for removals in range(first, len(removable) + 1):
                trial = node_base.copy()
                removed = set(removable[:removals])
                for app_id in removable[:removals]:
                    trial.remove(app_id, node)
                if order is None:
                    order = self._fill_order(
                        node_base, specs, candidates, best.utilities, node
                    )
                filled = self._fill_node(trial, specs, node, order)
                # The trial differs from its base on this node only, for
                # the removed and the filled applications.
                churn = base.churn
                for app_id in (*removed, *filled):
                    was = baseline.get(app_id, {}).get(node, 0)
                    churn += abs(trial.instances_on(app_id, node) - was) - abs(
                        node_base.instances_on(app_id, node) - was
                    )
                # Preemptive configs (those that suspend/relocate running
                # instances) must clear the preemption penalty; pure
                # additions only the noise threshold.
                tolerance = (
                    REMOVAL_GATE if removals > 0 else IMPROVEMENT_EPSILON
                )
                scored = evaluate(
                    trial, churn, tolerance=tolerance, base=base.load,
                    node=node,
                )
                adopted = self._objective.better(scored.score, best.score)
                if audit is not None:
                    audit.candidate(
                        stage="search",
                        accepted=adopted,
                        reason="improved" if adopted else "no_improvement",
                        utilities=scored.utilities,
                        comparison=self._objective.explain(
                            scored.score, best.score
                        ),
                        node=node,
                        removals=removals,
                        churn=scored.score.num_changes,
                        tolerance=scored.score.utilities.tolerance,
                    )
                if adopted:
                    best = scored.adopt()
                    order = None
                    if bound_reached(best.score):
                        if self._c_shortcut is not None:
                            self._c_shortcut.inc(kind="upper_bound")
                        if audit is not None:
                            audit.shortcircuit("upper_bound", node=node)
                        return best
        return best

    def _node_committed_min(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        node: str,
    ) -> float:
        """Sum of placed instances' minimum speeds on one node."""
        committed = 0.0
        for app_id in state.apps_on(node):
            spec = specs.get(app_id)
            if spec is None:
                continue
            committed += spec.demand.min_cpu_mhz * state.instances_on(app_id, node)
        return committed

    def _fill_order(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        utilities: Mapping[str, float],
        node: str,
    ) -> List[str]:
        """The inner loop's candidates for ``node``, LRPF order: every
        candidate with no instance on the node, divisible or unplaced.

        Built from the node's base ``state``, it is every trial's list
        whatever it removed: a singleton removed from the node was
        placed in the base, a divisible app removed from it had an
        instance there, and a trial changes no other app.
        """
        placed = state.placed_apps
        hosted = state.hosted_on(node)
        eligible = [
            c
            for c in candidates
            if c in specs
            and (specs[c].demand.divisible or c not in placed)
            and c not in hosted
        ]
        return lrpf_order(eligible, specs, utilities)

    def _fills_nothing(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        node: str,
        order: Sequence[str],
    ) -> bool:
        """Would :meth:`_fill_node` place nothing on ``node`` of ``state``?

        Its first-placement test over ``order``, with the same checks in
        the same order, on ``state`` itself instead of a copy."""
        committed = self._node_committed_min(state, specs, node)
        capacity = self._cluster.node(node).cpu_capacity
        room = state.memory_available(node) + EPSILON
        for app_id in order:
            spec = specs[app_id]
            if room < spec.demand.memory_mb:
                continue
            if (
                self._can_host(state, spec, node)
                and committed + spec.demand.min_cpu_mhz <= capacity + EPSILON
            ):
                return False
        return True

    def _fill_node(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        node: str,
        order: Sequence[str],
    ) -> List[str]:
        """Inner loop: place new instances on ``node``, walking ``order``
        (:meth:`_fill_order`) and keeping each that fits.  Returns the
        applications placed, one instance each."""
        placed: List[str] = []
        if self._audit is not None and order:
            self._audit.note_fill(node, order)
        # Maintain the node's committed-min sum across placements instead
        # of rescanning every hosted application per check.
        committed = self._node_committed_min(state, specs, node)
        capacity = self._cluster.node(node).cpu_capacity
        # Free memory changes only when an instance is placed.
        room = state.memory_available(node) + EPSILON
        for app_id in order:
            spec = specs[app_id]
            if room < spec.demand.memory_mb:
                continue
            min_cpu = spec.demand.min_cpu_mhz
            if (
                self._can_host(state, spec, node)
                and committed + min_cpu <= capacity + EPSILON
            ):
                state.place(app_id, node, spec.demand.memory_mb)
                committed += min_cpu
                placed.append(app_id)
                room = state.memory_available(node) + EPSILON
        return placed
