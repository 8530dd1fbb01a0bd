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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._compat import keyword_only
from repro.cluster import Cluster
from repro.core.admission import (
    AdmissionLike,
    AdmissionStrategy,
    resolve_admission,
)
from repro.core.constraints import ConstraintSet
from repro.core.loadbalance import AllocatableApp, SpecArrays, distribute_load
from repro.core.objective import (
    Objective,
    ObjectiveLike,
    PlacementScore,
    UtilityVector,
    resolve_objective,
)
from repro.core.placement import PlacementState
from repro.core.workload import WorkloadModel
from repro.errors import ConfigurationError, PlacementError
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry
from repro.obs.spans import NULL_SPAN, SpanProfiler
from repro.units import EPSILON
from repro.virt.actions import diff_placements

#: Every profiler span phase the controller can emit, in nesting order.
#: Pinned by test: dashboards and ``repro bench --profile`` key off these
#: names, so renames are breaking changes.
SPAN_PHASES: Tuple[str, ...] = (
    "apc.place",
    "apc.model_specs",
    "apc.spec_tables",
    "apc.admission",
    "apc.search",
    "apc.frontier",
    "apc.evaluate",
    "apc.loadbalance",
    "apc.predict",
    "apc.objective",
)


@keyword_only
@dataclass
class APCConfig:
    """Tunables of the placement controller.  Construct with keyword
    arguments (positional construction is deprecated).

    Attributes
    ----------
    cycle_length:
        Control cycle period ``T`` in seconds (§3.1: "of the order of
        minutes"; Experiment One uses 600 s).
    max_removals_per_node:
        Cap on the intermediate loop's cumulative removals per node
        (``None`` = all instances on the node may be considered).
    search_sweeps:
        Number of outer-loop sweeps over all nodes per cycle.
    improvement_epsilon:
        Minimum per-element utility-vector improvement that justifies a
        change; below this, candidates are treated as ties (and ties
        never justify churn).  The default, 0.02, matches the paper's
        reporting granularity for the illustrative example — Scenario 1's
        alternatives (exactly: 0.6875 vs 0.6955) are reported as the tie
        "0.7 vs 0.7" and resolved in favor of no change.
    preemption_penalty:
        Extra utility-vector improvement a candidate must show when it
        *suspends or relocates* running instances.  The hypothetical
        predictor has one-cycle lookahead: swapping a queued job for a
        running one of the same class always shows a transient gain of
        ``T / relative_goal`` (the queued job's achievable performance
        stops eroding for one cycle) even though the true completion-time
        vector cannot improve — the paper proves this for identical jobs
        (§5.1) and indeed observes zero changes.  Requiring preemptive
        configs to beat the incumbent by this margin suppresses those
        illusory swaps while preserving genuine urgency-driven
        preemption (a tight-goal job's erosion rate is many times
        larger).  This realizes the paper's "heuristics that aim to
        minimize the number of changes to the current placement" (§3.2).
    enable_search:
        When False only the greedy admission pass runs (useful for
        ablations; the full paper algorithm keeps it True).
    incremental:
        Enable the fast-path machinery: the per-cycle candidate
        evaluation memo, the O(1) per-node min-CPU admission index, the
        no-op-node skip and the utility upper-bound short-circuit.  Every
        one of these preserves the naive solver's decisions byte for
        byte (pinned by test); the flag exists so benchmarks and
        regression hunts can fall back to the reference three-loop
        implementation.
    vectorize:
        Use the dense array kernels: merged per-application
        :class:`~repro.core.loadbalance.SpecArrays` feeding the
        vectorized load distributor, the array-scan admission pass and
        the frontier index behind the no-op-node skip.  Decisions are
        byte-identical with the scalar paths (pinned by test); the flag
        exists so benchmarks can measure scalar vs. vectorized and
        regression hunts can bisect.  Only active together with
        ``incremental`` on clusters of at least ``fast_path_min_nodes``.
    fast_path_min_nodes:
        Minimum cluster size for the fast-path machinery (memo, indexes,
        vectorized kernels).  Below it the bookkeeping costs more than
        the scans it replaces — on a 10-node cluster the memo/index
        setup made ``incremental`` ~15% *slower* than the naive loops —
        so small clusters run the plain reference path.  It also picks
        the load distributor: below it ``distribute_load`` runs on rows
        prepared once per call, at or above it on the merged
        ``SpecArrays`` kernels.  Decisions are unaffected either way.
        Set to 0 to force the fast path at any size.
    """

    cycle_length: float = 600.0
    max_removals_per_node: Optional[int] = None
    search_sweeps: int = 1
    improvement_epsilon: float = 0.02
    preemption_penalty: float = 0.05
    enable_search: bool = True
    incremental: bool = True
    vectorize: bool = True
    fast_path_min_nodes: int = 16

    def __post_init__(self) -> None:
        # The chained comparisons are false for NaN, so NaN is rejected
        # too: a NaN tolerance would make every candidate comparison
        # false without a word.
        if not 0 < self.cycle_length < math.inf:
            raise ConfigurationError(
                f"cycle_length must be positive and finite, got {self.cycle_length}"
            )
        for name in ("improvement_epsilon", "preemption_penalty"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be non-negative and finite, got {value}"
                )
        if self.search_sweeps < 0:
            raise ConfigurationError(f"search sweeps must be >= 0, got {self.search_sweeps}")
        if self.max_removals_per_node is not None and self.max_removals_per_node < 0:
            raise ConfigurationError("max removals per node must be >= 0 or None")
        if self.fast_path_min_nodes < 0:
            raise ConfigurationError(
                f"fast path min nodes must be >= 0, got {self.fast_path_min_nodes}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return {
            "cycle_length": self.cycle_length,
            "max_removals_per_node": self.max_removals_per_node,
            "search_sweeps": self.search_sweeps,
            "improvement_epsilon": self.improvement_epsilon,
            "preemption_penalty": self.preemption_penalty,
            "enable_search": self.enable_search,
            "incremental": self.incremental,
            "vectorize": self.vectorize,
            "fast_path_min_nodes": self.fast_path_min_nodes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "APCConfig":
        """Build from a plain dict (inverse of :meth:`to_dict`); unknown
        keys are rejected to surface config typos."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown APCConfig keys: {sorted(unknown)}"
            )
        return cls(**dict(data))


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
    #: Candidate evaluations answered from the per-cycle memo (always 0
    #: with ``incremental=False`` or below ``fast_path_min_nodes``).
    cache_hits: int = 0

    @property
    def utility_vector(self) -> UtilityVector:
        return UtilityVector(self.utilities.values())


class _FrontierIndex:
    """Per-base-state candidate frontier for the no-op-node check.

    :meth:`ApplicationPlacementController._fill_possible` asks, per
    node, whether *any* candidate could be placed on the unmodified
    base state.  The candidate-intrinsic parts of that answer — spec
    existence, non-divisible-and-already-placed, the max-instances cap —
    depend only on the base state, so they are filtered once here; the
    per-node remainder (memory fit, min-CPU reservation, no instance
    already on the node) becomes two array comparisons and a mask.

    Only built without placement constraints (whose per-(app, node)
    policy check stays scalar).  Answers are byte-identical to the
    scalar scan: same float comparisons per surviving candidate, and
    ``any`` over the same boolean set.
    """

    __slots__ = ("ids", "mem", "min_cpu", "on_node")

    @classmethod
    def build(
        cls,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
    ) -> "_FrontierIndex":
        index = cls.__new__(cls)
        ids: List[str] = []
        mem: List[float] = []
        min_cpu: List[float] = []
        seen: set = set()
        for c in candidates:
            if c in seen:
                continue
            seen.add(c)
            spec = specs.get(c)
            if spec is None:
                continue
            demand = spec.demand
            if not demand.divisible and state.is_placed(c):
                continue
            if (
                demand.max_instances is not None
                and state.instance_count(c) >= demand.max_instances
            ):
                continue
            ids.append(c)
            mem.append(demand.memory_mb)
            min_cpu.append(demand.min_cpu_mhz)
        index.ids = ids
        index.mem = np.array(mem)
        index.min_cpu = np.array(min_cpu)
        on_node: Dict[str, List[int]] = {}
        for row, c in enumerate(ids):
            for node, count in state.instance_items(c):
                if count != 0:
                    on_node.setdefault(node, []).append(row)
        index.on_node = {n: np.array(rows) for n, rows in on_node.items()}
        return index

    def fill_possible(
        self,
        mem_avail: float,
        committed: float,
        capacity: float,
        node: str,
    ) -> bool:
        """Could the fill pass place anything on ``node``?"""
        ok = (mem_avail + EPSILON >= self.mem) & (
            committed + self.min_cpu <= capacity + EPSILON
        )
        hosted = self.on_node.get(node)
        if hosted is not None:
            ok[hosted] = False
        return bool(ok.any())


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
        objective: ObjectiveLike = None,
        admission: AdmissionLike = None,
        tracer=None,
    ) -> None:
        self._cluster = cluster
        self._config = config or APCConfig()
        self._constraints = constraints or ConstraintSet()
        self._profiler = profiler
        self._audit = audit
        #: Optional causal job tracer (``repro.obs.tracing.JobTracer``);
        #: receives the same admission verdicts as the audit.
        self._tracer = tracer
        #: Candidate-ranking strategy; ``None`` resolves to the paper's
        #: lexicographic maxmin, byte-identical to the historical
        #: hardwired scoring.
        self._objective = resolve_objective(objective)
        #: Greedy-pass ordering; ``None`` resolves to the paper's LRPF.
        self._admission = resolve_admission(admission)
        #: Node name -> position, replacing O(N) ``node_names.index``
        #: lookups in the admission pass's host tie-break.
        self._node_pos: Dict[str, int] = {
            n: i for i, n in enumerate(cluster.node_names)
        }
        #: Whether the fast-path machinery (memo, indexes, vector
        #: kernels) is engaged: requires ``incremental`` and a cluster
        #: big enough for the bookkeeping to pay for itself.  Both the
        #: fast and the reference paths make identical decisions.
        self._fast = (
            self._config.incremental
            and len(cluster) >= self._config.fast_path_min_nodes
        )
        self._c_cache = None
        self._c_shortcut = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: MetricRegistry) -> None:
        """Publish fast-path telemetry into a
        :class:`~repro.obs.registry.MetricRegistry`: evaluation-memo
        lookups (``repro_apc_cache_total``) and search short-circuits
        (``repro_apc_shortcircuit_total``)."""
        self._c_cache = registry.counter(
            "repro_apc_cache_total",
            "APC candidate-evaluation memo lookups by outcome",
            ("outcome",),
        )
        self._c_shortcut = registry.counter(
            "repro_apc_shortcircuit_total",
            "APC search work skipped by fast-path checks",
            ("kind",),
        )

    @property
    def config(self) -> APCConfig:
        return self._config

    @property
    def constraints(self) -> ConstraintSet:
        return self._constraints

    @property
    def profiler(self) -> Optional[SpanProfiler]:
        return self._profiler

    @property
    def audit(self) -> Optional[DecisionAudit]:
        return self._audit

    @property
    def objective(self) -> Objective:
        return self._objective

    @property
    def admission(self) -> AdmissionStrategy:
        return self._admission

    def attach_audit(self, audit: Optional[DecisionAudit]) -> None:
        """Attach (or detach, with ``None``) the decision flight
        recorder.  Placement decisions are unaffected either way."""
        self._audit = audit

    @property
    def tracer(self):
        return self._tracer

    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) the causal job tracer.
        Placement decisions are unaffected either way."""
        self._tracer = tracer

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
        (``apc.model_specs``), spec-array table assembly
        (``apc.spec_tables``, vectorized path only), candidate
        evaluation (``apc.evaluate``, itself split into the
        load-balancing solve ``apc.loadbalance``, the workload models'
        hypothetical/RPF prediction ``apc.predict``, and objective
        scoring ``apc.objective``), the greedy admission pass
        (``apc.admission``), and the nested-loop search (``apc.search``,
        with frontier-index builds under ``apc.frontier``).  The full
        phase list is pinned as :data:`SPAN_PHASES`.  Un-instrumented,
        the spans are no-ops and the computation is unchanged.
        """
        with self._span("apc.place"):
            return self._place_profiled(models, current, now)

    def _place_profiled(
        self,
        models: Sequence[WorkloadModel],
        current: PlacementState,
        now: float,
    ) -> APCResult:
        audit = self._audit
        if audit is not None:
            audit.begin_cycle(now)
        if self._tracer is not None:
            self._tracer.begin_cycle(now)
        with self._span("apc.model_specs"):
            specs = self._merge_specs(models, now)
            candidates = self._merge_candidates(models, now)
        tables: Optional[SpecArrays] = None
        if self._fast and self._config.vectorize and specs:
            with self._span("apc.spec_tables"):
                tables = self._merge_spec_arrays(models, specs, now)

        state = current.copy()
        self._prune_vanished(state, specs)
        self._prune_unavailable(state)
        self._refresh_demands(state, specs)
        baseline = state.as_matrix()

        evaluations = 0
        cache_hits = 0
        use_memo = self._fast
        #: Whether the most recent evaluate() call was memo-served; read
        #: by the audit so memo hits are recorded identically to misses
        #: (just flagged).  A plain dict write, so decisions are
        #: unaffected when no audit is attached.
        eval_info = {"cached": False}
        #: matrix_key -> (utilities, allocations, churn, load entries in
        #: write order).  Valid for this cycle only: specs and `now` are
        #: fixed, so evaluation is a pure function of the placement.
        eval_memo: Dict[Tuple, Tuple] = {}

        def evaluate(
            trial: PlacementState, tolerance: Optional[float] = None
        ) -> Tuple[PlacementScore, Dict[str, float], Dict[str, float]]:
            nonlocal evaluations, cache_hits
            tol = (
                self._config.improvement_epsilon
                if tolerance is None
                else tolerance
            )
            key = trial.matrix_key() if use_memo else None
            if key is not None:
                hit = eval_memo.get(key)
                if hit is not None:
                    cache_hits += 1
                    eval_info["cached"] = True
                    if self._c_cache is not None:
                        self._c_cache.inc(outcome="hit")
                    utilities, allocations, churn, load_entries = hit
                    # Replay the load matrix in its original write order
                    # so the trial state is indistinguishable from a
                    # freshly evaluated one.
                    trial.clear_load()
                    for app_id, node, cpu in load_entries:
                        trial.set_cpu(app_id, node, cpu)
                    score = self._objective.score(utilities, churn, tol)
                    return score, dict(utilities), dict(allocations)
                if self._c_cache is not None:
                    self._c_cache.inc(outcome="miss")
            eval_info["cached"] = False
            evaluations += 1
            with self._span("apc.evaluate"):
                with self._span("apc.loadbalance"):
                    result = distribute_load(trial, specs, tables=tables)
                utilities: Dict[str, float] = {}
                with self._span("apc.predict"):
                    for model in models:
                        utilities.update(
                            model.evaluate(
                                result.allocations, now, self._config.cycle_length
                            )
                        )
                with self._span("apc.objective"):
                    removals, additions = diff_placements(
                        baseline, trial.as_matrix()
                    )
                    churn = sum(c for _, _, c in removals) + sum(
                        c for _, _, c in additions
                    )
                    score = self._objective.score(utilities, churn, tol)
            if key is not None:
                load_entries = tuple(
                    (a, n, c)
                    for a, nodes in trial.load_matrix().items()
                    for n, c in nodes.items()
                )
                eval_memo[key] = (
                    dict(utilities), dict(result.allocations), churn, load_entries
                )
            return score, utilities, result.allocations

        best_state = state
        best_score, best_utilities, best_allocations = evaluate(best_state)

        if audit is not None:
            audit.incumbent(best_utilities)
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
            trial = best_state.copy()
            placed_any = self._greedy_admit(trial, specs, candidates, best_utilities)
            if placed_any:
                score, utilities, allocations = evaluate(trial)
                adopted = self._objective.better(score, best_score)
                if audit is not None:
                    audit.candidate(
                        stage="admission",
                        accepted=adopted,
                        reason="improved" if adopted else "no_improvement",
                        utilities=utilities,
                        comparison=self._objective.explain(score, best_score),
                        churn=score.num_changes,
                        cached=eval_info["cached"],
                        tolerance=score.utilities.tolerance,
                    )
                if adopted:
                    best_state, best_score = trial, score
                    best_utilities, best_allocations = utilities, allocations

        # ---- full nested-loop search ------------------------------------
        run_search = self._config.enable_search and self._search_is_worthwhile(
            best_state, specs, candidates, best_utilities, best_allocations
        )
        if audit is not None and not run_search:
            audit.shortcircuit(
                "search_skipped"
                if self._config.enable_search
                else "search_disabled"
            )
        if run_search:
            bound_reached = (
                self._make_bound_checker(specs)
                if self._fast and self._objective.supports_upper_bound
                else None
            )
            with self._span("apc.search"):
                for _ in range(self._config.search_sweeps):
                    if bound_reached is not None and bound_reached(best_score):
                        # No candidate vector can clear the incumbent by
                        # more than the noise threshold anywhere.
                        if self._c_shortcut is not None:
                            self._c_shortcut.inc(kind="upper_bound")
                        if audit is not None:
                            audit.shortcircuit("upper_bound")
                        break
                    (
                        improved,
                        best_state,
                        best_score,
                        best_utilities,
                        best_allocations,
                    ) = self._sweep(
                        best_state,
                        best_score,
                        best_utilities,
                        best_allocations,
                        specs,
                        candidates,
                        evaluate,
                        bound_reached,
                        eval_info,
                    )
                    if not improved:
                        break

        changed = best_state.as_matrix() != baseline
        if audit is not None:
            audit.end_cycle(
                utilities_after=best_utilities,
                changed=changed,
                evaluations=evaluations,
                cache_hits=cache_hits,
            )
        return APCResult(
            state=best_state,
            allocations=best_allocations,
            utilities=best_utilities,
            score=best_score,
            evaluations=evaluations,
            changed=changed,
            cache_hits=cache_hits,
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

    def _merge_spec_arrays(
        self,
        models: Sequence[WorkloadModel],
        specs: Mapping[str, AllocatableApp],
        now: float,
    ) -> Optional[SpecArrays]:
        """Assemble the cycle's column-oriented spec table.

        Models that can export their specs as arrays directly (the
        vectorized batch model's ``app_spec_arrays``) do so without
        touching per-app spec objects; the rest are converted through
        the scalar :meth:`SpecArrays.from_specs` fallback.  Returns
        ``None`` when there is nothing to tabulate.
        """
        parts: List[SpecArrays] = []
        covered: set = set()
        for model in models:
            exporter = getattr(model, "app_spec_arrays", None)
            if exporter is None:
                continue
            part = exporter(now)
            if part is None:
                continue
            parts.append(part)
            covered.update(part.ids)
        leftover = {a: s for a, s in specs.items() if a not in covered}
        if leftover:
            parts.append(SpecArrays.from_specs(leftover))
        if not parts:
            return None
        return SpecArrays.merge(parts)

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
        """Memory + min-CPU + policy check for one more instance."""
        demand = spec.demand
        if state.memory_available(node) + EPSILON < demand.memory_mb:
            return False
        if demand.max_instances is not None:
            if state.instance_count(demand.app_id) >= demand.max_instances:
                return False
        # Reserve minimum speeds: the sum of min speeds of instances on
        # the node (including the newcomer) must fit in CPU capacity.
        return self._constraints.allows(state, demand.app_id, node)

    def _min_cpu_fits(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        node: str,
        extra_min: float,
    ) -> bool:
        committed = extra_min
        for app_id in state.apps_on(node):
            spec = specs.get(app_id)
            if spec is None:
                continue
            committed += spec.demand.min_cpu_mhz * state.instances_on(app_id, node)
        return committed <= self._cluster.node(node).cpu_capacity + EPSILON

    def _committed_min_cpu(
        self, state: PlacementState, specs: Mapping[str, AllocatableApp]
    ) -> Dict[str, float]:
        """Per-node sum of placed instances' minimum speeds.

        The incremental admission index: computed once per pass, updated
        in O(1) per placement, making the min-CPU reservation check
        constant-time instead of a scan over every application on the
        node for every (candidate, node) pair.
        """
        committed = {n: 0.0 for n in self._cluster.node_names}
        for app_id in state.app_ids:
            spec = specs.get(app_id)
            if spec is None:
                continue
            min_cpu = spec.demand.min_cpu_mhz
            if min_cpu <= 0.0:
                continue
            for node, count in state.instance_items(app_id):
                committed[node] += min_cpu * count
        return committed

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
        ``improvement_epsilon`` — so once the bound is within epsilon of
        the incumbent everywhere, no further sweep can adopt anything.
        """
        upper = sorted(spec.rpf.max_utility for spec in specs.values())
        epsilon = self._config.improvement_epsilon

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
    ) -> bool:
        """Place unplaced candidates into free capacity, LRPF first.

        Singleton applications (jobs) get one instance on the node with
        the most free CPU among those with room; divisible applications
        (web clusters) get an instance on *every* node that can host one —
        growing the cluster costs nothing at this stage and lets the load
        distributor use all available capacity.
        """
        unplaced = [c for c in candidates if not state.is_placed(c) and c in specs]
        unplaced = self._admission.order(unplaced, specs, utilities)
        if not unplaced:
            return False
        if self._fast:
            if self._config.vectorize and not len(self._constraints):
                return self._greedy_admit_vec(state, specs, unplaced, utilities)
            return self._greedy_admit_fast(state, specs, unplaced, utilities)
        observe = self._audit is not None or self._tracer is not None
        placed_any = False
        for rank, app_id in enumerate(unplaced):
            spec = specs[app_id]
            min_cpu = spec.demand.min_cpu_mhz
            placed_nodes: List[str] = []
            if spec.demand.divisible:
                for node in self._cluster.node_names:
                    if self._can_host(state, spec, node) and self._min_cpu_fits(
                        state, specs, node, min_cpu
                    ):
                        state.place(app_id, node, spec.demand.memory_mb)
                        placed_any = True
                        placed_nodes.append(node)
            else:
                hosts = [
                    n
                    for n in self._cluster.node_names
                    if self._can_host(state, spec, n)
                    and self._min_cpu_fits(state, specs, n, min_cpu)
                ]
                if hosts:
                    # Most free CPU first: spreads jobs and leaves room
                    # for each to reach its maximum speed.
                    target = max(
                        hosts,
                        key=lambda n: (
                            state.cpu_available(n),
                            -self._cluster.node_names.index(n),
                        ),
                    )
                    state.place(app_id, target, spec.demand.memory_mb)
                    placed_any = True
                    placed_nodes.append(target)
            if observe:
                self._note_admission(
                    state, specs, app_id, rank, utilities, placed_nodes
                )
        return placed_any

    def _note_admission(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        app_id: str,
        rank: int,
        utilities: Mapping[str, float],
        placed_nodes: Sequence[str],
    ) -> None:
        """Emit one greedy-admission verdict to the attached observers
        (audit and/or tracer); only called when at least one is on."""
        accepted = bool(placed_nodes)
        reason = (
            "placed"
            if placed_nodes
            else self._admission_reject_reason(state, specs, app_id)
        )
        utility = utilities.get(app_id, specs[app_id].rpf.max_utility)
        if self._audit is not None:
            self._audit.admission(
                app_id,
                accepted=accepted,
                reason=reason,
                lrpf_rank=rank,
                utility=utility,
                nodes=placed_nodes,
            )
        if self._tracer is not None:
            self._tracer.admission(
                app_id,
                accepted=accepted,
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
        alone, so both search paths report identical reasons.  Only
        called with an audit or tracer attached — never on the decision
        path.
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
            if self._min_cpu_fits(state, specs, n, demand.min_cpu_mhz)
        ]
        if not cpu_ok:
            return "min_cpu"
        if not any(
            self._constraints.allows(state, app_id, n) for n in cpu_ok
        ):
            return "constraint"
        return "no_host"

    def _greedy_admit_fast(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        unplaced: Sequence[str],
        utilities: Mapping[str, float],
    ) -> bool:
        """Indexed admission pass: same decisions as the naive loop, but
        per-node memory/min-CPU/free-CPU figures are computed once and
        updated in O(1) per placement instead of re-derived from the
        state for every (candidate, node) pair."""
        node_names = self._cluster.node_names
        committed = self._committed_min_cpu(state, specs)
        capacity = {n: self._cluster.node(n).cpu_capacity for n in node_names}
        mem_avail = {n: state.memory_available(n) for n in node_names}
        # The admission pass never touches the load matrix, so free CPU
        # (the host tie-break key) is constant throughout.
        cpu_avail = {n: state.cpu_available(n) for n in node_names}
        node_pos = self._node_pos
        constraints = self._constraints if len(self._constraints) else None
        observe = self._audit is not None or self._tracer is not None
        placed_any = False
        for rank, app_id in enumerate(unplaced):
            demand = specs[app_id].demand
            memory_mb = demand.memory_mb
            min_cpu = demand.min_cpu_mhz
            max_inst = demand.max_instances
            count = state.instance_count(app_id)
            placed_nodes: List[str] = []
            if demand.divisible:
                for node in node_names:
                    if max_inst is not None and count >= max_inst:
                        break
                    if mem_avail[node] + EPSILON < memory_mb:
                        continue
                    if committed[node] + min_cpu > capacity[node] + EPSILON:
                        continue
                    if constraints is not None and not constraints.allows(
                        state, app_id, node
                    ):
                        continue
                    state.place(app_id, node, memory_mb)
                    committed[node] += min_cpu
                    mem_avail[node] -= memory_mb
                    count += 1
                    placed_any = True
                    placed_nodes.append(node)
            elif max_inst is None or count < max_inst:
                hosts = [
                    n
                    for n in node_names
                    if mem_avail[n] + EPSILON >= memory_mb
                    and committed[n] + min_cpu <= capacity[n] + EPSILON
                    and (
                        constraints is None
                        or constraints.allows(state, app_id, n)
                    )
                ]
                if hosts:
                    target = max(
                        hosts, key=lambda n: (cpu_avail[n], -node_pos[n])
                    )
                    state.place(app_id, target, memory_mb)
                    committed[target] += min_cpu
                    mem_avail[target] -= memory_mb
                    placed_any = True
                    placed_nodes.append(target)
            if observe:
                self._note_admission(
                    state, specs, app_id, rank, utilities, placed_nodes
                )
        return placed_any

    def _greedy_admit_vec(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        unplaced: Sequence[str],
        utilities: Mapping[str, float],
    ) -> bool:
        """Array-scan admission pass: the decisions of
        :meth:`_greedy_admit_fast`, with the per-candidate host scan as
        one numpy comparison over all node columns.

        Only used without placement constraints (the policy check is
        per-(app, node) and stays scalar); byte-identity with the scalar
        pass is pinned by test.  The host tie-break — most free CPU,
        then lowest node position — maps onto ``argmax`` because numpy
        returns the *first* maximum.
        """
        node_index = state.node_index
        names = list(node_index)
        cpu_caps, mem_caps = state.capacity_arrays()
        mem_avail = mem_caps - state.memory_used_array()
        # The admission pass never touches the load matrix, so free CPU
        # (the host tie-break key) is constant throughout.
        cpu_avail = cpu_caps - state.cpu_used_array()
        committed_by_name = self._committed_min_cpu(state, specs)
        committed = np.array([committed_by_name[n] for n in names])
        observe = self._audit is not None or self._tracer is not None
        placed_any = False
        for rank, app_id in enumerate(unplaced):
            demand = specs[app_id].demand
            memory_mb = demand.memory_mb
            min_cpu = demand.min_cpu_mhz
            max_inst = demand.max_instances
            count = state.instance_count(app_id)
            placed_nodes: List[str] = []
            mask = (mem_avail + EPSILON >= memory_mb) & (
                committed + min_cpu <= cpu_caps + EPSILON
            )
            if demand.divisible:
                cols = np.flatnonzero(mask)
                if max_inst is not None:
                    cols = cols[: max(0, max_inst - count)]
                if cols.size:
                    for col in cols.tolist():
                        state.place(app_id, names[col], memory_mb)
                        placed_nodes.append(names[col])
                    committed[cols] += min_cpu
                    mem_avail[cols] -= memory_mb
                    placed_any = True
            elif (max_inst is None or count < max_inst) and bool(mask.any()):
                target = int(np.argmax(np.where(mask, cpu_avail, -np.inf)))
                state.place(app_id, names[target], memory_mb)
                committed[target] += min_cpu
                mem_avail[target] -= memory_mb
                placed_any = True
                placed_nodes.append(names[target])
            if observe:
                self._note_admission(
                    state, specs, app_id, rank, utilities, placed_nodes
                )
        return placed_any

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
        gate = max(
            self._config.preemption_penalty, self._config.improvement_epsilon
        )
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
        free_names: Optional[List[str]] = None
        if self._fast:
            # One array scan for the nodes with free CPU, instead of an
            # O(nodes) availability probe per starved application.  Same
            # comparison per node, so the same answer.
            cpu_caps, _ = state.capacity_arrays()
            names = list(state.node_index)
            free_mask = (cpu_caps - state.cpu_used_array()) > EPSILON
            free_names = [names[i] for i in np.flatnonzero(free_mask).tolist()]
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
            if free_names is not None:
                if any(n not in own_nodes for n in free_names):
                    return True
            elif any(
                state.cpu_available(n) > EPSILON
                for n in self._cluster.node_names
                if n not in own_nodes
            ):
                return True
        return False

    def _sweep(
        self,
        best_state: PlacementState,
        best_score: PlacementScore,
        best_utilities: Dict[str, float],
        best_allocations: Dict[str, float],
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        evaluate,
        bound_reached: Optional[Callable[[PlacementScore], bool]] = None,
        eval_info: Optional[Dict[str, bool]] = None,
    ):
        """One outer-loop pass over all nodes.  Returns
        ``(improved, state, score, utilities, allocations)``."""
        improved = False
        fast = self._fast
        use_frontier = (
            fast and self._config.vectorize and not len(self._constraints)
        )
        frontier: Optional[_FrontierIndex] = None
        frontier_base: Optional[PlacementState] = None
        audit = self._audit

        # Outer loop: visit nodes hosting the highest-utility instances
        # first — they are the most promising donors of capacity.
        if fast:
            # One pass over placements instead of an O(apps) scan per
            # node: per-node max of hosted apps' utilities, same key.
            node_best: Dict[str, float] = {}
            for app_id in best_state.app_ids:
                utility = best_utilities.get(app_id, float("-inf"))
                for node_name, count in best_state.instance_items(app_id):
                    if count > 0 and utility > node_best.get(
                        node_name, float("-inf")
                    ):
                        node_best[node_name] = utility

            def node_key(node: str) -> float:
                return node_best.get(node, float("-inf"))

        else:

            def node_key(node: str) -> float:
                apps = best_state.apps_on(node)
                if not apps:
                    return float("-inf")
                return max(best_utilities.get(a, float("-inf")) for a in apps)

        for node in sorted(self._cluster.node_names, key=node_key, reverse=True):
            # All of this node's candidate configurations are built from
            # the same base (competing alternatives for the node); an
            # adopted candidate becomes the base for *subsequent* nodes.
            node_base = best_state
            # Intermediate loop: cumulative removals, highest utility first.
            removable: List[str] = []
            for app_id in sorted(
                node_base.apps_on(node),
                key=lambda a: best_utilities.get(a, float("-inf")),
                reverse=True,
            ):
                removable.extend([app_id] * node_base.instances_on(app_id, node))
            if self._config.max_removals_per_node is not None:
                removable = removable[: self._config.max_removals_per_node]

            for removals in range(len(removable) + 1):
                if removals == 0 and fast:
                    # The zero-removal trial is the incumbent plus
                    # whatever the fill pass can add.  The fill's first
                    # placement decision depends only on the unmodified
                    # base, so when nothing can be placed there, the
                    # trial is the incumbent itself — skip it without
                    # paying for the state copy.
                    if use_frontier:
                        if frontier_base is not node_base:
                            with self._span("apc.frontier"):
                                frontier = _FrontierIndex.build(
                                    node_base, specs, candidates
                                )
                            frontier_base = node_base
                        fillable = frontier.fill_possible(
                            node_base.memory_available(node),
                            self._node_committed_min(node_base, specs, node),
                            self._cluster.node(node).cpu_capacity,
                            node,
                        )
                    else:
                        fillable = self._fill_possible(
                            node_base, specs, candidates, best_utilities, node
                        )
                    if not fillable:
                        if self._c_shortcut is not None:
                            self._c_shortcut.inc(kind="node_noop")
                        if audit is not None:
                            audit.shortcircuit("node_noop", node=node)
                        continue
                trial = node_base.copy()
                for app_id in removable[:removals]:
                    trial.remove(app_id, node)
                filled = self._fill_node(
                    trial, specs, candidates, best_utilities, node,
                    forbidden=set(removable[:removals]),
                )
                if removals == 0 and not filled:
                    continue  # identical to the incumbent placement
                # Preemptive configs (those that suspend/relocate running
                # instances) must clear the preemption penalty; pure
                # additions only the noise threshold.
                tolerance = (
                    max(
                        self._config.preemption_penalty,
                        self._config.improvement_epsilon,
                    )
                    if removals > 0
                    else None
                )
                score, utilities, allocations = evaluate(trial, tolerance=tolerance)
                adopted = self._objective.better(score, best_score)
                if audit is not None:
                    audit.candidate(
                        stage="search",
                        accepted=adopted,
                        reason="improved" if adopted else "no_improvement",
                        utilities=utilities,
                        comparison=self._objective.explain(score, best_score),
                        node=node,
                        removals=removals,
                        churn=score.num_changes,
                        cached=(
                            eval_info["cached"] if eval_info is not None else None
                        ),
                        tolerance=score.utilities.tolerance,
                    )
                if adopted:
                    best_state, best_score = trial, score
                    best_utilities, best_allocations = utilities, allocations
                    improved = True
                    if bound_reached is not None and bound_reached(best_score):
                        if self._c_shortcut is not None:
                            self._c_shortcut.inc(kind="upper_bound")
                        if audit is not None:
                            audit.shortcircuit("upper_bound", node=node)
                        return (
                            improved,
                            best_state,
                            best_score,
                            best_utilities,
                            best_allocations,
                        )
        return improved, best_state, best_score, best_utilities, best_allocations

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

    def _fill_possible(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        utilities: Mapping[str, float],
        node: str,
    ) -> bool:
        """Would :meth:`_fill_node` place anything on an *unmodified*
        ``state``?  Equivalent because the fill's first placement
        decision sees exactly this state; used to recognize no-op
        zero-removal trials before paying for the state copy."""
        committed = self._node_committed_min(state, specs, node)
        capacity = self._cluster.node(node).cpu_capacity
        for c in candidates:
            spec = specs.get(c)
            if spec is None:
                continue
            if not spec.demand.divisible and state.is_placed(c):
                continue
            if state.instances_on(c, node) != 0:
                continue
            if (
                self._can_host(state, spec, node)
                and committed + spec.demand.min_cpu_mhz <= capacity + EPSILON
            ):
                return True
        return False

    def _fill_node(
        self,
        state: PlacementState,
        specs: Mapping[str, AllocatableApp],
        candidates: Sequence[str],
        utilities: Mapping[str, float],
        node: str,
        forbidden: set,
    ) -> bool:
        """Inner loop: place new instances on ``node``, LRPF order."""
        placed_any = False
        eligible = [
            c
            for c in candidates
            if c in specs
            and c not in forbidden
            and (specs[c].demand.divisible or not state.is_placed(c))
            and state.instances_on(c, node) == 0
        ]
        eligible = self._admission.order(eligible, specs, utilities)
        if self._audit is not None and eligible:
            self._audit.note_fill(node, eligible)
        if self._fast:
            # Maintain the node's committed-min sum across placements
            # instead of rescanning every hosted application per check.
            committed = self._node_committed_min(state, specs, node)
            capacity = self._cluster.node(node).cpu_capacity
            for app_id in eligible:
                spec = specs[app_id]
                min_cpu = spec.demand.min_cpu_mhz
                if (
                    self._can_host(state, spec, node)
                    and committed + min_cpu <= capacity + EPSILON
                ):
                    state.place(app_id, node, spec.demand.memory_mb)
                    committed += min_cpu
                    placed_any = True
            return placed_any
        for app_id in eligible:
            spec = specs[app_id]
            if self._can_host(state, spec, node) and self._min_cpu_fits(
                state, specs, node, spec.demand.min_cpu_mhz
            ):
                state.place(app_id, node, spec.demand.memory_mb)
                placed_any = True
        return placed_any
