"""The paper-literal placement solver, kept as the oracle that pins the
production controller's decisions.

:class:`ReferenceController` is §3.2 as the :mod:`repro.core.apc` module
docstring describes it, with none of the production bookkeeping:

* greedy admission in LRPF order that rescans memory, minimum CPU and
  placement constraints for every (candidate, node) pair;
* the "worthwhile" test that decides whether the search runs (§5.1's
  internal shortcut);
* per-node sweeps: cumulative removals, highest utility first, then an
  LRPF refill of the node;
* adoption only on strict improvement, with the preemption penalty for
  candidates that remove instances.

There is no upper bound, no no-op-node skip, no base-derived trial
load, and every trial gets its load matrix written and its churn diffed against the
baseline in full.  :class:`ReferenceBatchModel` is the §4.2 batch
prediction computed job by job — one
:class:`~repro.batch.rpf.JobAllocationRPF` per job,
:class:`~repro.batch.hypothetical.HypotheticalRPF` over them — from a
fresh queue scan on every call.

Both reuse what is pinned elsewhere: ``distribute_load`` without a
``base`` (``tests/test_loadbalance_oracle.py``), ``diff_placements``, the
controller's prune/refresh helpers, and the
:class:`~repro.core.objective.Objective` (``tests/test_objective.py``).
The LRPF order is the reference's own sort.  :func:`run_cycles` drives
either side through the rolling control-cycle loop that ``repro bench``
times.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.batch.hypothetical import (
    DEFAULT_UTILITY_LEVELS,
    HypotheticalRPF,
    PredictionMethod,
)
from repro.batch.job import JobStatus
from repro.batch.model import BatchWorkloadModel, check_queue_window
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF, job_relative_performance
from repro.core.apc import APCConfig, APCResult, ApplicationPlacementController
from repro.core.constraints import ConstraintSet
from repro.core.loadbalance import AllocatableApp, distribute_load
from repro.core.objective import Objective
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.experiments.benchmark import _roll_cycles
from repro.policies import APCPolicy
from repro.scenario import Simulation
from repro.sim.simulator import MixedWorkloadSimulator
from repro.txn.model import TransactionalWorkloadModel
from repro.units import EPSILON
from repro.virt.actions import diff_placements

_prune_vanished = ApplicationPlacementController._prune_vanished
_prune_unavailable = ApplicationPlacementController._prune_unavailable
_refresh_demands = ApplicationPlacementController._refresh_demands


def _lrpf(app_ids, specs, utilities) -> List[str]:
    """Lowest predicted relative performance first, the RPF maximum for
    an application without a prediction; stable, so ties keep order."""
    return sorted(
        app_ids, key=lambda a: utilities.get(a, specs[a].rpf.max_utility)
    )


class Incumbent(NamedTuple):
    """The best placement so far, with its evaluation."""

    state: PlacementState
    score: object
    utilities: Dict[str, float]
    allocations: Dict[str, float]


class ReferenceController:
    """§3.2's placement heuristic, one plain loop per paper loop."""

    def __init__(
        self,
        cluster,
        config: Optional[APCConfig] = None,
        constraints: Optional[ConstraintSet] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or APCConfig()
        self.constraints = constraints or ConstraintSet()
        self.objective = Objective()

    def place(self, models, current: PlacementState, now: float) -> APCResult:
        specs: Dict[str, AllocatableApp] = {}
        candidates: List[str] = []
        for model in models:
            specs.update(model.app_specs(now))
            candidates.extend(model.placement_candidates(now))

        state = current.copy()
        _prune_vanished(state, specs)
        _prune_unavailable(state)
        _refresh_demands(state, specs)
        baseline = state.as_matrix()
        evaluations = 0

        def evaluate(trial: PlacementState, tolerance: float):
            nonlocal evaluations
            evaluations += 1
            result = distribute_load(trial, specs)
            utilities: Dict[str, float] = {}
            for model in models:
                utilities.update(
                    model.evaluate(result.allocations, now, self.config.cycle_length)
                )
            removals, additions = diff_placements(baseline, trial.as_matrix())
            churn = sum(c for _, _, c in removals) + sum(c for _, _, c in additions)
            score = self.objective.score(utilities, churn, tolerance)
            return score, utilities, result.allocations

        epsilon = self.config.improvement_epsilon
        penalty = max(self.config.preemption_penalty, epsilon)
        best = Incumbent(state, *evaluate(state, epsilon))

        trial = state.copy()
        if self._admit(trial, specs, candidates, best.utilities):
            scored = Incumbent(trial, *evaluate(trial, epsilon))
            if self.objective.better(scored.score, best.score):
                best = scored

        if self.config.enable_search and self._worthwhile(
            best.state, specs, candidates, best.utilities, best.allocations
        ):
            best = self._sweep(best, specs, candidates, evaluate, epsilon, penalty)

        return APCResult(
            state=best.state,
            allocations=best.allocations,
            utilities=best.utilities,
            score=best.score,
            evaluations=evaluations,
            changed=best.state.as_matrix() != baseline,
        )

    # ------------------------------------------------------------------
    def _fits(self, state, specs, app_id: str, node: str) -> bool:
        """Memory, instance cap, placement constraints and the minimum
        speeds of everything on the node plus the newcomer, all read
        afresh from ``state``."""
        demand = specs[app_id].demand
        if state.memory_available(node) + EPSILON < demand.memory_mb:
            return False
        if (
            demand.max_instances is not None
            and state.instance_count(app_id) >= demand.max_instances
        ):
            return False
        if not self.constraints.allows(state, app_id, node):
            return False
        committed = demand.min_cpu_mhz
        for other in state.apps_on(node):
            if other in specs:
                committed += specs[other].demand.min_cpu_mhz * state.instances_on(
                    other, node
                )
        return committed <= self.cluster.node(node).cpu_capacity + EPSILON

    def _admit(self, state, specs, candidates, utilities) -> bool:
        """Greedy admission: each unplaced candidate, LRPF first, goes on
        the node with the most free CPU (a divisible one on every node
        that can host it)."""
        unplaced = [c for c in candidates if not state.is_placed(c) and c in specs]
        placed_any = False
        names = self.cluster.node_names
        for app_id in _lrpf(unplaced, specs, utilities):
            memory_mb = specs[app_id].demand.memory_mb
            if specs[app_id].demand.divisible:
                # Fit is re-read per node: each placement changes the
                # instance count the next node's check sees.
                for node in names:
                    if self._fits(state, specs, app_id, node):
                        state.place(app_id, node, memory_mb)
                        placed_any = True
                continue
            hosts = [n for n in names if self._fits(state, specs, app_id, n)]
            if hosts:
                # Most free CPU, then the lowest node position.
                target = max(
                    hosts, key=lambda n: (state.cpu_available(n), -names.index(n))
                )
                state.place(app_id, target, memory_mb)
                placed_any = True
        return placed_any

    def _worthwhile(self, state, specs, candidates, utilities, allocations) -> bool:
        """Enter the search only if some unplaced candidate could gain
        more than the preemption penalty, or some starved placed
        application could move to a node with free CPU."""
        gate = max(self.config.preemption_penalty, self.config.improvement_epsilon)
        for c in candidates:
            if c in specs and not state.is_placed(c):
                if specs[c].rpf.max_utility - utilities.get(c, float("-inf")) > gate:
                    return True
        placed = {a: utilities[a] for a in state.app_ids if a in utilities}
        if not placed:
            return any(not state.is_placed(c) for c in candidates if c in specs)
        best_placed = max(placed.values())
        for app_id, utility in placed.items():
            if utility >= best_placed - gate or app_id not in specs:
                continue
            saturation = specs[app_id].rpf.saturation_cpu
            if allocations.get(app_id, 0.0) + EPSILON >= saturation:
                continue
            own = set(state.nodes_of(app_id))
            if any(
                state.cpu_available(n) > EPSILON
                for n in self.cluster.node_names
                if n not in own
            ):
                return True
        return False

    def _sweep(self, best, specs, candidates, evaluate, epsilon, penalty):
        """Outer loop over nodes, most valuable hosted application first;
        intermediate loop over cumulative removals; inner loop refills."""

        def node_key(node):
            apps = best.state.apps_on(node)
            utilities = [best.utilities.get(a, float("-inf")) for a in apps]
            return max(utilities, default=float("-inf"))

        for node in sorted(self.cluster.node_names, key=node_key, reverse=True):
            # Every candidate for this node starts from the same base; an
            # adopted one becomes the incumbent the rest must beat, and
            # its utilities order the remaining refills.
            base, utilities = best.state, best.utilities
            removable: List[str] = []
            for app_id in sorted(
                base.apps_on(node),
                key=lambda a: utilities.get(a, float("-inf")),
                reverse=True,
            ):
                removable.extend([app_id] * base.instances_on(app_id, node))
            for removals in range(len(removable) + 1):
                trial = base.copy()
                for app_id in removable[:removals]:
                    trial.remove(app_id, node)
                filled = self._fill(
                    trial, specs, candidates, best.utilities, node,
                    set(removable[:removals]),
                )
                if removals == 0 and not filled:
                    continue
                scored = Incumbent(
                    trial, *evaluate(trial, penalty if removals else epsilon)
                )
                if self.objective.better(scored.score, best.score):
                    best = scored
        return best

    def _fill(self, state, specs, candidates, utilities, node, forbidden) -> bool:
        eligible = [
            c
            for c in candidates
            if c in specs
            and c not in forbidden
            and (specs[c].demand.divisible or not state.is_placed(c))
            and state.instances_on(c, node) == 0
        ]
        placed_any = False
        for app_id in _lrpf(eligible, specs, utilities):
            if self._fits(state, specs, app_id, node):
                state.place(app_id, node, specs[app_id].demand.memory_mb)
                placed_any = True
        return placed_any


class ReferenceBatchModel:
    """The §4.2 batch workload model, computed job by job."""

    def __init__(
        self,
        queue: JobQueue,
        levels: Sequence[float] = DEFAULT_UTILITY_LEVELS,
        queue_window: Optional[int] = None,
        prediction_method=PredictionMethod.EXACT,
    ) -> None:
        check_queue_window(queue_window)
        self.queue = queue
        self.levels = tuple(levels)
        self.queue_window = queue_window
        self.prediction_method = PredictionMethod.coerce(prediction_method)

    def app_specs(self, now: float) -> Dict[str, AllocatableApp]:
        specs: Dict[str, AllocatableApp] = {}
        for job in self.queue.incomplete():
            stage = job.current_stage
            demand = AppDemand(
                app_id=job.job_id,
                memory_mb=stage.memory_mb,
                min_cpu_mhz=stage.min_speed_mhz,
                max_cpu_per_instance_mhz=stage.max_speed_mhz,
                max_instances=job.parallelism,
                divisible=job.parallelism > 1,
            )
            specs[job.job_id] = AllocatableApp(
                demand=demand, rpf=JobAllocationRPF(job, now)
            )
        return specs

    def placement_candidates(self, now: float) -> List[str]:
        started, waiting = [], []
        for job in self.queue.incomplete():
            (waiting if job.status is JobStatus.NOT_STARTED else started).append(job)
        if self.queue_window is not None and len(waiting) > self.queue_window:
            waiting.sort(key=lambda job: JobAllocationRPF(job, now).max_utility)
            waiting = waiting[: self.queue_window]
        return [job.job_id for job in started + waiting]

    def evaluate(
        self, allocations: Mapping[str, float], now: float, horizon: float
    ) -> Dict[str, float]:
        utilities: Dict[str, float] = {}
        future_rpfs: List[JobAllocationRPF] = []
        aggregate = 0.0
        for job in self.queue.incomplete():
            speed = min(allocations.get(job.job_id, 0.0), job.max_speed)
            aggregate += speed
            remaining = job.remaining_work
            if speed * horizon >= remaining - EPSILON and speed > EPSILON:
                # Finishes within the cycle: equation (2) directly.
                utilities[job.job_id] = max(
                    NEGATIVE_INFINITY_UTILITY,
                    job_relative_performance(job, now + remaining / speed),
                )
            else:
                future_rpfs.append(
                    JobAllocationRPF(
                        job, now + horizon, remaining_work=remaining - speed * horizon
                    )
                )
        if future_rpfs:
            hypothetical = HypotheticalRPF(future_rpfs, levels=self.levels)
            utilities.update(
                hypothetical.job_utilities(aggregate, method=self.prediction_method)
            )
        return utilities

    def hypothetical(self, now: float) -> HypotheticalRPF:
        rpfs = [JobAllocationRPF(job, now) for job in self.queue.incomplete()]
        return HypotheticalRPF(rpfs, levels=self.levels)


# ----------------------------------------------------------------------
# Runners: one per comparison shape, each building either side
# ----------------------------------------------------------------------
class _Recorder:
    """Stands in for a controller in :func:`_roll_cycles` and keeps what
    each cycle decided: the placement, the load matrix in insertion
    order, the result's allocations and utilities in their order, and
    its churn and change flag."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.config = controller.config
        self.cycles: List[dict] = []

    def place(self, models, current: PlacementState, now: float) -> APCResult:
        result = self.controller.place(models, current, now)
        self.cycles.append({
            "placement": result.state.as_matrix(),
            "load": [
                (app_id, list(nodes.items()))
                for app_id, nodes in result.state.load_matrix().items()
            ],
            "allocations": list(result.allocations.items()),
            "utilities": list(result.utilities.items()),
            "churn": result.score.num_changes,
            "changed": result.changed,
        })
        return result


def run_cycles(
    scenario,
    cycles: int,
    *,
    reference: bool,
    constraints: Optional[ConstraintSet] = None,
    txn_apps: Sequence = (),
    **controller_kwargs,
) -> List[dict]:
    """Per-cycle decisions of ``cycles`` rolling control cycles on
    ``scenario`` (plus, optionally, static transactional apps), from the
    reference solver or the production controller: one dict per cycle
    with the placement matrix, the load matrix in insertion order, and
    the allocations and utilities in their order (see
    :class:`_Recorder`).  Extra keyword arguments (``audit``,
    ``registry``, ...) go to the production controller."""
    cluster = scenario.build_cluster()
    queue = JobQueue()
    if reference:
        batch = ReferenceBatchModel(
            queue,
            queue_window=scenario.queue_window,
            prediction_method=scenario.prediction_method,
        )
        controller = ReferenceController(cluster, scenario.apc, constraints)
    else:
        batch = BatchWorkloadModel(
            queue,
            queue_window=scenario.queue_window,
            prediction_method=scenario.prediction_method,
        )
        controller = ApplicationPlacementController(
            cluster, scenario.apc, constraints, **controller_kwargs
        )
    models = [batch]
    if txn_apps:
        models.insert(0, TransactionalWorkloadModel(list(txn_apps)))
    jobs = scenario.build_jobs()
    recorder = _Recorder(controller)
    _roll_cycles(recorder, cluster, models, queue, jobs, cycles)
    return recorder.cycles


def reference_simulation(scenario, *, decision_clock, trace=None) -> Simulation:
    """:meth:`Simulation.from_scenario` for an APC scenario, with the
    reference controller and batch model in place of the production
    ones."""
    from dataclasses import replace

    cluster = scenario.build_cluster()
    jobs = scenario.build_jobs()
    queue = JobQueue()
    batch = ReferenceBatchModel(
        queue,
        queue_window=scenario.queue_window,
        prediction_method=scenario.prediction_method,
    )
    controller = ReferenceController(cluster, scenario.apc)
    policy = APCPolicy(controller, [batch])
    simulator = MixedWorkloadSimulator(
        cluster,
        policy,
        queue,
        arrivals=jobs,
        batch_model=batch,
        config=replace(scenario.sim, decision_clock=decision_clock),
        trace=trace,
    )
    return Simulation(
        scenario,
        cluster=cluster,
        jobs=jobs,
        queue=queue,
        batch_model=batch,
        controller=controller,
        policy=policy,
        simulator=simulator,
    )
