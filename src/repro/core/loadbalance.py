"""Load distribution for a fixed placement: progressive filling.

Given a placement matrix ``P`` (which instances sit on which nodes), the
controller must choose the load matrix ``L`` — how much CPU each instance
receives — to maximize the sorted vector of application relative
performance lexicographically (§3.2).  This module implements that inner
optimization by *progressive filling* on the relative-performance scale:

1. every placed application first receives its minimum speed
   (``ω^min`` per instance);
2. a common relative-performance level ``u`` is raised (binary search) as
   far as node CPU capacities allow, each application demanding
   ``ω_m(u)`` — the inverse of its RPF — clamped into its
   ``[min, max]`` speed range (an application already at its maximum
   utility simply demands its maximum useful speed, so it never blocks
   the level);
3. any remaining capacity is handed out in ascending-utility order:
   each application is individually raised as far as its own nodes'
   residual capacity permits (lexicographic refinement).

Applications enter the optimizer as :class:`AllocatableApp` — a resource
demand plus an RPF of the CPU allocation.  For batch jobs the RPF is the
per-job hypothetical function of §4.2 (the ``W`` matrix row: the average
speed the job must sustain from now on to reach a target relative
performance); for transactional applications it is the queuing-model RPF
of §3.3.  The coupling between jobs (shared future capacity) affects
*evaluation* of the resulting allocation, not the per-job demand curves,
so this optimizer stays workload-agnostic.

Distributing an application's aggregate target over its instances is a
transportation problem; we use a greedy scheme that is exact for
single-node applications (all batch jobs — they are singletons) and for
any number of divisible applications that do not compete with each other
on shared nodes (the experimental configurations).  With several divisible
applications overlapping on saturated nodes it is a heuristic, consistent
with the paper's overall heuristic approach.

The level search is the same construction as the yield search of
virtual-cluster allocation (Stillwell et al., arXiv:1006.5376): bisect one
common level and test feasibility at each probe.  The controller runs one
search per candidate placement it evaluates: up to 50 probes, 1 or 2 when
the top level fits.  Without spec tables each call prepares its per-app
rows once (:func:`_prepare_rows`), each probe is a plain yes/no over
them, and the per-node assignment is built once, at the final level, by
the same routine (:func:`_fill`).  With them, the array path probes the
top level first when every placed row is a single-node parametric job
row (see :func:`_highest_feasible_level`).  The straightforward loop
that recomputes every target and a full assignment per probe is kept in
``tests/test_loadbalance_oracle.py`` as the oracle both paths here must
match exactly.

A §3.2 search trial differs from the placement it was copied from on
one node.  Given that placement's result and the node, a call reuses
every other node's entries when the base sat at the top level with
nothing left to refine, and recomputes only that node's chain
(:func:`_derive_from_base`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import (
    NEGATIVE_INFINITY_UTILITY,
    RelativePerformanceFunction,
)
from repro.units import EPSILON

#: Binary-search iterations for utility levels.  48 halvings of the
#: [-50, 1] utility interval resolve levels to ~2e-13, far below any
#: physically meaningful difference.
_LEVEL_SEARCH_ITERATIONS = 48

#: Maximum refinement sweeps.  Each sweep either raises at least one
#: application or terminates, so this is a safety bound, not a tuning knob.
_MAX_REFINEMENT_SWEEPS = 64

_INF = float("inf")


@dataclass(frozen=True)
class AllocatableApp:
    """One application as seen by the load-distribution optimizer."""

    demand: AppDemand
    rpf: RelativePerformanceFunction

    @property
    def app_id(self) -> str:
        return self.demand.app_id


@dataclass(frozen=True)
class SpecArrays:
    """Column-oriented view of :class:`AllocatableApp` specs.

    One row per application, shared by the vectorized load distributor
    and the vectorized APC admission/frontier scoring.  Rows whose RPF is
    a parametric batch :class:`~repro.batch.rpf.JobAllocationRPF` carry
    its frozen fields (``is_job`` True); generic rows (transactional
    queuing-model RPFs) leave those columns zeroed and are handled by the
    scalar fallbacks.  Arrays are adopted without copying and must be
    treated as immutable.
    """

    ids: List[str]
    index: Mapping[str, int]
    memory: np.ndarray  # demand.memory_mb
    min_cpu: np.ndarray  # demand.min_cpu_mhz (per instance)
    max_per_instance: np.ndarray  # demand.max_cpu_per_instance_mhz (may be inf)
    max_instances: np.ndarray  # float; inf encodes "unbounded"
    divisible: np.ndarray  # bool
    is_job: np.ndarray  # bool: parametric JobAllocationRPF rows
    remaining: np.ndarray
    goal: np.ndarray
    relative_goal: np.ndarray
    now: np.ndarray
    max_speed: np.ndarray  # rpf aggregate speed ceiling
    u_max: np.ndarray  # rpf.max_utility

    @classmethod
    def from_specs(cls, specs: Mapping[str, AllocatableApp]) -> "SpecArrays":
        """Scalar fallback builder: extract columns from spec objects.

        Used for the (few) applications whose model does not provide
        arrays directly — e.g. transactional workloads.
        """
        from repro.batch.rpf import JobAllocationRPF

        ids = list(specs)
        n = len(ids)
        memory = np.zeros(n)
        min_cpu = np.zeros(n)
        max_pi = np.zeros(n)
        max_inst = np.zeros(n)
        divisible = np.zeros(n, dtype=bool)
        is_job = np.zeros(n, dtype=bool)
        remaining = np.zeros(n)
        goal = np.zeros(n)
        relative_goal = np.ones(n)
        now = np.zeros(n)
        max_speed = np.zeros(n)
        u_max = np.zeros(n)
        for i, app_id in enumerate(ids):
            spec = specs[app_id]
            demand = spec.demand
            memory[i] = demand.memory_mb
            min_cpu[i] = demand.min_cpu_mhz
            max_pi[i] = demand.max_cpu_per_instance_mhz
            max_inst[i] = (
                np.inf if demand.max_instances is None else demand.max_instances
            )
            divisible[i] = demand.divisible
            if isinstance(spec.rpf, JobAllocationRPF):
                rpf = spec.rpf
                is_job[i] = True
                remaining[i] = rpf.remaining_work
                goal[i] = rpf.goal
                relative_goal[i] = rpf.relative_goal
                now[i] = rpf.now
                max_speed[i] = rpf.max_speed
                u_max[i] = rpf.max_utility
        return cls(
            ids=ids, index={a: i for i, a in enumerate(ids)},
            memory=memory, min_cpu=min_cpu, max_per_instance=max_pi,
            max_instances=max_inst, divisible=divisible, is_job=is_job,
            remaining=remaining, goal=goal, relative_goal=relative_goal,
            now=now, max_speed=max_speed, u_max=u_max,
        )

    @classmethod
    def merge(cls, parts: Sequence["SpecArrays"]) -> "SpecArrays":
        """Concatenate per-model parts into one table."""
        if len(parts) == 1:
            return parts[0]
        ids: List[str] = []
        for part in parts:
            ids.extend(part.ids)
        cat = np.concatenate
        return cls(
            ids=ids, index={a: i for i, a in enumerate(ids)},
            memory=cat([p.memory for p in parts]),
            min_cpu=cat([p.min_cpu for p in parts]),
            max_per_instance=cat([p.max_per_instance for p in parts]),
            max_instances=cat([p.max_instances for p in parts]),
            divisible=cat([p.divisible for p in parts]),
            is_job=cat([p.is_job for p in parts]),
            remaining=cat([p.remaining for p in parts]),
            goal=cat([p.goal for p in parts]),
            relative_goal=cat([p.relative_goal for p in parts]),
            now=cat([p.now for p in parts]),
            max_speed=cat([p.max_speed for p in parts]),
            u_max=cat([p.u_max for p in parts]),
        )


@dataclass
class LoadDistributionResult:
    """Outcome of :func:`distribute_load`.

    Attributes
    ----------
    allocations:
        Total CPU (MHz) granted to each placed application.
    utilities:
        Relative performance at the granted allocation, per the
        application's own RPF.  (Batch job utilities are re-derived by the
        batch model during placement evaluation; these values are the
        per-app view used for ordering.)
    common_level:
        The highest common relative-performance level reached in phase 2.
    feasible:
        False when even the minimum speeds could not be satisfied;
        allocations are then best-effort.
    assignment:
        The load matrix, ``{app: {node: cpu}}``, in the order
        :meth:`write_load` writes it.  Read-only: a result derived from
        this one (``distribute_load(..., base=this)``) shares its
        per-app dicts.
    """

    allocations: Dict[str, float] = field(default_factory=dict)
    utilities: Dict[str, float] = field(default_factory=dict)
    common_level: float = NEGATIVE_INFINITY_UTILITY
    feasible: bool = True
    assignment: Dict[str, Dict[str, float]] = field(default_factory=dict)

    #: What a trial copied from this result's state can reuse (a
    #: :class:`_TopLevelBase`), or ``None``.  A class attribute, not a
    #: field, so ``repr``, equality and ``dataclasses.fields`` skip it.
    _top_level = None

    def write_load(self, state: PlacementState) -> None:
        """Replace ``state``'s load matrix with :attr:`assignment`: clear
        it, then set every entry above ``EPSILON`` in order."""
        state.clear_load()
        for app_id, nodes in self.assignment.items():
            for node, cpu in nodes.items():
                if cpu > EPSILON:
                    state.set_cpu(app_id, node, cpu)


def _aggregate_bounds(
    app: AllocatableApp, state: PlacementState
) -> Tuple[float, float]:
    """(min_total, max_total) CPU for the app given its instance count."""
    count = state.instance_count(app.app_id)
    min_total = app.demand.min_cpu_mhz * count
    max_per_instance = app.demand.max_cpu_per_instance_mhz
    if max_per_instance == float("inf"):
        max_total = float("inf")
    else:
        max_total = max_per_instance * count
    return min_total, max_total


class _Row(NamedTuple):
    """One placed application, prepared once per :func:`distribute_load`
    call."""

    app_id: str
    #: The bound inverse RPF.
    required_cpu: Callable[[float], float]
    #: Demand at an unreachable level: the saturation allocation capped
    #: by the speed ceiling.
    saturation: float
    #: Clamp range of the aggregate target; an unbounded per-instance
    #: ceiling makes ``high`` the summed capacity of the app's nodes.
    low: float
    high: float
    unbounded: bool
    divisible: bool
    #: ``(node, instance cap)`` pairs in placement order.
    slots: List[Tuple[str, float]]


def _prepare_row(
    app_id: str,
    app: AllocatableApp,
    state: PlacementState,
    capacity: Mapping[str, float],
) -> _Row:
    """Everything the level search reads about one placed app."""
    demand = app.demand
    min_total, max_total = _aggregate_bounds(app, state)
    saturation = min(app.rpf.saturation_cpu, max_total)
    items = state.instance_items(app_id)
    unbounded = max_total == _INF
    if unbounded:
        # No speed ceiling: cap by what its nodes could ever provide.
        max_total = sum(capacity[node] for node, count in items if count > 0)
    max_pi = demand.max_cpu_per_instance_mhz
    return _Row(
        app_id,
        app.rpf.required_cpu,
        saturation,
        min(min_total, max_total),
        max_total,
        unbounded,
        demand.divisible,
        [(node, max_pi * count) for node, count in items if count > 0],
    )


def _prepare_rows(
    placed: Mapping[str, AllocatableApp],
    state: PlacementState,
    capacity: Mapping[str, float],
) -> List[_Row]:
    """Rows in fill order: singletons in placed order, then divisible
    applications in placed order."""
    rows = [
        _prepare_row(app_id, app, state, capacity)
        for app_id, app in placed.items()
    ]
    return [r for r in rows if not r.divisible] + [r for r in rows if r.divisible]


def _target(row: _Row, level: float) -> float:
    """CPU the app demands at relative-performance level ``level``.

    The inverse RPF, clamped into the app's feasible speed range.  An
    unreachable level (``required_cpu == inf``) clamps to the saturation
    allocation: the app saturates rather than blocking the level.
    """
    _, required_cpu, saturation, low, high, unbounded, _, _ = row
    required = required_cpu(level)
    if required == _INF:
        required = saturation
    if unbounded and high < required:
        required = high
    # clamp(required, low, high), inline: this runs once per app per
    # probe.  low <= high by construction.
    if required < low:
        return low
    if required > high:
        return high
    return required


def _fill(
    rows: Sequence[_Row],
    level: float,
    capacity: Mapping[str, float],
    per_node: Optional[Dict[str, Dict[str, float]]] = None,
) -> bool:
    """Whether every app's target at ``level`` fits its nodes.

    The one copy of the feasibility rules, shared by the level probes and
    the final assignment: singleton (non-divisible) applications take
    their nodes in placement order — they have no freedom — then each
    divisible application draws greedily from its nodes, most residual
    capacity first.  Takes of at most ``EPSILON`` are dropped, and an app
    whose target is at most ``EPSILON`` is skipped.  When ``per_node`` is
    given, every take is recorded into it (``{app: {node: cpu}}``).
    """
    residual = dict(capacity)
    for row in rows:
        target = _target(row, level)
        if target <= EPSILON:
            continue
        app_id, _, _, _, _, _, divisible, slots = row
        if divisible and len(slots) > 1:
            # Most-residual-first keeps the greedy exact for a lone
            # divisible application and balances the router's view of
            # instance speeds.
            slots = sorted(slots, key=lambda slot: -residual[slot[0]])
        remaining = target
        for node, cap in slots:
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                if per_node is not None:
                    taken = per_node[app_id]
                    taken[node] = taken.get(node, 0.0) + take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
        if remaining > EPSILON:
            return False
    return True


class _VectorContext:
    """Per-``distribute_load`` invocation arrays for the vectorized path.

    Everything here is a function of (state, placed apps, spec tables)
    and stays fixed for the duration of one distribution — the level
    bisection re-uses it across all ``feasible()`` probes.
    """

    __slots__ = (
        "placed_ids", "caps", "min_total", "max_total", "saturation",
        "u_max", "vec_target", "scalar_rows", "remaining", "goal",
        "relative_goal", "now", "max_speed", "levels", "link_pos",
        "link_col", "divisible_rows", "fill_rows", "capacity",
        "node_names", "is_job_row", "generic_pos", "top_first",
    )

    @classmethod
    def build(
        cls,
        state: PlacementState,
        placed: Mapping[str, AllocatableApp],
        placed_ids: List[str],
        tables: SpecArrays,
        capacity: Mapping[str, float],
    ) -> Optional["_VectorContext"]:
        index = tables.index
        try:
            row_arr = np.array([index[a] for a in placed_ids], dtype=np.intp)
        except KeyError:
            # The tables do not cover every placed app; run scalar.
            return None
        ctx = cls.__new__(cls)
        ctx.placed_ids = placed_ids
        max_pi = tables.max_per_instance[row_arr]
        node_index = state.node_index
        ctx.node_names = list(node_index)
        ctx.caps = np.array([capacity[name] for name in node_index])
        ctx.capacity = capacity

        # One pass over the placed apps' instances.  A single-node
        # singleton is a link in its node's chain; divisible apps draw
        # greedily after every chain; a multi-node singleton sends the
        # whole call to the scalar _fill.
        instance_items = state.instance_items
        divisible_rows: List[Tuple[int, str, List[Tuple[str, int, float]]]] = []
        scalar_verdict = False
        link_pos, link_col, counts = [], [], []
        max_pi_list = max_pi.tolist()
        for pos, (app_id, divisible) in enumerate(
            zip(placed_ids, tables.divisible[row_arr].tolist())
        ):
            nodes = [item for item in instance_items(app_id) if item[1] > 0]
            counts.append(sum(count for _, count in nodes))
            if divisible:
                divisible_rows.append((
                    pos, app_id,
                    [
                        (node, node_index[node], max_pi_list[pos] * count)
                        for node, count in nodes
                    ],
                ))
            elif len(nodes) == 1:
                link_pos.append(pos)
                link_col.append(node_index[nodes[0][0]])
            else:
                scalar_verdict = True
        ctx.divisible_rows = divisible_rows
        ctx.fill_rows = (
            _prepare_rows(placed, state, capacity) if scalar_verdict else None
        )
        # A link's depth is its place in its node's chain: _fill walks
        # singletons in placed order.
        depth = [0] * len(node_index)
        link_rank = []
        for col in link_col:
            link_rank.append(depth[col])
            depth[col] += 1

        count_arr = np.array(counts, dtype=float)
        ctx.min_total = tables.min_cpu[row_arr] * count_arr
        # _aggregate_bounds: inf per-instance ceiling -> inf total.
        ctx.max_total = np.where(np.isinf(max_pi), np.inf, max_pi * count_arr)
        is_job = tables.is_job[row_arr]
        ctx.is_job_row = is_job
        ctx.generic_pos = np.flatnonzero(~is_job).tolist()
        ctx.remaining = tables.remaining[row_arr]
        ctx.goal = tables.goal[row_arr]
        ctx.relative_goal = tables.relative_goal[row_arr]
        ctx.now = tables.now[row_arr]
        ctx.max_speed = tables.max_speed[row_arr]
        ctx.u_max = tables.u_max[row_arr]
        ctx.saturation = np.where(
            ctx.remaining <= EPSILON, 0.0, ctx.max_speed
        )
        # Rows whose targets the array kernel can produce: parametric
        # batch RPFs with a finite speed ceiling.  Everything else gets
        # the scalar _target over its prepared row.
        ctx.vec_target = is_job & np.isfinite(max_pi)
        ctx.scalar_rows = [
            (pos, _prepare_row(placed_ids[pos], placed[placed_ids[pos]],
                               state, capacity))
            for pos in np.flatnonzero(~ctx.vec_target).tolist()
        ]

        # Level j of the chains: the j-th link on each node.  _fill
        # walks singletons in placed order and nodes never interact
        # across apps, so draining level by level reproduces each
        # node's sequential residual chain bit for bit.
        ctx.link_pos = link_pos
        ctx.link_col = link_col
        pos_arr = np.array(link_pos, dtype=np.intp)
        col_arr = np.array(link_col, dtype=np.intp)
        rank_arr = np.array(link_rank, dtype=np.intp)
        cap_arr = max_pi[pos_arr] * count_arr[pos_arr]
        ctx.levels = [
            (pos_arr[at], col_arr[at], cap_arr[at])
            for at in (rank_arr == j for j in range(max(depth, default=0)))
        ]
        # Top-first is exact only when every row is a parametric
        # single-node link; see _highest_feasible_level.
        ctx.top_first = (
            len(link_pos) == len(placed_ids) and not ctx.scalar_rows
        )
        return ctx

    # ------------------------------------------------------------------
    def targets_at(self, level: float) -> np.ndarray:
        """Per-app aggregate CPU demand at ``level`` (placed order)."""
        remaining, now = self.remaining, self.now
        # JobAllocationRPF.required_cpu, elementwise, in its exact
        # branch order (done -> unreachable -> past-horizon -> formula).
        target_completion = self.goal - level * self.relative_goal
        horizon = target_completion - now
        positive = horizon > EPSILON
        div = np.full(len(remaining), np.inf)
        np.divide(remaining, horizon, out=div, where=positive)
        req = np.where(
            positive, np.minimum(self.max_speed, div), self.max_speed
        )
        req = np.where(level > self.u_max + EPSILON, np.inf, req)
        req = np.where(remaining <= EPSILON, 0.0, req)
        # _target continuation: unreachable -> saturation cap, then
        # clamp into [min(min_total, max_total), max_total].
        req = np.where(
            np.isinf(req), np.minimum(self.saturation, self.max_total), req
        )
        low = np.minimum(self.min_total, self.max_total)
        t = np.where(req < low, low, req)
        t = np.where(t > self.max_total, self.max_total, t)
        for pos, row in self.scalar_rows:
            t[pos] = _target(row, level)
        return t

    def verdict(self, level: float):
        """Vectorized :func:`_fill` at ``level``: ``None`` if infeasible,
        else the recorded takes for :meth:`materialize`."""
        if self.fill_rows is not None:
            feasible = _fill(self.fill_rows, level, self.capacity)
            return ("scalar", level) if feasible else None
        targets = self.targets_at(level)
        residual = self.caps.copy()
        takes = np.zeros(len(targets))
        for pos_arr, col_arr, cap_arr in self.levels:
            t = targets[pos_arr]
            take = np.minimum(np.minimum(t, residual[col_arr]), cap_arr)
            # The scalar loop only records (and subtracts) a take above
            # EPSILON, and skips apps whose target is at most EPSILON.
            take = np.where(take > EPSILON, take, 0.0)
            residual[col_arr] -= take
            if np.any(t - take > EPSILON):
                return None
            takes[pos_arr] = take
        div_entries: List[Tuple[str, str, float]] = []
        for pos, app_id, nodes in self.divisible_rows:
            target = targets[pos]
            if target <= EPSILON:
                continue
            remaining = target
            for node, col, cap in sorted(
                nodes, key=lambda entry: -residual[entry[1]]
            ):
                take = min(remaining, residual[col], cap)
                if take > EPSILON:
                    div_entries.append((app_id, node, float(take)))
                    residual[col] -= take
                    remaining -= take
                if remaining <= EPSILON:
                    break
            if remaining > EPSILON:
                return None
        return ("vector", takes, div_entries)

    def materialize(self, verdict) -> Dict[str, Dict[str, float]]:
        """Expand a successful verdict into the scalar path's per-app
        ``{node: cpu}`` dict, matching its insertion order exactly."""
        placed_ids = self.placed_ids
        per_node: Dict[str, Dict[str, float]] = {
            app_id: {} for app_id in placed_ids
        }
        if verdict[0] == "scalar":
            _fill(self.fill_rows, verdict[1], self.capacity, per_node)
            return per_node
        _, takes, div_entries = verdict
        values = takes.tolist()
        names = self.node_names
        for pos, col in zip(self.link_pos, self.link_col):
            if values[pos] > EPSILON:
                per_node[placed_ids[pos]][names[col]] = values[pos]
        for app_id, node, take in div_entries:
            per_node[app_id][node] = per_node[app_id].get(node, 0.0) + take
        return per_node

    def utilities(
        self,
        cpu: np.ndarray,
        allocations: Mapping[str, float],
        placed: Mapping[str, AllocatableApp],
    ) -> List[float]:
        """Per-app ``rpf.utility(allocation)`` in placed order —
        JobAllocationRPF.utility elementwise over ``cpu`` (the
        allocations as an array) for parametric rows, the object call
        for the rest."""
        speed = np.minimum(cpu, self.max_speed)
        completion = np.full(len(cpu), np.inf)
        np.divide(self.remaining, speed, out=completion, where=speed > 0)
        completion += self.now
        u = (self.goal - completion) / self.relative_goal
        u = np.maximum(
            NEGATIVE_INFINITY_UTILITY, np.minimum(u, self.u_max)
        )
        u = np.where(cpu <= EPSILON, NEGATIVE_INFINITY_UTILITY, u)
        u = np.where(self.remaining <= EPSILON, 1.0, u)
        values = u.tolist()
        for pos in self.generic_pos:
            app_id = self.placed_ids[pos]
            values[pos] = placed[app_id].rpf.utility(allocations[app_id])
        return values


def distribute_load(
    state: PlacementState,
    apps: Mapping[str, AllocatableApp],
    write_load_matrix: bool = True,
    *,
    tables: Optional[SpecArrays] = None,
    base: Optional[LoadDistributionResult] = None,
    node: Optional[str] = None,
) -> LoadDistributionResult:
    """Compute the maxmin-fair load matrix for the placement in ``state``.

    Parameters
    ----------
    state:
        The placement to allocate within.  Only applications with placed
        instances receive CPU.
    apps:
        All applications known to the controller, keyed by id.
    write_load_matrix:
        When True (default) the resulting per-instance allocations are
        written back into ``state`` (else see
        :meth:`LoadDistributionResult.write_load`).
    tables:
        Optional :class:`SpecArrays` covering (at least) the placed
        applications.  When provided, the level search and refinement
        run on array kernels; without them, on rows prepared once per
        call.  Both are bitwise identical to the per-probe reference
        loop kept in ``tests/test_loadbalance_oracle.py``.
    base, node:
        Give both or neither.  ``base`` is this function's result for
        the placement ``state`` was copied from, with the same ``apps``
        and ``tables`` on the same cluster; ``node`` is the one node
        where ``state`` differs from that placement.  When the base sat
        at the top level with nothing to refine, and ``node`` still
        holds only single-instance job rows that fit there, the result
        is built from the base's entries and ``node``'s chain alone
        (:func:`_derive_from_base`); otherwise the call runs in full.
        The result is the same either way, float for float and in
        insertion order.
    """
    if (base is None) != (node is None):
        raise TypeError("distribute_load: give both base and node, or neither")
    if base is not None:
        derived = _derive_from_base(state, apps, tables, base, node)
        if derived is not None:
            if write_load_matrix:
                derived.write_load(state)
            return derived

    placed_ids = [a for a in apps if state.is_placed(a)]
    result = LoadDistributionResult()
    if not placed_ids:
        if write_load_matrix:
            result.write_load(state)
        return result

    placed = {a: apps[a] for a in placed_ids}
    capacity = {node.name: node.cpu_capacity for node in state.cluster}

    if tables is not None:
        ctx = _VectorContext.build(state, placed, placed_ids, tables, capacity)
        if ctx is not None:
            return _distribute_load_vec(
                state, apps, tables, placed, placed_ids, ctx, capacity,
                result, write_load_matrix,
            )

    # ------------------------------------------------------------------
    # Phase 1+2: binary search the highest feasible common level, then
    # build the assignment once, at that level.
    # ------------------------------------------------------------------
    rows = _prepare_rows(placed, state, capacity)
    level = _highest_feasible_level(lambda u: _fill(rows, u, capacity))
    if level is None:
        result.feasible = False
        best_assignment = _best_effort(placed, state, capacity)
    else:
        result.common_level = level
        best_assignment = {a: {} for a in placed_ids}
        _fill(rows, level, capacity, best_assignment)

    allocations = {
        a: sum(best_assignment.get(a, {}).values()) for a in placed_ids
    }

    # ------------------------------------------------------------------
    # Phase 3: lexicographic refinement with leftover capacity.
    # ------------------------------------------------------------------
    residual = _residual(capacity, best_assignment)
    for _ in range(_MAX_REFINEMENT_SWEEPS):
        raised_any = False
        order = sorted(
            placed_ids, key=lambda a: placed[a].rpf.utility(allocations[a])
        )
        for app_id in order:
            app = placed[app_id]
            gain = _raise_app(
                app, state, best_assignment.setdefault(app_id, {}),
                allocations[app_id], residual,
            )
            if gain > EPSILON:
                allocations[app_id] += gain
                raised_any = True
        if not raised_any:
            break

    result.allocations = allocations
    result.utilities = {
        a: placed[a].rpf.utility(allocations[a]) for a in placed_ids
    }
    result.assignment = best_assignment
    if write_load_matrix:
        result.write_load(state)
    return result


def _highest_feasible_level(
    feasible: Callable[[float], bool], top_first: bool = False
) -> Optional[float]:
    """Bisect the highest common level in ``[NEGATIVE_INFINITY_UTILITY,
    1]`` that ``feasible`` accepts; ``None`` when even the floor (about
    the minimum speeds) does not fit.

    ``top_first`` probes the top before the floor and skips the floor
    when the top fits.  That is exact only when a fit at the top implies
    a fit at the floor, which holds when every row is a parametric job
    on one node.  Their targets are non-decreasing in the level, and
    each node drains its chain of such rows in a fixed order.  Suppose
    the chain fits at the top.  At each link the floor starts with at
    least the top's residual and a target no larger, so it falls short
    by no more than the top does, and it is left with at least the
    top's residual again.  Where the top takes its target or its
    instance cap, the floor takes no more, and IEEE subtraction is
    monotone in both operands; where the residual binds at the top, the
    top is left with exactly 0.
    """
    lo, hi = NEGATIVE_INFINITY_UTILITY, 1.0
    if top_first:
        if feasible(hi):
            return hi
        if not feasible(lo):
            return None
    else:
        if not feasible(lo):
            return None
        if feasible(hi):
            return hi
    for _ in range(_LEVEL_SEARCH_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _residual(
    capacity: Mapping[str, float],
    assignment: Mapping[str, Mapping[str, float]],
) -> Dict[str, float]:
    """Node capacity left after ``assignment``, subtracted app by app."""
    residual = dict(capacity)
    for nodes in assignment.values():
        for node, cpu in nodes.items():
            residual[node] -= cpu
    return residual


def _distribute_load_vec(
    state: PlacementState,
    apps: Mapping[str, AllocatableApp],
    tables: SpecArrays,
    placed: Mapping[str, AllocatableApp],
    placed_ids: List[str],
    ctx: _VectorContext,
    capacity: Mapping[str, float],
    result: LoadDistributionResult,
    write_load_matrix: bool,
) -> LoadDistributionResult:
    """Array-kernel twin of :func:`distribute_load`'s phases 1–3.

    Mirrors the scalar control flow decision for decision and float for
    float; only the per-app inner loops are replaced by vector ops.
    """
    last_verdict = None

    def feasible(level: float) -> bool:
        nonlocal last_verdict
        verdict = ctx.verdict(level)
        if verdict is None:
            return False
        last_verdict = verdict
        return True

    level = _highest_feasible_level(feasible, ctx.top_first)
    if level is None:
        result.feasible = False
        best_assignment = _best_effort(placed, state, capacity)
    else:
        result.common_level = level
        # The last accepted probe is the one at the final level.
        best_assignment = ctx.materialize(last_verdict)

    allocations = {
        a: sum(best_assignment.get(a, {}).values()) for a in placed_ids
    }

    residual = None
    vec_skip = ctx.is_job_row
    for sweep in range(_MAX_REFINEMENT_SWEEPS):
        cur = np.array([allocations[a] for a in placed_ids], dtype=float)
        values = ctx.utilities(cur, allocations, placed)
        # Start-of-sweep headroom: each app is visited once per sweep
        # and only its own allocation moves, so the visit-time headroom
        # the scalar loop computes equals this one.  Zero-headroom
        # parametric rows are exact no-ops in _raise_app; skip them, and
        # skip the sweep when that is every row.
        useful = np.minimum(ctx.max_total, np.maximum(ctx.saturation, cur))
        stuck = vec_skip & (useful - cur <= EPSILON)
        if stuck.all():
            if sweep == 0 and level == 1.0 and ctx.top_first:
                # Trials copied from this state can derive from it.
                result._top_level = _TopLevelBase(apps, tables, placed_ids)
            break
        if residual is None:
            residual = _residual(capacity, best_assignment)
        keys = dict(zip(placed_ids, values))
        order = sorted(placed_ids, key=keys.__getitem__)
        skip = {placed_ids[pos] for pos in np.flatnonzero(stuck).tolist()}
        raised_any = False
        for app_id in order:
            if app_id in skip:
                continue
            app = placed[app_id]
            gain = _raise_app(
                app, state, best_assignment.setdefault(app_id, {}),
                allocations[app_id], residual,
            )
            if gain > EPSILON:
                allocations[app_id] += gain
                raised_any = True
        if not raised_any:
            break
    else:
        # Every sweep raised something: the last one's utilities are
        # stale.
        cur = np.array([allocations[a] for a in placed_ids], dtype=float)
        values = ctx.utilities(cur, allocations, placed)

    result.allocations = allocations
    result.utilities = dict(zip(placed_ids, values))
    result.assignment = best_assignment
    if write_load_matrix:
        result.write_load(state)
    return result


class _TopLevelBase:
    """What :func:`_derive_from_base` reads from a result that sat at the
    top level with nothing to refine.

    The position map of ``apps`` is built on the first trial that names
    the result as its base and shared by every result derived from it
    (an adopted trial becomes the base of later nodes), so runs that
    never search build nothing extra.
    """

    __slots__ = ("apps", "tables", "placed_ids", "_position")

    def __init__(
        self,
        apps: Mapping[str, AllocatableApp],
        tables: SpecArrays,
        placed_ids: List[str],
        position: Optional[Dict[str, int]] = None,
    ) -> None:
        self.apps = apps
        self.tables = tables
        self.placed_ids = placed_ids
        self._position = position

    def position(self) -> Dict[str, int]:
        """Each app's place in ``apps``."""
        if self._position is None:
            self._position = {a: i for i, a in enumerate(self.apps)}
        return self._position


def _derive_from_base(
    state: PlacementState,
    apps: Mapping[str, AllocatableApp],
    tables: Optional[SpecArrays],
    base: LoadDistributionResult,
    node: str,
) -> Optional[LoadDistributionResult]:
    """The array path's result for ``state``, built from ``base`` (the
    result for the placement ``state`` was copied from, which differs
    from it on ``node`` only), or ``None`` when a precondition fails.

    It applies when the base came from the array path on the same
    ``apps`` and ``tables``, as a top-first context at level 1.0 whose
    first refinement sweep found every row stuck; when every app on
    ``node`` is a single-instance job link (``is_job``, not divisible,
    a finite per-instance ceiling); when something is still placed; and
    when ``node``'s chain fits at level 1.0 with no row left any
    headroom.  Every base app is a link on one node, so the trial
    places the base's apps that are still placed and those it added on
    ``node``.

    Why it is exact.  When every row is a single-node link, the
    top-level verdict drains each node's chain without reading any
    other node.  The other nodes hold the same apps in the same
    relative order, and a target depends only on the row and the level,
    so their takes are the base's.  So are their allocations (a
    one-entry ``sum`` equals the take, and an app with no take gets the
    int ``0``), their utilities (elementwise) and their stuck flags.
    The level is the top exactly when every node fits there, and with
    every row stuck the first refinement sweep ends the search.  The
    node's chain runs through :func:`_prepare_row` and :func:`_fill`,
    which the oracle pins bit for bit to the array kernels.
    """
    top = base._top_level
    if top is None or top.apps is not apps or top.tables is not tables:
        return None
    position = top.position()
    chain: List[str] = []
    for app_id in state.apps_on(node):
        i = tables.index.get(app_id)
        if (
            i is None
            or app_id not in position
            or state.instance_count(app_id) != 1
            or not tables.is_job[i]
            or tables.divisible[i]
            or not tables.max_per_instance[i] < _INF
        ):
            return None
        chain.append(app_id)
    # _fill walks a node's links in placed order.
    chain.sort(key=position.__getitem__)
    placed_ids = [a for a in top.placed_ids if state.is_placed(a)]
    added = [a for a in chain if a not in base.allocations]
    if added:
        placed_ids = sorted(placed_ids + added, key=position.__getitem__)
    if not placed_ids:
        # The full path's empty result has the floor as its level.
        return None

    capacity = {node: state.cluster.node(node).cpu_capacity}
    rows = [_prepare_row(a, apps[a], state, capacity) for a in chain]
    takes: Dict[str, Dict[str, float]] = {a: {} for a in chain}
    if not _fill(rows, 1.0, capacity, takes):
        return None
    node_allocations: Dict[str, float] = {}
    node_utilities: Dict[str, float] = {}
    for row in rows:
        app_id = row.app_id
        app = apps[app_id]
        allocation = sum(takes[app_id].values())
        if _headroom(app, row.high, allocation) > EPSILON:
            return None
        node_allocations[app_id] = allocation
        node_utilities[app_id] = app.rpf.utility(allocation)

    def merged(mine: Mapping, theirs: Mapping) -> Dict:
        return {a: mine[a] if a in mine else theirs[a] for a in placed_ids}

    result = LoadDistributionResult(
        allocations=merged(node_allocations, base.allocations),
        utilities=merged(node_utilities, base.utilities),
        common_level=1.0,
        feasible=True,
        assignment=merged(takes, base.assignment),
    )
    result._top_level = _TopLevelBase(apps, tables, placed_ids, position)
    return result


def _headroom(
    app: AllocatableApp, max_total: float, current_total: float
) -> float:
    """CPU ``app`` could still usefully absorb above ``current_total``:
    up to its saturation point and its speed ceiling."""
    useful_ceiling = min(max_total, max(app.rpf.saturation_cpu, current_total))
    return useful_ceiling - current_total


def _raise_app(
    app: AllocatableApp,
    state: PlacementState,
    assignment: Dict[str, float],
    current_total: float,
    residual: Dict[str, float],
) -> float:
    """Raise one application's allocation as far as residual CPU allows.

    Returns the total CPU gained.  Mutates ``assignment`` and ``residual``.
    """
    _, max_total = _aggregate_bounds(app, state)
    headroom = _headroom(app, max_total, current_total)
    if headroom <= EPSILON:
        return 0.0

    gained = 0.0
    instance_nodes = state.instances(app.app_id)
    for node in sorted(instance_nodes, key=lambda n: -residual[n]):
        count = instance_nodes[node]
        cap = app.demand.max_cpu_per_instance_mhz * count
        here = assignment.get(node, 0.0)
        take = min(headroom - gained, residual[node], cap - here)
        if take > EPSILON:
            assignment[node] = here + take
            residual[node] -= take
            gained += take
        if headroom - gained <= EPSILON:
            break
    return gained


def _best_effort(
    placed: Mapping[str, AllocatableApp],
    state: PlacementState,
    capacity: Mapping[str, float],
) -> Dict[str, Dict[str, float]]:
    """Fallback when minimum speeds do not fit: give minima where
    possible, clipping on saturated nodes, singletons first."""
    residual = dict(capacity)
    per_node: Dict[str, Dict[str, float]] = {a: {} for a in placed}
    ordered = sorted(placed, key=lambda a: placed[a].demand.divisible)
    for app_id in ordered:
        app = placed[app_id]
        min_total, _ = _aggregate_bounds(app, state)
        remaining = min_total
        instance_nodes = state.instances(app_id)
        for node in sorted(instance_nodes, key=lambda n: -residual[n]):
            count = instance_nodes[node]
            cap = app.demand.max_cpu_per_instance_mhz * count
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                per_node[app_id][node] = take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
    return per_node
