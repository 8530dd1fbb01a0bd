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
the top level fits.  One driver (:func:`distribute_load`) runs the
search, the assignment and the refinement over one of two kernels: rows
prepared once per call, each probe a plain yes/no over them
(:class:`_RowsKernel`, :func:`_fill`), or arrays over the cycle's spec
tables (:class:`_VectorContext`).  A *job link* is a placed app whose
RPF is a parametric batch ``JobAllocationRPF``, not divisible, with a
finite speed ceiling, on exactly one node.  The rows kernel prepares it
as a :class:`_Link` carrying the RPF's fields, and a probe works out its
target in closed form, float for float as the RPF and :func:`_target`
do; every other row answers through its RPF.  Either kernel probes the
top level first when every placed row is a link (see
:func:`_highest_feasible_level`), and refinement skips rows with no
headroom.  A search that must bisect runs all its probes: feasibility is
not known to be monotone in the level in float arithmetic once a
divisible app sorts its nodes by residual each probe, so no bracket
shortens it.  The straightforward loop that recomputes every target and
a full assignment per probe is kept in
``tests/test_loadbalance_oracle.py`` as the oracle both kernels must
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
    Union,
)

import numpy as np

from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import (
    NEGATIVE_INFINITY_UTILITY,
    JobAllocationRPF,
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

    One row per application, read by the array load-distribution kernel
    (:class:`_VectorContext`).  Rows whose RPF is a parametric batch
    :class:`~repro.batch.rpf.JobAllocationRPF` carry its frozen fields
    (``is_job`` True); generic rows (transactional queuing-model RPFs)
    leave those columns zeroed and answer through their RPF objects.
    Arrays are adopted without copying and must be treated as immutable.
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


class _Link(NamedTuple):
    """A job link, prepared once per :func:`distribute_load` call: a
    placed app whose RPF is a :class:`~repro.batch.rpf.JobAllocationRPF`,
    not divisible, with a finite speed ceiling, on exactly one node.

    It carries its RPF's fields, read once, so :func:`_fill` works out
    its target in closed form instead of calling :func:`_target` and the
    RPF.  ``saturation``, ``low`` and ``high`` are a :class:`_Row`'s.
    """

    app_id: str
    saturation: float
    low: float
    high: float
    #: ``rpf.max_utility + EPSILON``: a level above it is unreachable.
    u_limit: float
    remaining_work: float
    goal: float
    relative_goal: float
    now: float
    max_speed: float
    node: str
    #: The instance cap on ``node``.
    cap: float

    # Read as a _Row's are: a link is a singleton with a finite ceiling.
    divisible = False
    unbounded = False


def _prepare_row(
    app_id: str,
    app: AllocatableApp,
    state: PlacementState,
    capacity: Mapping[str, float],
) -> Union[_Row, _Link]:
    """Everything the level search reads about one placed app: a
    :class:`_Link` for a job link, else a :class:`_Row`."""
    demand = app.demand
    rpf = app.rpf
    min_total, max_total = _aggregate_bounds(app, state)
    saturation = min(rpf.saturation_cpu, max_total)
    max_pi = demand.max_cpu_per_instance_mhz
    slots = [
        (node, max_pi * count)
        for node, count in state.instance_items(app_id)
        if count > 0
    ]
    unbounded = max_total == _INF
    if unbounded:
        # No speed ceiling: cap by what its nodes could ever provide.
        max_total = sum(capacity[node] for node, _ in slots)
    low = min(min_total, max_total)
    if (
        not unbounded
        and not demand.divisible
        and len(slots) == 1
        and isinstance(rpf, JobAllocationRPF)
    ):
        (node, cap), = slots
        return _Link(
            app_id, saturation, low, max_total, rpf.max_utility + EPSILON,
            rpf.remaining_work, rpf.goal, rpf.relative_goal, rpf.now,
            rpf.max_speed, node, cap,
        )
    return _Row(
        app_id, rpf.required_cpu, saturation, low, max_total, unbounded,
        demand.divisible, slots,
    )


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
    rows: Sequence[Union[_Row, _Link]],
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

    A :class:`_Link`'s target is worked out here, in the order of the
    operations of ``JobAllocationRPF.required_cpu`` and :func:`_target`,
    so every float is theirs; its one slot is the loop below run once.
    """
    residual = dict(capacity)
    for row in rows:
        if row.__class__ is _Link:
            (app_id, saturation, low, high, u_limit, work, goal,
             relative_goal, now, max_speed, node, cap) = row
            if work <= EPSILON:
                target = 0.0
            elif level > u_limit:
                target = saturation
            else:
                horizon = (goal - level * relative_goal) - now
                if horizon <= EPSILON:
                    target = max_speed
                else:
                    # min(max_speed, work / horizon)
                    target = work / horizon
                    if not target < max_speed:
                        target = max_speed
                if target == _INF:
                    target = saturation
            if target < low:
                target = low
            elif target > high:
                target = high
            if target <= EPSILON:
                continue
            # min(target, residual[node], cap)
            free = residual[node]
            take = free if free < target else target
            if cap < take:
                take = cap
            if take > EPSILON:
                if per_node is not None:
                    per_node[app_id][node] = take
                residual[node] = free - take
                target -= take
            if target > EPSILON:
                return False
            continue
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


class _Kernel:
    """What :func:`distribute_load` runs its three phases over, for the
    apps placed in one call (placed order).

    ``feasible(level)`` answers one level probe and ``assignment(level)``
    builds the ``{app: {node: cpu}}`` load at the final level, both by
    :func:`_fill`'s rules.  ``utilities(current)`` maps a refinement
    sweep's allocations (the driver's values, in placed order) to each
    row's ``rpf.utility``.  ``top_first`` lets the level search probe the
    top level first (:func:`_highest_feasible_level`).  ``max_total`` and
    ``saturation`` are each row's :func:`_headroom` terms.
    """

    __slots__ = ()

    def stuck(self, current: Sequence[float]) -> List[bool]:
        """Rows whose :func:`_headroom` at ``current`` is at most
        ``EPSILON``, elementwise: :func:`_raise_app` leaves them as they
        are."""
        cpu = np.array(current, dtype=float)
        useful = np.minimum(self.max_total, np.maximum(self.saturation, cpu))
        return (useful - cpu <= EPSILON).tolist()


class _RowsKernel(_Kernel):
    """The kernel over rows prepared once per call (job links as
    :class:`_Link`): each level probe is a plain yes/no over them
    (:func:`_fill`), and the assignment is the same routine run once
    more at the final level."""

    __slots__ = (
        "rows", "capacity", "placed_ids", "rpfs", "max_total", "saturation",
        "top_first",
    )

    def __init__(
        self,
        state: PlacementState,
        placed: Mapping[str, AllocatableApp],
        placed_ids: List[str],
        capacity: Mapping[str, float],
    ) -> None:
        rows = [_prepare_row(a, placed[a], state, capacity) for a in placed_ids]
        # _fill's order: singletons (links among them), then divisible
        # applications, each in placed order.
        self.rows = [r for r in rows if not r.divisible] + [
            r for r in rows if r.divisible
        ]
        self.capacity = capacity
        self.placed_ids = placed_ids
        self.rpfs = [placed[a].rpf for a in placed_ids]
        # _aggregate_bounds's ceiling, which _prepare_row replaces by the
        # nodes' capacity when it is unbounded.
        self.max_total = np.array([_INF if r.unbounded else r.high for r in rows])
        self.saturation = np.array([rpf.saturation_cpu for rpf in self.rpfs])
        # Exact only when every row is a link; see
        # _highest_feasible_level.
        self.top_first = all(isinstance(row, _Link) for row in rows)

    def feasible(self, level: float) -> bool:
        return _fill(self.rows, level, self.capacity)

    def assignment(self, level: float) -> Dict[str, Dict[str, float]]:
        per_node: Dict[str, Dict[str, float]] = {a: {} for a in self.placed_ids}
        _fill(self.rows, level, self.capacity, per_node)
        return per_node

    def utilities(self, current: Sequence[float]) -> List[float]:
        return [rpf.utility(cpu) for rpf, cpu in zip(self.rpfs, current)]


class _VectorContext(_Kernel):
    """The array kernel, over the cycle's spec tables: every probe drains
    each node's chain of single-node singletons level by level, then the
    divisible applications greedily, bit for bit as :func:`_fill` does.

    Everything here is a function of (state, placed apps, spec tables)
    and stays fixed for one call; the level search re-uses it across
    all probes.
    """

    __slots__ = (
        "placed_ids", "caps", "min_total", "max_total", "saturation",
        "u_max", "scalar_rows", "remaining", "goal", "relative_goal", "now",
        "max_speed", "levels", "link_pos", "link_col", "divisible_rows",
        "node_names", "generic", "top_first", "_accepted",
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
        """The kernel, or ``None`` when the tables miss a placed app or a
        singleton spans several nodes; the rows kernel takes those
        calls."""
        index = tables.index
        try:
            row_arr = np.array([index[a] for a in placed_ids], dtype=np.intp)
        except KeyError:
            return None
        node_index = state.node_index
        max_pi = tables.max_per_instance[row_arr]
        max_pi_list = max_pi.tolist()

        # One pass over the placed apps' instances.  A single-node
        # singleton is a link in its node's chain; divisible apps draw
        # greedily after every chain.
        instance_items = state.instance_items
        divisible_rows: List[Tuple[int, str, List[Tuple[str, int, float]]]] = []
        link_pos, link_col, counts = [], [], []
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
                return None

        ctx = cls.__new__(cls)
        ctx.placed_ids = placed_ids
        ctx.divisible_rows = divisible_rows
        ctx.node_names = list(node_index)
        # Float even when the nodes' capacities are ints: every probe
        # subtracts float takes from a copy in place.
        ctx.caps = np.array([capacity[name] for name in node_index], dtype=float)
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
        ctx.remaining = tables.remaining[row_arr]
        ctx.goal = tables.goal[row_arr]
        ctx.relative_goal = tables.relative_goal[row_arr]
        ctx.now = tables.now[row_arr]
        ctx.max_speed = tables.max_speed[row_arr]
        ctx.u_max = tables.u_max[row_arr]
        ctx.saturation = np.where(
            ctx.remaining <= EPSILON, 0.0, ctx.max_speed
        )
        # Rows without a parametric batch RPF answer through it.
        ctx.generic = [
            (pos, placed[placed_ids[pos]].rpf)
            for pos in np.flatnonzero(~is_job).tolist()
        ]
        for pos, rpf in ctx.generic:
            ctx.saturation[pos] = rpf.saturation_cpu
        # Rows whose targets the array kernel can produce: parametric
        # batch RPFs with a finite speed ceiling.  Everything else gets
        # the scalar _target over its prepared row.
        ctx.scalar_rows = [
            (pos, _prepare_row(placed_ids[pos], placed[placed_ids[pos]],
                               state, capacity))
            for pos in np.flatnonzero(~(is_job & np.isfinite(max_pi))).tolist()
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
        ctx.top_first = not divisible_rows and not ctx.scalar_rows
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

    def feasible(self, level: float) -> bool:
        """:func:`_fill` at ``level``; an accepted probe's takes are kept
        for :meth:`assignment`."""
        targets = self.targets_at(level)
        residual = self.caps.copy()
        takes = np.zeros(len(targets))
        for pos_arr, col_arr, cap_arr in self.levels:
            t = targets[pos_arr]
            take = np.minimum(np.minimum(t, residual[col_arr]), cap_arr)
            # _fill only records (and subtracts) a take above EPSILON,
            # and skips apps whose target is at most EPSILON.
            take = np.where(take > EPSILON, take, 0.0)
            residual[col_arr] -= take
            if np.any(t - take > EPSILON):
                return False
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
                return False
        self._accepted = (takes, div_entries)
        return True

    def assignment(self, level: float) -> Dict[str, Dict[str, float]]:
        """The takes of the last accepted probe, which the level search
        made at ``level``, in :func:`_fill`'s insertion order."""
        takes, div_entries = self._accepted
        placed_ids = self.placed_ids
        per_node: Dict[str, Dict[str, float]] = {
            app_id: {} for app_id in placed_ids
        }
        values = takes.tolist()
        names = self.node_names
        for pos, col in zip(self.link_pos, self.link_col):
            if values[pos] > EPSILON:
                per_node[placed_ids[pos]][names[col]] = values[pos]
        for app_id, node, take in div_entries:
            per_node[app_id][node] = per_node[app_id].get(node, 0.0) + take
        return per_node

    def utilities(self, current: Sequence[float]) -> List[float]:
        """JobAllocationRPF.utility elementwise for parametric rows, the
        object call for the rest."""
        cpu = np.array(current, dtype=float)
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
        for pos, rpf in self.generic:
            values[pos] = rpf.utility(current[pos])
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
        applications.  With them the phases run on the array kernel
        (:class:`_VectorContext`); without them, or when a singleton
        spans several nodes, on rows prepared once per call
        (:class:`_RowsKernel`).  Both are bitwise identical to the
        per-probe reference loop kept in
        ``tests/test_loadbalance_oracle.py``.
    base, node:
        Give both or neither.  ``base`` is this function's result for
        the placement ``state`` was copied from, with the same ``apps``
        on the same cluster; ``node`` is the one node where ``state``
        differs from that placement.  When the base sat at the top level
        with nothing to refine, and ``node`` still holds only
        single-instance job rows that fit there, the result is built
        from the base's entries and ``node``'s chain alone
        (:func:`_derive_from_base`); otherwise the call runs in full.
        The result is the same either way, float for float and in
        insertion order.
    """
    if (base is None) != (node is None):
        raise TypeError("distribute_load: give both base and node, or neither")
    if base is not None:
        derived = _derive_from_base(state, apps, base, node)
        if derived is not None:
            if write_load_matrix:
                derived.write_load(state)
            return derived

    placed_apps = state.placed_apps
    placed_ids = [a for a in apps if a in placed_apps]
    result = LoadDistributionResult()
    if not placed_ids:
        if write_load_matrix:
            result.write_load(state)
        return result

    placed = {a: apps[a] for a in placed_ids}
    capacity = {node.name: node.cpu_capacity for node in state.cluster}
    kernel: Optional[_Kernel] = None
    if tables is not None:
        kernel = _VectorContext.build(state, placed, placed_ids, tables, capacity)
    if kernel is None:
        kernel = _RowsKernel(state, placed, placed_ids, capacity)

    # ------------------------------------------------------------------
    # Phase 1+2: binary search the highest feasible common level, then
    # build the assignment once, at that level.
    # ------------------------------------------------------------------
    level = _highest_feasible_level(kernel.feasible, kernel.top_first)
    if level is None:
        result.feasible = False
        assignment = _best_effort(placed, state, capacity)
    else:
        result.common_level = level
        assignment = kernel.assignment(level)

    allocations = {
        a: sum(assignment.get(a, {}).values()) for a in placed_ids
    }

    # ------------------------------------------------------------------
    # Phase 3: lexicographic refinement with leftover capacity.  Each
    # app is visited once per sweep and only its own allocation moves,
    # so the headroom _raise_app sees is the sweep's start-of-sweep one:
    # stuck rows are skipped, and so is a sweep with nothing else.
    # ------------------------------------------------------------------
    residual = None
    for sweep in range(_MAX_REFINEMENT_SWEEPS):
        current = [allocations[a] for a in placed_ids]
        values = kernel.utilities(current)
        stuck = kernel.stuck(current)
        if all(stuck):
            if sweep == 0 and level == 1.0 and kernel.top_first:
                # Trials copied from this state can derive from it.
                result._top_level = _TopLevelBase(apps, placed_ids)
            break
        if residual is None:
            residual = _residual(capacity, assignment)
        raised_any = False
        for pos in sorted(range(len(placed_ids)), key=values.__getitem__):
            if stuck[pos]:
                continue
            app_id = placed_ids[pos]
            gain = _raise_app(
                placed[app_id], state, assignment.setdefault(app_id, {}),
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
        values = kernel.utilities([allocations[a] for a in placed_ids])

    result.allocations = allocations
    result.utilities = dict(zip(placed_ids, values))
    result.assignment = assignment
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
    a fit at the floor, which holds when every row is a job link (see
    :class:`_Link`).  Their targets are non-decreasing in the level, and
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


class _TopLevelBase:
    """What :func:`_derive_from_base` reads from a result that sat at the
    top level with nothing to refine.

    The position map of ``apps`` is built on the first trial that names
    the result as its base and shared by every result derived from it
    (an adopted trial becomes the base of later nodes), so runs that
    never search build nothing extra.
    """

    __slots__ = ("apps", "placed_ids", "_position")

    def __init__(
        self,
        apps: Mapping[str, AllocatableApp],
        placed_ids: List[str],
        position: Optional[Dict[str, int]] = None,
    ) -> None:
        self.apps = apps
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
    base: LoadDistributionResult,
    node: str,
) -> Optional[LoadDistributionResult]:
    """:func:`distribute_load`'s result for ``state``, built from
    ``base`` (the result for the placement ``state`` was copied from,
    which differs from it on ``node`` only), or ``None`` when a
    precondition fails.

    It applies when the base came from a call on the same ``apps`` whose
    kernel was top-first, at level 1.0, and whose first refinement sweep
    found every row stuck; when every app on ``node`` is a
    single-instance :class:`_Link`; when something is still placed; and
    when ``node``'s chain fits at level 1.0 with no row left any
    headroom.  Every base app is a link on one node, so the trial
    places the base's apps that are still placed and those it added on
    ``node``.

    Why it is exact.  When every row is a single-node link, the
    top-level probe drains each node's chain without reading any
    other node.  The other nodes hold the same apps in the same
    relative order, and a target depends only on the row and the level,
    so their takes are the base's.  So are their allocations (a
    one-entry ``sum`` equals the take, and an app with no take gets the
    int ``0``), their utilities (elementwise) and their stuck flags.
    The level is the top exactly when every node fits there, and with
    every row stuck the first refinement sweep ends the search.  The
    node's chain runs through :func:`_prepare_row` and :func:`_fill`,
    which the oracle pins bit for bit to both kernels.
    """
    top = base._top_level
    if top is None or top.apps is not apps:
        return None
    position = top.position()
    capacity = {node: state.cluster.node(node).cpu_capacity}
    rows = []
    for app_id in state.hosted_on(node):
        # One instance, so the app is on ``node`` alone.
        if app_id not in position or state.instance_count(app_id) != 1:
            return None
        row = _prepare_row(app_id, apps[app_id], state, capacity)
        if not isinstance(row, _Link):
            return None
        rows.append(row)
    # _fill walks a node's links in placed order.
    rows.sort(key=lambda row: position[row.app_id])
    chain = [row.app_id for row in rows]
    placed = state.placed_apps
    placed_ids = [a for a in top.placed_ids if a in placed]
    added = [a for a in chain if a not in base.allocations]
    if added:
        placed_ids = sorted(placed_ids + added, key=position.__getitem__)
    if not placed_ids:
        # The full path's empty result has the floor as its level.
        return None

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
    result._top_level = _TopLevelBase(apps, placed_ids, position)
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
