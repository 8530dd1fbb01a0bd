"""The prepared-probe load distributor against the plain probe loop.

:func:`~repro.core.loadbalance.distribute_load` answers each level
probe with a yes/no over rows prepared once per call and builds the
per-node assignment once, at the final level.  The reference below is
the loop it replaced, kept as the oracle: every probe recomputes each
app's aggregate target (:func:`target_at_level`) and a full per-node
assignment (:func:`try_distribute`), and the last feasible probe's
assignment is the one refined.  A hypothesis property draws small
clusters and app mixes and requires the production distributor to
match the oracle exactly: same floats, same dict insertion order.  The
oracle asks each app's RPF for its inverse, so it also pins the
closed-form job-link targets, including where links share a node's
chain with other singletons, and every field a link carries is checked
against the RPF that holds it.  A trial changed on one node and handed
its base's result (``base`` and ``node``) must get the same result as
the call without them.  Problems shaped like perfbench's ``share``
(links beside one piecewise-linear divisible row whose deficit lands
within a few ulps of ``EPSILON``) drive the certified level search,
from the endpoints, from a base's level, from a sibling trial's level
(with the base's rows reused off the node) and from any guess; mixes
it cannot certify must make the bisection's 50 probes.  Under the
``share`` wiring itself, a distribution's level probes, rows prepared
and refinement calls are bounded, and refinement never raises an app
none of whose nodes has CPU left.
"""

import dataclasses
import math
from typing import Dict, Mapping, Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch.job import Job, JobProfile
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF
from repro.cluster import Cluster
from repro.cluster.node import Node, NodeSpec
from repro.core import loadbalance
import repro.core.apc as apc_module
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.loadbalance import (
    AllocatableApp,
    LoadDistributionResult,
    _best_effort,
    _Link,
    _prepare_row,
    _raise_app,
    distribute_load,
)
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY, PiecewiseLinearRPF
from repro.experiments.common import Scale
from repro.experiments.experiment3 import make_txn_app
from repro.policies import APCPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.txn.model import TransactionalWorkloadModel
from repro.txn.queuing import ProcessorSharingModel
from repro.txn.rpf import TransactionalRPF
from repro.units import EPSILON, clamp
from repro.workloads.generators import experiment_one_jobs

LEVEL_SEARCH_ITERATIONS = 48
MAX_REFINEMENT_SWEEPS = 64


# ----------------------------------------------------------------------
# The reference: one full target and assignment computation per probe
# ----------------------------------------------------------------------
def target_at_level(
    app: AllocatableApp, state: PlacementState, level: float
) -> float:
    """The inverse RPF at ``level``, clamped into the app's speed range;
    an unreachable level demands the saturation allocation."""
    count = state.instance_count(app.app_id)
    min_total = app.demand.min_cpu_mhz * count
    max_per_instance = app.demand.max_cpu_per_instance_mhz
    if max_per_instance == float("inf"):
        max_total = float("inf")
    else:
        max_total = max_per_instance * count
    required = app.rpf.required_cpu(level)
    if required == float("inf"):
        required = min(app.rpf.saturation_cpu, max_total)
    if max_total == float("inf"):
        max_total = sum(
            state.cluster.node(n).cpu_capacity for n in state.nodes_of(app.app_id)
        )
        required = min(required, max_total)
    return clamp(required, min(min_total, max_total), max_total)


def try_distribute(
    targets: Mapping[str, float],
    apps: Mapping[str, AllocatableApp],
    state: PlacementState,
) -> Optional[Dict[str, Dict[str, float]]]:
    """Per-node assignment of the targets, or ``None`` if infeasible:
    singletons first in placed order, then divisible apps drawing from
    their nodes most-residual-first."""
    residual = {node.name: node.cpu_capacity for node in state.cluster}
    per_node: Dict[str, Dict[str, float]] = {app_id: {} for app_id in targets}
    singletons = [a for a in targets if not apps[a].demand.divisible]
    divisible = [a for a in targets if apps[a].demand.divisible]
    for app_id in singletons:
        target = targets[app_id]
        if target <= EPSILON:
            continue
        remaining = target
        for node in state.nodes_of(app_id):
            count = state.instances(app_id).get(node, 0)
            cap = apps[app_id].demand.max_cpu_per_instance_mhz * count
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                per_node[app_id][node] = take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
        if remaining > EPSILON:
            return None
    for app_id in divisible:
        target = targets[app_id]
        if target <= EPSILON:
            continue
        remaining = target
        instance_nodes = state.instances(app_id)
        for node in sorted(instance_nodes, key=lambda n: -residual[n]):
            cap = apps[app_id].demand.max_cpu_per_instance_mhz * instance_nodes[node]
            take = min(remaining, residual[node], cap)
            if take > EPSILON:
                per_node[app_id][node] = per_node[app_id].get(node, 0.0) + take
                residual[node] -= take
                remaining -= take
            if remaining <= EPSILON:
                break
        if remaining > EPSILON:
            return None
    return per_node


def reference_distribute_load(
    state: PlacementState, apps: Mapping[str, AllocatableApp]
) -> LoadDistributionResult:
    placed_ids = [a for a in apps if state.is_placed(a)]
    result = LoadDistributionResult()
    if not placed_ids:
        state.clear_load()
        return result
    placed = {a: apps[a] for a in placed_ids}
    capacity = {node.name: node.cpu_capacity for node in state.cluster}

    def feasible(level):
        targets = {a: target_at_level(placed[a], state, level) for a in placed_ids}
        return try_distribute(targets, placed, state)

    lo, hi = NEGATIVE_INFINITY_UTILITY, 1.0
    best = feasible(lo)
    if best is None:
        result.feasible = False
        best = _best_effort(placed, state, capacity)
    else:
        if feasible(hi) is not None:
            lo = hi
            best = feasible(hi)
        else:
            for _ in range(LEVEL_SEARCH_ITERATIONS):
                mid = 0.5 * (lo + hi)
                assignment = feasible(mid)
                if assignment is not None:
                    lo = mid
                    best = assignment
                else:
                    hi = mid
        result.common_level = lo

    allocations = {a: sum(best.get(a, {}).values()) for a in placed_ids}
    residual = dict(capacity)
    for nodes in best.values():
        for node, cpu in nodes.items():
            residual[node] -= cpu
    for _ in range(MAX_REFINEMENT_SWEEPS):
        raised_any = False
        order = sorted(
            placed_ids, key=lambda a: placed[a].rpf.utility(allocations[a])
        )
        for app_id in order:
            gain = _raise_app(
                placed[app_id], state, best.setdefault(app_id, {}),
                allocations[app_id], residual,
            )
            if gain > EPSILON:
                allocations[app_id] += gain
                raised_any = True
        if not raised_any:
            break
    result.allocations = allocations
    result.utilities = {a: placed[a].rpf.utility(allocations[a]) for a in placed_ids}
    state.clear_load()
    for app_id, nodes in best.items():
        for node, cpu in nodes.items():
            if cpu > EPSILON:
                state.set_cpu(app_id, node, cpu)
    return result


# ----------------------------------------------------------------------
# Small clusters and app mixes
# ----------------------------------------------------------------------
_capacity = st.sampled_from([600.0, 1000.0, 2500.0, 4000.0])
_min_cpu = st.sampled_from([0.0, 0.0, 50.0, 300.0, 900.0])


@st.composite
def job_app(draw, app_id):
    """A batch job singleton: sometimes finished, sometimes already past
    its goal, sometimes with several non-divisible instances."""
    max_speed = draw(st.sampled_from([100.0, 500.0, 1000.0, 2000.0]))
    work = draw(st.sampled_from([500.0, 4000.0, 20000.0]))
    job = Job.with_goal_factor(
        job_id=app_id,
        profile=JobProfile.single_stage(
            work_mcycles=work, max_speed_mhz=max_speed, memory_mb=1.0
        ),
        submit_time=0.0,
        goal_factor=draw(st.sampled_from([1.0, 1.5, 3.0, 8.0])),
    )
    job.advance(work * draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])))
    # Past the goal when now exceeds goal_factor * best time.
    now = draw(st.sampled_from([0.0, 1.0, 30.0, 200.0]))
    instances = draw(st.sampled_from([1, 1, 2]))
    demand = AppDemand(
        app_id=app_id,
        memory_mb=1.0,
        min_cpu_mhz=min(draw(_min_cpu), max_speed),
        max_cpu_per_instance_mhz=max_speed,
        max_instances=instances,
        divisible=False,
    )
    return AllocatableApp(demand=demand, rpf=JobAllocationRPF(job, now)), instances


@st.composite
def divisible_app(draw, app_id):
    """A divisible app with no per-instance ceiling: a piecewise-linear
    RPF or a processor-sharing transactional RPF."""
    if draw(st.booleans()):
        knee = draw(st.sampled_from([200.0, 1500.0, 6000.0]))
        rpf = PiecewiseLinearRPF(
            [(0.0, -2.0), (knee, draw(st.sampled_from([0.2, 0.6]))), (2 * knee, 0.9)]
        )
    else:
        model = ProcessorSharingModel(
            arrival_rate=draw(st.sampled_from([0.0, 0.5, 2.0])),
            demand_mcycles=draw(st.sampled_from([100.0, 800.0])),
            single_thread_speed_mhz=1000.0,
        )
        rpf = TransactionalRPF(model, response_time_goal=draw(
            st.sampled_from([0.5, 2.0])
        ))
    demand = AppDemand(
        app_id=app_id,
        memory_mb=1.0,
        min_cpu_mhz=draw(_min_cpu),
        max_instances=None,
        divisible=True,
    )
    return AllocatableApp(demand=demand, rpf=rpf)


@st.composite
def single_node_singleton(draw, app_id):
    """A one-instance singleton that is not a job link, so the rows
    kernel prepares it as a generic row: a job with no per-instance
    ceiling, or an app with a piecewise-linear RPF."""
    if draw(st.booleans()):
        app, _ = draw(job_app(app_id))
        demand = dataclasses.replace(
            app.demand, max_cpu_per_instance_mhz=float("inf"), max_instances=1
        )
        return AllocatableApp(demand=demand, rpf=app.rpf)
    knee = draw(st.sampled_from([200.0, 900.0, 3000.0]))
    rpf = PiecewiseLinearRPF(
        [(0.0, -3.0), (knee, draw(st.sampled_from([0.1, 0.5]))), (2 * knee, 0.8)]
    )
    demand = AppDemand(
        app_id=app_id,
        memory_mb=1.0,
        min_cpu_mhz=draw(_min_cpu),
        max_cpu_per_instance_mhz=draw(st.sampled_from([float("inf"), 1500.0])),
        max_instances=1,
        divisible=False,
    )
    return AllocatableApp(demand=demand, rpf=rpf)


@st.composite
def problems(draw):
    names = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    cluster = Cluster(
        Node(name, NodeSpec(cpu_capacity=draw(_capacity), memory_capacity=1e6))
        for name in names
    )
    state = PlacementState(cluster)
    apps: Dict[str, AllocatableApp] = {}
    for i in range(draw(st.integers(1, 8))):
        app_id = f"a{i}"
        kind = draw(st.integers(0, 4))
        if kind == 0:
            app = draw(divisible_app(app_id))
            spread = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
            for node in spread:
                state.place(app_id, node, app.demand.memory_mb)
        elif kind == 1:
            # Shares its node with links in placed order: a node's chain
            # interleaves links and generic singletons.
            app = draw(single_node_singleton(app_id))
            state.place(app_id, draw(st.sampled_from(names)), 1.0)
        else:
            app, instances = draw(job_app(app_id))
            node = draw(st.sampled_from(names))
            state.place(app_id, node, 1.0)
            if instances > 1:
                # The second instance shares the node or takes another.
                if draw(st.booleans()):
                    node = draw(st.sampled_from(names))
                state.place(app_id, node, 1.0)
        apps[app_id] = app
    # Some known apps are not placed at all.
    if draw(st.booleans()):
        apps["idle"] = draw(divisible_app("idle"))
    if len(names) > 1 and draw(st.booleans()):
        # A node that failed after placement: it keeps its instances but
        # contributes no capacity.
        cluster.node(draw(st.sampled_from(names))).available = False
    return state, apps


@st.composite
def single_node_job_problems(draw):
    """Only parametric job rows, each on one node (some with two
    instances there), stacked several to a node.  Some nodes get exactly
    the capacity their chain takes at the top level, give or take a few
    EPSILON, so the chain barely fits or barely misses there."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    apps: Dict[str, AllocatableApp] = {}
    where = {}
    for i in range(draw(st.integers(1, 14))):
        app_id = f"a{i}"
        apps[app_id], count = draw(job_app(app_id))
        where[app_id] = (draw(st.sampled_from(names)), count)

    def placed_on(cluster):
        state = PlacementState(cluster)
        for app_id, (node, count) in where.items():
            state.place(app_id, node, 1.0, count)
        return state

    roomy = placed_on(Cluster(
        Node(name, NodeSpec(cpu_capacity=1e9, memory_capacity=1e6))
        for name in names
    ))
    top = dict.fromkeys(names, 0.0)
    for app_id, (node, _) in where.items():
        top[node] += target_at_level(apps[app_id], roomy, 1.0)
    capacity = {}
    for name in names:
        if top[name] > 1.0 and draw(st.booleans()):
            capacity[name] = top[name] + draw(st.sampled_from(
                [-2 * EPSILON, -0.5 * EPSILON, 0.0, 0.5 * EPSILON, 2 * EPSILON]
            ))
        else:
            capacity[name] = draw(_capacity)
    cluster = Cluster(
        Node(name, NodeSpec(cpu_capacity=capacity[name], memory_capacity=1e6))
        for name in names
    )
    state = placed_on(cluster)
    if len(names) > 1 and draw(st.booleans()):
        # A node that failed after placement.
        cluster.node(draw(st.sampled_from(names))).available = False
    return state, apps


#: Piecewise-linear RPFs for a divisible row: the transactional
#: snapshot's shape (a steep rise that flattens toward its maximum), one
#: with a vertical segment (its inverse is flat over a range of levels,
#: so the deficit sits near ``EPSILON`` across many probes) and a knee.
_SHARE_RPFS = [
    [(0.0, -50.0), (600.0, -6.0), (1500.0, -0.8), (3000.0, 0.3),
     (4500.0, 0.6), (6000.0, 0.66)],
    [(0.0, -3.0), (800.0, 0.2), (800.0, 0.5), (2000.0, 0.9)],
    [(0.0, -2.0), (1500.0, 0.6), (3000.0, 0.9)],
]


@st.composite
def share_problems(draw):
    """``share``-shaped problems, the mix the level search certifies:
    job links stacked on 2-6 nodes, plus one divisible row with a
    piecewise-linear RPF on several of them.  The capacities leave the
    divisible row, after the links, its target at a drawn level less
    ``EPSILON``, give or take a few ulps, so its deficit lands within a
    few ulps of ``EPSILON`` there."""
    names = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    apps: Dict[str, AllocatableApp] = {}
    where = {}
    for i in range(draw(st.integers(0, 12))):
        app_id = f"a{i}"
        apps[app_id], count = draw(job_app(app_id))
        where[app_id] = (draw(st.sampled_from(names)), count)
    scale = draw(st.sampled_from([0.5, 1.0, 7.0]))
    rpf = PiecewiseLinearRPF(
        [(cpu * scale, u) for cpu, u in draw(st.sampled_from(_SHARE_RPFS))]
    )
    txn = AllocatableApp(
        demand=AppDemand(
            app_id="txn",
            memory_mb=1.0,
            min_cpu_mhz=draw(st.sampled_from([0.0, 0.0, 50.0])),
            max_cpu_per_instance_mhz=draw(
                st.sampled_from([float("inf"), float("inf"), 3000.0])
            ),
            max_instances=None,
            divisible=True,
        ),
        rpf=rpf,
    )
    # The transactional app comes first in apps, as the controller
    # merges its models.
    apps = {"txn": txn, **apps}
    spread = draw(st.lists(
        st.sampled_from(names), min_size=2, max_size=len(names), unique=True
    ))

    def placed_on(cluster):
        state = PlacementState(cluster)
        for node in spread:
            state.place("txn", node, 1.0)
        for app_id, (node, count) in where.items():
            state.place(app_id, node, 1.0, count)
        return state

    roomy = placed_on(Cluster(
        Node(name, NodeSpec(cpu_capacity=1e9, memory_capacity=1e6))
        for name in names
    ))
    level = draw(st.sampled_from([-20.0, -1.0, 0.0, 0.25, 0.35, 0.55, 0.65]))
    links = dict.fromkeys(names, 0.0)
    for app_id, (node, _) in where.items():
        links[node] += target_at_level(apps[app_id], roomy, level)
    target = target_at_level(txn, roomy, level)
    ulps = draw(st.sampled_from([-8, -2, -1, 0, 1, 2, 8]))
    left = max(target - EPSILON + ulps * math.ulp(target), 0.0)
    weights = {node: draw(st.sampled_from([1.0, 2.0, 3.0])) for node in spread}
    total = sum(weights.values())
    capacity = {}
    for name in names:
        share = left * weights[name] / total if name in weights else 0.0
        extra = draw(st.sampled_from([0.0, 0.0, 250.0])) if not share else 0.0
        capacity[name] = max(links[name] + share + extra, 1.0)
    cluster = Cluster(
        Node(name, NodeSpec(cpu_capacity=capacity[name], memory_capacity=1e6))
        for name in names
    )
    return placed_on(cluster), apps


@st.composite
def uncertified_share_problems(draw):
    """A :func:`share_problems` mix made one the level search cannot
    certify: a second divisible row, a singleton that is not a link, or
    a processor-sharing transactional row in place of the
    piecewise-linear one (its inverse states no rounding bound)."""
    state, apps = draw(share_problems())
    names = list(state.cluster.node_names)
    kind = draw(st.sampled_from(["second divisible", "singleton", "ps"]))
    if kind == "second divisible":
        app = draw(divisible_app("txn2"))
        app = AllocatableApp(
            demand=app.demand,
            rpf=PiecewiseLinearRPF(draw(st.sampled_from(_SHARE_RPFS))),
        )
        for node in draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=3, unique=True
        )):
            state.place("txn2", node, 1.0)
        apps["txn2"] = app
    elif kind == "singleton":
        if draw(st.booleans()):
            apps["solo"] = draw(single_node_singleton("solo"))
            state.place("solo", draw(st.sampled_from(names)), 1.0)
        else:
            # A job on two nodes: a singleton, but not a link.
            apps["solo"], _ = draw(job_app("solo"))
            first, second = names[:2]
            state.place("solo", first, 1.0)
            state.place("solo", second, 1.0)
    else:
        model = ProcessorSharingModel(
            arrival_rate=draw(st.sampled_from([0.5, 2.0])),
            demand_mcycles=draw(st.sampled_from([100.0, 800.0])),
            single_thread_speed_mhz=1000.0,
        )
        apps["txn"] = AllocatableApp(
            demand=apps["txn"].demand,
            rpf=TransactionalRPF(model, response_time_goal=1.0),
        )
    return state, apps


def _exact(result: LoadDistributionResult, state: PlacementState) -> str:
    """Every observable output, with exact floats and insertion order."""
    return repr((
        list(result.allocations.items()),
        list(result.utilities.items()),
        result.common_level,
        result.feasible,
        [(a, list(nodes.items())) for a, nodes in state.load_matrix().items()],
    ))


def infeasible_minimums():
    """Two singletons whose minimum speeds overflow their shared node:
    the best-effort branch, pinned as an explicit example."""
    cluster = Cluster([Node("n0", NodeSpec(cpu_capacity=1000.0, memory_capacity=1e6))])
    state = PlacementState(cluster)
    apps = {}
    for app_id in ("a0", "a1"):
        job = Job.with_goal_factor(
            job_id=app_id,
            profile=JobProfile.single_stage(
                work_mcycles=4000.0, max_speed_mhz=1000.0, memory_mb=1.0
            ),
            submit_time=0.0,
            goal_factor=3.0,
        )
        apps[app_id] = AllocatableApp(
            demand=AppDemand(
                app_id=app_id, memory_mb=1.0, min_cpu_mhz=600.0,
                max_cpu_per_instance_mhz=1000.0,
            ),
            rpf=JobAllocationRPF(job, 0.0),
        )
        state.place(app_id, "n0", 1.0)
    return state, apps


def horizon_grouping_shows():
    """Two jobs frozen at 200 s on a node that binds below the top level:
    their targets at the final level change in the last bits when the
    horizon ``(goal - level * relative_goal) - now`` is grouped any other
    way, which random problems rarely show."""
    cluster = Cluster([Node("n0", NodeSpec(cpu_capacity=1000.0, memory_capacity=1e6))])
    state = PlacementState(cluster)
    apps = {}
    for app_id, max_speed, done in (("a0", 100.0, 0.9), ("a1", 1000.0, 0.3)):
        job = Job.with_goal_factor(
            job_id=app_id,
            profile=JobProfile.single_stage(
                work_mcycles=20000.0, max_speed_mhz=max_speed, memory_mb=1.0
            ),
            submit_time=0.0,
            goal_factor=1.5,
        )
        job.advance(20000.0 * done)
        apps[app_id] = AllocatableApp(
            demand=AppDemand(
                app_id=app_id, memory_mb=1.0, max_cpu_per_instance_mhz=max_speed,
            ),
            rpf=JobAllocationRPF(job, 200.0),
        )
        state.place(app_id, "n0", 1.0)
    return state, apps


@settings(max_examples=300, deadline=None)
@given(problems())
@example(infeasible_minimums())
@example(horizon_grouping_shows())
def test_distributor_matches_probe_loop_oracle(problem):
    state, apps = problem
    ref_state = state.copy()
    expected = _exact(reference_distribute_load(ref_state, apps), ref_state)
    got_state = state.copy()
    assert _exact(distribute_load(got_state, apps), got_state) == expected


@settings(max_examples=300, deadline=None)
@given(single_node_job_problems())
def test_single_node_job_rows_match_probe_loop_oracle(problem):
    """The top-first probe, on the inputs it applies to: every placed
    row is a link."""
    state, apps = problem
    ref_state = state.copy()
    expected = _exact(reference_distribute_load(ref_state, apps), ref_state)
    capacity = {node.name: node.cpu_capacity for node in state.cluster}
    assert all(
        isinstance(_prepare_row(a, apps[a], state, capacity), _Link)
        for a in apps
        if state.is_placed(a)
    )
    got_state = state.copy()
    got = distribute_load(got_state, apps)
    assert _exact(got, got_state) == expected


def _counting_probes(state, apps, **kwargs):
    """:func:`distribute_load`'s result, and the ``certify`` flag of
    each level probe it made (each :func:`_fill` call without
    ``per_node``)."""
    probes = []
    fill = loadbalance._fill

    def spy(rows, level, capacity, per_node=None, certify=False):
        if per_node is None:
            probes.append(certify)
        return fill(rows, level, capacity, per_node, certify)

    with mock.patch.object(loadbalance, "_fill", spy):
        result = distribute_load(state, apps, **kwargs)
    return result, probes


@settings(max_examples=300, deadline=None)
@given(share_problems(), st.data())
def test_certified_search_matches_probe_loop_oracle(problem, data):
    """The certified level search, on the mix it certifies and with the
    divisible row's deficit near ``EPSILON``: from the endpoints, from a
    base's level (the placement with one link fewer on a node), for a
    sibling trial steered by the first trial's level, and from any level
    given as a base's or as a guess, it returns the probe loop's
    result."""
    state, apps = problem
    ref_state = state.copy()
    expected = _exact(reference_distribute_load(ref_state, apps), ref_state)
    got_state = state.copy()
    got, probes = _counting_probes(got_state, apps)
    assert _exact(got, got_state) == expected
    assert probes and all(probes)

    level = got.common_level
    jobs = [a for a in apps if a != "txn"]
    if jobs:
        # A search trial: its base lacks one of its links.
        app_id = data.draw(st.sampled_from(jobs))
        node, = state.nodes_of(app_id)
        base_state = state.copy()
        base_state.remove(app_id, node, base_state.instances_on(app_id, node))
        base = distribute_load(base_state, apps, write_load_matrix=False)
        got_state = state.copy()
        got = distribute_load(got_state, apps, base=base, node=node)
        assert _exact(got, got_state) == expected
        # Its sibling: copied from the same base and changed on the same
        # node (some of the node's apps removed, the divisible row
        # perhaps added), steered by the first trial's level.  It takes
        # the base's rows for every app off the node.
        sibling = base_state.copy()
        for other in sibling.apps_on(node):
            if data.draw(st.booleans()):
                sibling.remove(other, node, sibling.instances_on(other, node))
        if "txn" not in sibling.hosted_on(node) and data.draw(st.booleans()):
            sibling.place("txn", node, 1.0)
        ref_state = sibling.copy()
        oracle = _exact(reference_distribute_load(ref_state, apps), ref_state)
        got_state = sibling.copy()
        got = distribute_load(
            got_state, apps, base=base, node=node, guess=got.common_level,
        )
        assert _exact(got, got_state) == oracle

    # Any start and any guess only steer the search.
    start = data.draw(st.one_of(
        st.sampled_from([level, NEGATIVE_INFINITY_UTILITY, 1.0]),
        st.floats(NEGATIVE_INFINITY_UTILITY, 1.0),
    ))
    guess = data.draw(st.one_of(
        st.sampled_from([
            level, NEGATIVE_INFINITY_UTILITY, 1.0, math.nan, math.inf,
            -math.inf,
        ]),
        st.floats(NEGATIVE_INFINITY_UTILITY, 1.0),
    ))
    got_state = state.copy()
    got = distribute_load(got_state, apps, guess=guess)
    assert _exact(got, got_state) == expected
    got_state = state.copy()
    got = distribute_load(
        got_state, apps, base=LoadDistributionResult(common_level=start),
        node=next(iter(state.cluster.node_names)), guess=guess,
    )
    assert _exact(got, got_state) == expected


def test_a_segment_end_that_rounds_up_is_probed():
    """Feasibility that is not monotone in the level: at the bisection
    midpoint 0.203125, a segment end of the divisible row's
    piecewise-linear inverse, ``774.4 + 1.0 * (2029.651 - 774.4)``
    rounds one ulp above the sample 2029.651, and the row misses; just
    above it the inverse is exactly 2029.651 (a vertical segment) and
    the row fits, with a deficit half an ulp below ``EPSILON``.  A pass
    there may not stand for the midpoint below it: the search must probe
    the midpoint, as the bisection does, and end just below it, also
    when it starts from a level in that segment."""
    rpf = PiecewiseLinearRPF([
        (0.0, -50.0), (774.4, -40.0), (2029.651, 0.203125),
        (2029.651, 0.5), (4059.302, 0.9),
    ])
    assert rpf.required_cpu(0.203125) > 2029.651 == rpf.required_cpu(0.3)
    apps = {"txn": AllocatableApp(
        demand=AppDemand(
            app_id="txn", memory_mb=1.0, max_cpu_per_instance_mhz=5000.0,
            max_instances=None, divisible=True,
        ),
        rpf=rpf,
    )}
    # The deficit at the vertical segment: 2029.651 less this capacity
    # is a little below EPSILON, and one ulp more is above it.
    capacity = 2029.651 - EPSILON + math.ulp(2029.651)
    cluster = Cluster([Node("n0", NodeSpec(cpu_capacity=capacity, memory_capacity=1e6))])
    state = PlacementState(cluster)
    state.place("txn", "n0", 1.0)
    ref_state = state.copy()
    expected = reference_distribute_load(ref_state, apps)
    assert expected.common_level < 0.203125
    got_state = state.copy()
    got = distribute_load(got_state, apps)
    assert _exact(got, got_state) == _exact(expected, ref_state)
    got_state = state.copy()
    got = distribute_load(
        got_state, apps, base=LoadDistributionResult(common_level=0.3),
        node="n0",
    )
    assert _exact(got, got_state) == _exact(expected, ref_state)


@settings(max_examples=200, deadline=None)
@given(uncertified_share_problems())
def test_mixes_without_a_certificate_bisect_as_before(problem):
    """Two divisible rows, a singleton that is not a link, or an inverse
    with no stated rounding bound: no probe is certified, and a search
    that bisects makes the bisection's 50 probes."""
    state, apps = problem
    ref_state = state.copy()
    expected = _exact(reference_distribute_load(ref_state, apps), ref_state)
    got_state = state.copy()
    got, probes = _counting_probes(got_state, apps)
    assert _exact(got, got_state) == expected
    assert not any(probes)
    if NEGATIVE_INFINITY_UTILITY < got.common_level < 1.0:
        assert len(probes) == 50


@settings(max_examples=300, deadline=None)
@given(problems())
def test_every_link_carries_its_rpfs_floats(problem):
    """A link carries the floats its ``JobAllocationRPF`` holds and the
    bounds of its one ``(node, count)`` item, bit for bit; every other
    placed app is prepared as a generic row."""
    state, apps = problem
    capacity = {node.name: node.cpu_capacity for node in state.cluster}
    for app_id, app in apps.items():
        if not state.is_placed(app_id):
            continue
        row = _prepare_row(app_id, app, state, capacity)
        rpf, demand = app.rpf, app.demand
        nodes = state.instances(app_id)
        if not (
            isinstance(rpf, JobAllocationRPF)
            and not demand.divisible
            and demand.max_cpu_per_instance_mhz != float("inf")
            and len(nodes) == 1
        ):
            assert not isinstance(row, _Link)
            continue
        assert isinstance(row, _Link)
        (node, count), = nodes.items()
        cap = demand.max_cpu_per_instance_mhz * count
        assert repr(row) == repr(_Link(
            app_id,
            min(rpf.saturation_cpu, cap),
            min(demand.min_cpu_mhz * count, cap),
            cap,
            rpf.max_utility + EPSILON,
            rpf.remaining_work,
            rpf.goal,
            rpf.relative_goal,
            rpf.now,
            rpf.max_speed,
            node,
            cap,
        ))
        assert repr(rpf.fields()) == repr((
            rpf.saturation_cpu, rpf.max_utility, rpf.remaining_work,
            rpf.goal, rpf.relative_goal, rpf.now, rpf.max_speed,
        ))


# ----------------------------------------------------------------------
# Trials built from a base: one node changed
# ----------------------------------------------------------------------
def _result_parts(result: LoadDistributionResult):
    """Every field of a result, with insertion order."""
    return repr((
        list(result.allocations.items()),
        list(result.utilities.items()),
        [(a, list(nodes.items())) for a, nodes in result.assignment.items()],
        result.common_level,
        result.feasible,
    ))


@st.composite
def one_node_trials(draw):
    """A :func:`single_node_job_problems` placement with extra unplaced
    job rows and a shuffled ``apps`` order, then three trials, each
    copied from the one before and changed on one node: some of the
    node's instances removed, some unplaced apps placed there (now and
    then two instances at once)."""
    state, apps = draw(single_node_job_problems())
    for i in range(draw(st.integers(0, 4))):
        app_id = f"u{i}"
        apps[app_id], _ = draw(job_app(app_id))
    order = draw(st.permutations(list(apps)))
    apps = {a: apps[a] for a in order}
    names = list(state.cluster.node_names)
    trials = []
    trial = state
    for _ in range(3):
        node = draw(st.sampled_from(names))
        trial = trial.copy()
        for app_id in trial.apps_on(node):
            count = trial.instances_on(app_id, node)
            drop = draw(st.integers(0, count))
            if drop:
                trial.remove(app_id, node, drop)
        # A failed node has no memory left to place on.
        unplaced = [a for a in apps if not trial.is_placed(a)]
        if unplaced and trial.cluster.node(node).available:
            for app_id in draw(st.lists(
                st.sampled_from(unplaced), unique=True, max_size=3
            )):
                trial.place(app_id, node, 1.0, draw(st.sampled_from([1, 1, 2])))
        trials.append((node, trial))
    return state, apps, trials


def _job_spec(app_id, max_speed, submit_time=0.0, now=0.0):
    """A one-instance job row on a 4,000 Mcycle job with goal factor 3."""
    job = Job.with_goal_factor(
        job_id=app_id,
        profile=JobProfile.single_stage(
            work_mcycles=4000.0, max_speed_mhz=max_speed, memory_mb=1.0
        ),
        submit_time=submit_time,
        goal_factor=3.0,
    )
    return AllocatableApp(
        demand=AppDemand(
            app_id=app_id, memory_mb=1.0, min_cpu_mhz=0.0,
            max_cpu_per_instance_mhz=max_speed,
        ),
        rpf=JobAllocationRPF(job, now),
    )


def _one_node(capacity, placed):
    cluster = Cluster([Node("n0", NodeSpec(cpu_capacity=capacity, memory_capacity=1e6))])
    state = PlacementState(cluster)
    for app_id in placed:
        state.place(app_id, "n0", 1.0)
    return state


def chain_short_by_half_an_epsilon():
    """Two jobs on a node that holds their top-level targets (their
    speed ceilings) less half an EPSILON, placed in the opposite of
    ``apps`` order: the chain is walked in ``apps`` order, which decides
    which job is left short."""
    apps = {"a1": _job_spec("a1", 500.0), "a0": _job_spec("a0", 1000.0)}
    state = _one_node(1500.0 - 0.5 * EPSILON, ["a0", "a1"])
    return state, apps, [("n0", state.copy())]


def added_job_with_headroom():
    """A job evaluated before it was submitted can beat its goal by more
    than its relative goal, so at the top level it demands less than its
    speed ceiling and refinement raises it: the trial that adds it must
    not keep its top-level take."""
    apps = {
        "a0": _job_spec("a0", 1000.0),
        "a1": _job_spec("a1", 1000.0, submit_time=1000.0),
    }
    state = _one_node(4000.0, ["a0"])
    trial = state.copy()
    trial.place("a1", "n0", 1.0)
    return state, apps, [("n0", trial)]


def emptied_trial():
    """A trial that unplaces the only app: the full path's empty result
    (level at the floor) must come back, not a top-level one."""
    apps = {"a0": _job_spec("a0", 1000.0)}
    state = _one_node(4000.0, ["a0"])
    trial = state.copy()
    trial.remove("a0", "n0")
    return state, apps, [("n0", trial)]


@settings(max_examples=300, deadline=None)
@given(one_node_trials())
@example(emptied_trial())
@example(chain_short_by_half_an_epsilon())
@example(added_job_with_headroom())
def test_trial_from_its_base_matches_the_full_path(problem):
    """``base``/``node`` change how a result is computed, never what it
    is: each trial's result equals the call without them (and, written
    into the state, the probe-loop oracle), and becomes the next trial's
    base."""
    state, apps, trials = problem
    expected = []
    for _, trial in trials:
        ref_state = trial.copy()
        expected.append(
            _exact(reference_distribute_load(ref_state, apps), ref_state)
        )
    base = distribute_load(state, apps, write_load_matrix=False)
    for (node, trial), oracle in zip(trials, expected):
        got = distribute_load(
            trial, apps, write_load_matrix=False, base=base, node=node
        )
        full = distribute_load(trial, apps, write_load_matrix=False)
        assert _result_parts(got) == _result_parts(full)
        written = trial.copy()
        got.write_load(written)
        assert _exact(got, written) == oracle
        base = got


def test_base_and_node_come_together():
    state, apps = infeasible_minimums()
    base = distribute_load(state, apps, write_load_matrix=False)
    with pytest.raises(TypeError):
        distribute_load(state, apps, base=base)
    with pytest.raises(TypeError):
        distribute_load(state, apps, node="n0")


# ----------------------------------------------------------------------
# The §5.3 sharing wiring runs the link path
# ----------------------------------------------------------------------
def _share_simulation(job_count=40):
    """perfbench's ``share`` wiring, the transactional app beside
    ``job_count`` Experiment One jobs on 4 nodes, and its transactional
    app."""
    scale = Scale("share", nodes=4, job_count=job_count, queue_window=8)
    cluster = scale.cluster()
    txn_app = make_txn_app(scale)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue, queue_window=scale.queue_window)
    controller = ApplicationPlacementController(
        cluster, APCConfig(cycle_length=600.0)
    )
    simulator = MixedWorkloadSimulator(
        cluster,
        APCPolicy(controller, [TransactionalWorkloadModel([txn_app]), batch]),
        queue,
        arrivals=experiment_one_jobs(
            count=scale.job_count,
            mean_interarrival=scale.interarrival(150.0),
            seed=1,
        ),
        txn_apps=[txn_app],
        batch_model=batch,
        config=SimulationConfig(cycle_length=600.0),
    )
    return simulator, txn_app


def test_share_wiring_prepares_every_job_row_as_a_link(monkeypatch):
    """Under the ``share`` wiring every job row the distributor prepares
    is a link, whose target :func:`_fill` works out in closed form, and
    the divisible transactional row is not."""
    simulator, txn_app = _share_simulation()
    prepare_row = loadbalance._prepare_row
    prepared = []

    def spy(app_id, app, state, capacity):
        row = prepare_row(app_id, app, state, capacity)
        prepared.append(row)
        return row

    monkeypatch.setattr(loadbalance, "_prepare_row", spy)
    simulator.run(until=20 * 600.0)
    jobs = [row for row in prepared if row.app_id != txn_app.app_id]
    assert len({row.app_id for row in jobs}) > 10
    assert all(isinstance(row, _Link) for row in jobs)
    txn = [row for row in prepared if row.app_id == txn_app.app_id]
    assert txn and not any(isinstance(row, _Link) for row in txn)


@pytest.fixture(scope="module")
def share_wiring_counts():
    """Per distribution, under the ``share`` wiring with perfbench's 150
    jobs so that a backlog forms and the search runs (40 cycles): its
    level, its level probes (:func:`_fill` calls without ``per_node``),
    its rows prepared and its :func:`_raise_app` calls; and every
    ``_raise_app`` call made for an app none of whose nodes had more
    than ``EPSILON`` free."""
    simulator, _ = _share_simulation(job_count=150)
    fill = loadbalance._fill
    prepare_row = loadbalance._prepare_row
    raise_app = loadbalance._raise_app
    distribute = apc_module.distribute_load
    counts = {"probes": 0, "rows": 0, "raises": 0}
    calls = []
    idle_raises = []

    def counting_fill(rows, level, capacity, per_node=None, certify=False):
        if per_node is None:
            counts["probes"] += 1
        return fill(rows, level, capacity, per_node, certify)

    def counting_prepare_row(*args):
        counts["rows"] += 1
        return prepare_row(*args)

    def counting_raise_app(app, state, assignment, current_total, residual):
        counts["raises"] += 1
        if all(residual[n] <= EPSILON for n in state.nodes_of(app.app_id)):
            idle_raises.append(app.app_id)
        return raise_app(app, state, assignment, current_total, residual)

    def counting_distribute(*args, **kwargs):
        before = dict(counts)
        result = distribute(*args, **kwargs)
        calls.append({
            "level": result.common_level,
            **{key: counts[key] - before[key] for key in counts},
        })
        return result

    with mock.patch.object(loadbalance, "_fill", counting_fill), \
            mock.patch.object(loadbalance, "_prepare_row", counting_prepare_row), \
            mock.patch.object(loadbalance, "_raise_app", counting_raise_app), \
            mock.patch.object(apc_module, "distribute_load", counting_distribute):
        simulator.run(until=40 * 600.0)
    return calls, idle_raises


def _mean(calls, key):
    return sum(call[key] for call in calls) / len(calls)


def test_share_wiring_searches_in_at_most_seven_probes(share_wiring_counts):
    """A distribution whose level lies strictly between the floor and the
    top makes at most 7 level probes on average (the plain bisection
    makes 50): its one divisible row is piecewise linear, so the search
    certifies its probes; a search trial starts from its base's level,
    and a later trial on the same node first probes the final pair its
    previous sibling's level predicts."""
    calls, _ = share_wiring_counts
    interior = [
        call for call in calls
        if NEGATIVE_INFINITY_UTILITY < call["level"] < 1.0
    ]
    assert len(interior) > 200
    assert _mean(interior, "probes") <= 7


def test_share_wiring_prepares_at_most_six_rows(share_wiring_counts):
    """A search trial takes its base's row for every app off its node,
    so a distribution prepares at most 6 rows on average of the about 13
    it places."""
    calls, _ = share_wiring_counts
    assert len(calls) > 200
    assert _mean(calls, "rows") <= 6


def test_share_wiring_raises_at_most_two_apps(share_wiring_counts):
    """Refinement calls :func:`_raise_app` at most twice per distribution
    on average: only for a row with headroom and a node with CPU left."""
    calls, _ = share_wiring_counts
    assert len(calls) > 200
    assert _mean(calls, "raises") <= 2


def test_share_wiring_raises_no_app_without_free_cpu(share_wiring_counts):
    """No :func:`_raise_app` call for an app none of whose nodes has more
    than ``EPSILON`` free: it could take nothing there."""
    calls, idle_raises = share_wiring_counts
    assert sum(call["raises"] for call in calls) > 0
    assert idle_raises == []


@settings(max_examples=300, deadline=None)
@given(st.one_of(problems(), share_problems()))
def test_refinement_raises_only_apps_with_free_cpu(problem):
    """On any mix, refinement calls :func:`_raise_app` only for an app
    with a node that has more than ``EPSILON`` free, and the result is
    the probe loop's."""
    state, apps = problem
    ref_state = state.copy()
    expected = _exact(reference_distribute_load(ref_state, apps), ref_state)
    raise_app = loadbalance._raise_app

    def spy(app, state, assignment, current_total, residual):
        assert any(residual[n] > EPSILON for n in state.nodes_of(app.app_id))
        return raise_app(app, state, assignment, current_total, residual)

    got_state = state.copy()
    with mock.patch.object(loadbalance, "_raise_app", spy):
        got = distribute_load(got_state, apps)
    assert _exact(got, got_state) == expected


def test_links_that_fit_at_the_top_cost_one_probe():
    apps = {"a0": _job_spec("a0", 1000.0), "a1": _job_spec("a1", 500.0)}
    state = _one_node(4000.0, ["a0", "a1"])
    got, probes = _counting_probes(state, apps)
    assert got.common_level == 1.0
    assert probes == [True]
