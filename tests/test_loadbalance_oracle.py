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
the call without them.
"""

import dataclasses
from typing import Dict, Mapping, Optional

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
def test_share_wiring_prepares_every_job_row_as_a_link(monkeypatch):
    """perfbench's ``share`` wiring, the transactional app beside
    Experiment One jobs on 4 nodes: every job row the distributor
    prepares is a link, whose target :func:`_fill` works out in
    closed form, and the divisible transactional row is not."""
    scale = Scale("share", nodes=4, job_count=40, queue_window=8)
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
