"""The production controller must decide exactly as the paper-literal
reference solver in :mod:`tests.reference_apc` — same placements, every
cycle — while doing less work (short-circuits, churn by delta, the load
written only for adopted placements).

Both sides run through the rolling-cycle loop ``repro bench`` times
(:func:`tests.reference_apc.run_cycles`); identity is asserted on the
full per-cycle placement matrices, load matrices, allocations and
utilities.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import ApplicationPlacementController, lrpf_order
from repro.core.constraints import (
    AntiCollocation,
    Collocation,
    ConstraintSet,
    MaxInstancesPerNode,
    PinToNodes,
)
from repro.core.loadbalance import AllocatableApp
from repro.core.objective import Objective
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import LinearRPF
from repro.experiments.benchmark import _bench_scenario
from repro.experiments.common import Scale
from repro.experiments.experiment3 import make_txn_app
from repro.obs.registry import MetricRegistry
from repro.scenario import Scenario

from tests.reference_apc import ReferenceController, run_cycles


def _identity_case(scenario, cycles, **kwargs):
    reference = run_cycles(scenario, cycles, reference=True, **kwargs)
    production = run_cycles(scenario, cycles, reference=False, **kwargs)
    assert production == reference


@pytest.mark.parametrize("seed", [7, 11])
def test_identity_saturated_mixed_50_nodes(seed):
    """The benchmark's own regime: saturated mixed-class workload where
    the full search actually runs."""
    _identity_case(_bench_scenario(50, seed), cycles=8)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("nodes", [10, 25])
def test_identity_saturated_mixed_small_rungs(nodes, seed):
    """The ladder's two smallest rungs."""
    _identity_case(_bench_scenario(nodes, seed), cycles=8)


def test_identity_identical_jobs_50_nodes():
    """Experiment One's regime: identical jobs, where the controller's
    internal shortcut skips the search on most cycles."""
    scenario = Scenario(
        name="ident-e1",
        nodes=50,
        workload="experiment1",
        job_count=200,
        interarrival=120.0,
        seed=5,
        queue_window=48,
    )
    _identity_case(scenario, cycles=8)


def _counter_total(registry, name, **labels):
    total = 0.0
    for sample in registry.collect():
        if sample["name"] != name or sample.get("kind") != "counter":
            continue
        sample_labels = sample.get("labels") or {}
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


#: A deeply saturated small cluster: the search adopts trials on several
#: nodes of one sweep, and each adopted trial carries its churn into the
#: trials built from it.
DENSE_SCENARIO = Scenario(
    name="dense-regime",
    nodes=5,
    workload="experiment2",
    job_count=40,
    interarrival=10.0,
    seed=7,
    queue_window=16,
)


def test_identity_dense_regime():
    """Identity must survive a saturated cluster, where the search
    adopts several trials per cycle and churn accumulates over
    adoptions."""
    reference = run_cycles(DENSE_SCENARIO, 8, reference=True)
    production = run_cycles(DENSE_SCENARIO, 8, reference=False)
    assert production == reference


def test_delta_churn_equals_full_diff(monkeypatch):
    """Every scored candidate's churn (its base's churn plus its change
    on one node) equals the full diff of its placement against the
    cycle's baseline, the placement the incumbent is scored on."""
    import repro.core.apc as apc_module
    from repro.virt.actions import diff_placements

    scenario = DENSE_SCENARIO
    cluster = scenario.build_cluster()
    queue = JobQueue()
    model = BatchWorkloadModel(queue, queue_window=scenario.queue_window)
    controller = ApplicationPlacementController(cluster, scenario.apc)
    scored = []
    distribute = apc_module.distribute_load
    score = Objective.score

    def recording_distribute(state, *args, **kwargs):
        scored.append([state.as_matrix()])
        return distribute(state, *args, **kwargs)

    def recording_score(objective, utilities, churn, tolerance):
        scored[-1].append(churn)
        return score(objective, utilities, churn, tolerance)

    monkeypatch.setattr(apc_module, "distribute_load", recording_distribute)
    monkeypatch.setattr(Objective, "score", recording_score)
    state = PlacementState(cluster)
    pending = sorted(scenario.build_jobs(), key=lambda j: j.submit_time)
    now, checked = 0.0, 0
    for _ in range(6):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        scored.clear()
        result = controller.place([model], state, now)
        baseline = scored[0][0]
        for matrix, churn in scored:
            removals, additions = diff_placements(baseline, matrix)
            assert churn == sum(c for *_, c in removals + additions)
            checked += churn > 0
        removals, additions = diff_placements(baseline, result.state.as_matrix())
        assert result.score.num_changes == sum(c for *_, c in removals + additions)
        assert result.changed == (result.state.as_matrix() != baseline)
        state = result.state
        now += 600.0
    assert checked > 0


def test_identity_underloaded_small_cluster():
    scenario = Scenario(
        name="ident-small",
        nodes=5,
        workload="experiment2",
        job_count=10,
        interarrival=900.0,
        seed=2,
        queue_window=48,
    )
    _identity_case(scenario, cycles=6)


def test_fast_path_actually_engages():
    """Short-circuits are observable: the speedup is not an accident of
    the workload."""
    scenario = DENSE_SCENARIO
    cluster = scenario.build_cluster()
    queue = JobQueue()
    model = BatchWorkloadModel(queue, queue_window=scenario.queue_window)
    registry = MetricRegistry()
    controller = ApplicationPlacementController(
        cluster, scenario.apc, registry=registry
    )
    state = PlacementState(cluster)
    pending = sorted(scenario.build_jobs(), key=lambda j: j.submit_time)
    now, horizon = 0.0, 600.0
    for _ in range(6):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        result = controller.place([model], state, now)
        state = result.state
        now += horizon
    shortcuts = _counter_total(registry, "repro_apc_shortcircuit_total")
    assert shortcuts > 0


# ----------------------------------------------------------------------
# Decision flight recorder
# ----------------------------------------------------------------------
#: :data:`DENSE_SCENARIO`'s saturation on 16 nodes.
SIXTEEN_NODE_SCENARIO = replace(
    DENSE_SCENARIO,
    name="sixteen-node-regime",
    nodes=16,
    job_count=160,
    interarrival=2.0,
    queue_window=48,
)


@pytest.mark.parametrize("sixteen_nodes", [False, True])
def test_audit_attachment_never_changes_placements(sixteen_nodes):
    from repro.obs.audit import DecisionAudit

    scenario = SIXTEEN_NODE_SCENARIO if sixteen_nodes else DENSE_SCENARIO
    plain = run_cycles(scenario, 6, reference=False)
    audit = DecisionAudit()
    audited = run_cycles(scenario, 6, reference=False, audit=audit)
    assert plain == audited
    assert len(audit) > 0


def test_audit_counts_every_scored_candidate():
    """With no evaluation memo, every scored candidate is one evaluation:
    the cycle summary counts exactly the candidates the audit recorded,
    and none carries the retired ``cached`` flag."""
    from repro.obs.audit import DecisionAudit

    audit = DecisionAudit()
    run_cycles(DENSE_SCENARIO, 6, reference=False, audit=audit)
    for cycle in audit.cycles():
        records = audit.records_for(cycle)
        scored = [
            r for r in records
            if r["type"] == "audit_candidate" and r["utilities"]
        ]
        (summary,) = [r for r in records if r["type"] == "audit_cycle"]
        assert "cache_hits" not in summary
        assert all("cached" not in r for r in scored)
        # The incumbent's own evaluation is the one not recorded.
        assert summary["evaluations"] == len(scored) + 1


# ----------------------------------------------------------------------
# Placement constraints
# ----------------------------------------------------------------------
def _constraint(draw, app_ids, node_names):
    kind = draw(st.sampled_from(["pin", "anti", "colo", "cap"]))
    app = draw(st.sampled_from(app_ids))
    if kind == "pin":
        nodes = draw(st.lists(st.sampled_from(node_names), max_size=3))
        return PinToNodes(app, nodes)
    if kind == "cap":
        return MaxInstancesPerNode(app, draw(st.sampled_from([0, 1])))
    other = draw(st.sampled_from([a for a in app_ids if a != app]))
    return AntiCollocation(app, other) if kind == "anti" else Collocation(app, other)


@st.composite
def constrained_cases(draw):
    nodes = draw(st.integers(min_value=2, max_value=6))
    job_count = draw(st.integers(min_value=3, max_value=10))
    scenario = Scenario(
        name="constrained",
        nodes=nodes,
        workload=draw(st.sampled_from(["experiment1", "experiment2"])),
        job_count=job_count,
        interarrival=draw(st.sampled_from([30.0, 90.0, 300.0])),
        seed=draw(st.integers(min_value=0, max_value=99)),
        queue_window=draw(st.sampled_from([None, 4])),
    )
    txn_apps = []
    if draw(st.booleans()):
        txn_apps.append(make_txn_app(Scale("constrained", nodes, job_count)))
    app_ids = [job.job_id for job in scenario.build_jobs()]
    app_ids += [app.app_id for app in txn_apps]
    names = list(scenario.build_cluster().node_names)
    constraints = [
        _constraint(draw, app_ids, names)
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    cycles = draw(st.integers(min_value=4, max_value=6))
    return scenario, txn_apps, ConstraintSet(constraints), cycles


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=constrained_cases())
def test_identity_under_random_placement_constraints(case):
    """Admission and the no-op-node check test constraints on the live
    state exactly as the reference's per-pair rescans do."""
    scenario, txn_apps, constraints, cycles = case
    _identity_case(scenario, cycles, constraints=constraints, txn_apps=txn_apps)


def test_identity_under_constraints_on_20_nodes():
    """A constrained 20-node cluster, beside a divisible transactional
    app."""
    scenario = _bench_scenario(20, seed=7)
    jobs = [job.job_id for job in scenario.build_jobs()]
    nodes = list(scenario.build_cluster().node_names)
    constraints = ConstraintSet(
        [
            PinToNodes("TX", nodes[:12]),
            MaxInstancesPerNode("TX", 1),
            AntiCollocation("TX", jobs[0]),
            AntiCollocation(jobs[1], jobs[2]),
            Collocation(jobs[3], jobs[4]),
            PinToNodes(jobs[5], nodes[-2:]),
            MaxInstancesPerNode(jobs[6], 0),
        ]
    )
    txn_app = make_txn_app(Scale("constrained-20", 20, len(jobs)))
    _identity_case(
        scenario, cycles=8, constraints=constraints, txn_apps=[txn_app]
    )


@st.composite
def admission_cases(draw):
    """One admission pass over a cluster with busy, loaded and failed
    nodes, and candidates of mixed memory and minimum speed (the
    generated workloads give every job the same demand).  Integral
    demands keep the running sums and the reference's fresh re-reads
    equal."""
    names = [f"n{i}" for i in range(draw(st.integers(min_value=2, max_value=6)))]
    cluster = Cluster.homogeneous(
        len(names), cpu_capacity=15_600.0, memory_capacity=16_384.0,
        cpu_per_processor=3_900.0, name_prefix="n",
    )
    specs = {}
    state = PlacementState(cluster)
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        app = f"p{i}"
        demand = AppDemand(
            app_id=app,
            memory_mb=draw(st.sampled_from([2_048.0, 4_320.0, 6_000.0])),
            min_cpu_mhz=draw(st.sampled_from([0.0, 1_000.0, 3_900.0])),
        )
        node = draw(st.sampled_from(names))
        if demand.memory_mb <= state.memory_available(node):
            state.place(app, node, demand.memory_mb)
            state.set_cpu(app, node, min(
                draw(st.sampled_from([0.0, 3_900.0, 7_800.0])),
                state.cpu_available(node),
            ))
            specs[app] = AllocatableApp(demand, LinearRPF(1e-4, -1.0))
    for node in cluster:
        if not state.apps_on(node.name) and draw(st.integers(0, 4)) == 0:
            node.available = False
    candidates = []
    for i in range(draw(st.integers(min_value=1, max_value=10))):
        app = f"c{i}"
        divisible = draw(st.integers(0, 4)) == 0
        demand = AppDemand(
            app_id=app,
            memory_mb=draw(st.sampled_from([512.0, 2_048.0, 4_320.0, 8_192.0])),
            min_cpu_mhz=draw(st.sampled_from([0.0, 1_000.0, 3_900.0, 9_000.0])),
            max_instances=draw(st.sampled_from([None, 2, 3])) if divisible else 1,
            divisible=divisible,
        )
        specs[app] = AllocatableApp(demand, LinearRPF(1e-4, -1.0))
        candidates.append(app)
    utilities = {
        app: draw(st.sampled_from([-1.0, -0.5, 0.0]))
        for app in candidates
        if draw(st.booleans())
    }
    constraints = ConstraintSet(
        [
            _constraint(draw, list(specs), names)
            for _ in range(draw(st.sampled_from([0, 0, 1, 2])))
        ]
        if len(specs) > 1
        else []
    )
    return cluster, state, specs, candidates, utilities, constraints


@settings(max_examples=300, deadline=None)
@given(case=admission_cases())
def test_admission_matches_the_reference_with_mixed_demands(case):
    """Each singleton lands on the node the reference's fresh per-pair
    checks choose, after nodes full for some demand left the walk, and
    each divisible application on the same nodes."""
    cluster, state, specs, candidates, utilities, constraints = case
    production = state.copy()
    reference = state.copy()
    ApplicationPlacementController(cluster, constraints=constraints)._greedy_admit(
        production, specs, candidates, utilities
    )
    ReferenceController(cluster, constraints=constraints)._admit(
        reference, specs, candidates, utilities
    )
    assert json.dumps(production.to_dict()) == json.dumps(reference.to_dict())


def test_noop_check_skips_nodes_closed_by_constraints():
    """Every job is pinned to the first two nodes, so the fill pass can
    add nothing to the other two however free they are.  The no-op check
    sees that without copying the state: those nodes' zero-removal
    trials are recorded as ``node_noop`` short-circuits."""
    from repro.obs.audit import DecisionAudit

    scenario = DENSE_SCENARIO
    jobs = [job.job_id for job in scenario.build_jobs()]
    constraints = ConstraintSet(PinToNodes(j, ["node0", "node1"]) for j in jobs)
    audit = DecisionAudit()
    production = run_cycles(
        scenario, 6, reference=False, constraints=constraints, audit=audit
    )
    assert production == run_cycles(
        scenario, 6, reference=True, constraints=constraints
    )
    skipped = {
        r.get("node") for r in audit.records if r.get("reason") == "node_noop"
    }
    assert {"node2", "node3"} <= skipped



# ----------------------------------------------------------------------
# Work a search trial reuses from its base
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(SIXTEEN_NODE_SCENARIO, id="16-nodes"),
        pytest.param(DENSE_SCENARIO, id="rows-5-nodes"),
    ],
)
def test_every_search_trial_derives_from_its_base(monkeypatch, scenario):
    """Where every job is a single-node link at the top level, each
    search trial's distribution is built from its base's result and its
    node's chain, on 16 nodes and on 5.  A silent
    fall back to the full path decides the same, so only a count can
    see it."""
    import repro.core.apc as apc_module
    import repro.core.loadbalance as loadbalance

    trials, derived = [], []
    distribute = apc_module.distribute_load
    derive = loadbalance._derive_from_base

    def counting_distribute(state, *args, **kwargs):
        if kwargs.get("base") is not None:
            trials.append(kwargs["node"])
        return distribute(state, *args, **kwargs)

    def counting_derive(*args):
        result = derive(*args)
        if result is not None:
            derived.append(result)
        return result

    monkeypatch.setattr(apc_module, "distribute_load", counting_distribute)
    monkeypatch.setattr(loadbalance, "_derive_from_base", counting_derive)
    run_cycles(scenario, 6, reference=False)
    assert trials
    assert len(derived) == len(trials)


def _old_fill_list(trial, specs, candidates, utilities, node, forbidden):
    """The inner loop's list as ``_fill_node`` computed it per trial,
    from the trial after its removals."""
    eligible = [
        c
        for c in candidates
        if c in specs
        and c not in forbidden
        and (specs[c].demand.divisible or not trial.is_placed(c))
        and trial.instances_on(c, node) == 0
    ]
    return lrpf_order(eligible, specs, utilities)


def _search_bases(case):
    """Every state a constrained run starts a search from, with its
    controller and the cycle's specs, candidates and utilities."""
    scenario, txn_apps, constraints, cycles = case
    bases = []
    worthwhile = ApplicationPlacementController._search_is_worthwhile

    def capture(self, state, specs, candidates, utilities, allocations):
        bases.append((self, state.copy(), specs, list(candidates), utilities))
        return worthwhile(self, state, specs, candidates, utilities, allocations)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ApplicationPlacementController, "_search_is_worthwhile", capture
        )
        run_cycles(
            scenario, cycles, reference=False, constraints=constraints,
            txn_apps=txn_apps,
        )
    return bases


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=constrained_cases())
def test_fill_order_is_the_same_for_every_removal_count(case):
    """The LRPF fill order built once per node from its base state is
    the list every trial of the node computed for itself, whatever it
    removed, on the states a constrained run searches from."""
    bases = _search_bases(case)
    assert bases
    for controller, base, specs, candidates, utilities in bases:
        for node in base.cluster.node_names:
            removable = []
            for app_id in sorted(
                base.apps_on(node),
                key=lambda a: utilities.get(a, float("-inf")),
                reverse=True,
            ):
                removable.extend([app_id] * base.instances_on(app_id, node))
            hoisted = controller._fill_order(
                base, specs, candidates, utilities, node
            )
            for removals in range(len(removable) + 1):
                trial = base.copy()
                for app_id in removable[:removals]:
                    trial.remove(app_id, node)
                assert hoisted == _old_fill_list(
                    trial, specs, candidates, utilities, node,
                    set(removable[:removals]),
                )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=constrained_cases())
def test_zero_removal_skip_is_the_fill_pass_answer(case):
    """The sweep skips a node's zero-removal trial exactly when the fill
    pass, run on a copy of the node's base, places nothing there."""
    bases = _search_bases(case)
    assert bases
    for controller, base, specs, candidates, utilities in bases:
        for node in base.cluster.node_names:
            order = controller._fill_order(
                base, specs, candidates, utilities, node
            )
            filled = controller._fill_node(base.copy(), specs, node, order)
            assert controller._fills_nothing(base, specs, node, order) == (
                not filled
            )
