"""The production controller and batch model — admission in free-CPU
order, short-circuits, deferred load writes — must be *byte-identical*
to the paper-literal reference solver (:mod:`tests.reference_apc`) in
full simulations: same metrics, same trace, same final snapshot, with
faults and checkpoint/restore active and on the §5.3 sharing
configuration.

Also pinned here:

* a hypothesis property: random placement edit sequences, ``set_cpu``
  with continuous floats among them, leave a state and its copy that
  pass ``validate()``;
* the :class:`~repro.core.objective.UtilityVector` sort order.
"""

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core import loadbalance
from repro.core.apc import (
    SPAN_PHASES,
    APCConfig,
    ApplicationPlacementController,
)
from repro.core.objective import UtilityVector
from repro.core.placement import PlacementState
from repro.errors import CapacityError, PlacementError
from repro.experiments.common import Scale
from repro.experiments.experiment3 import make_txn_app
from repro.obs.spans import SpanProfiler
from repro.policies import APCPolicy
from repro.scenario import Scenario, Simulation
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.sim.trace import SimulationTrace
from repro.txn.model import TransactionalWorkloadModel
from repro.virt.faults import ActionFaultModel, RetryPolicy
from repro.workloads.generators import experiment_one_jobs

from tests.reference_apc import (
    ReferenceBatchModel,
    ReferenceController,
    reference_simulation,
)

ZERO_CLOCK = lambda: 0.0  # noqa: E731 - deterministic decision timing

CYCLE = 600.0


def fault_scenario(
    *, faults=True, seed=0, nodes=3, job_count=14, interarrival=100.0
):
    """test_snapshot's fault-injected scenario, on 3 nodes by default."""
    fault_model = (
        ActionFaultModel.uniform(
            failure_probability=0.45,
            stall_probability=0.3,
            stall_duration_mean=400.0,
            seed=seed,
        )
        if faults
        else None
    )
    return Scenario(
        name="vec-core-test",
        nodes=nodes,
        job_count=job_count,
        interarrival=interarrival,
        seed=seed,
        sim=SimulationConfig(
            cycle_length=CYCLE,
            fault_model=fault_model,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=60.0),
            action_timeout=150.0,
        ),
    )


#: A loaded 16-node cluster, on which the controller searches.
SIXTEEN_NODES = dict(nodes=16, job_count=64, interarrival=20.0)


def metrics_and_trace(simulator):
    """A finished simulator's metrics and text trace, as plain data."""
    return {
        "metrics": simulator.metrics.state_dict(),
        "trace": None
        if simulator.trace is None
        else simulator.trace.state_dict(),
    }


def final_state_json(sim):
    """Everything observable about a finished run, as one JSON string."""
    return json.dumps(
        {**metrics_and_trace(sim.simulator), "final": sim.snapshot()},
        sort_keys=True,
    )


def run_full(scenario, *, reference=False):
    if reference:
        sim = reference_simulation(
            scenario, decision_clock=ZERO_CLOCK, trace=SimulationTrace()
        )
    else:
        sim = Simulation.from_scenario(
            scenario, decision_clock=ZERO_CLOCK, trace=SimulationTrace()
        )
    sim.run()
    return sim


# ----------------------------------------------------------------------
# Full-simulation byte-identity, production vs reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sixteen_nodes", [True, False])
@pytest.mark.parametrize("faults", [True, False])
def test_vectorized_run_is_byte_identical_to_scalar(faults, sixteen_nodes):
    """Metrics, trace, queue, placement matrices and RNG stream of a
    whole production run (admission, short-circuits) equal the
    scalar reference solver's, with fault injection on and off, on 3
    and on 16 nodes."""
    size = SIXTEEN_NODES if sixteen_nodes else {}
    production = run_full(fault_scenario(faults=faults, **size))
    reference = run_full(fault_scenario(faults=faults, **size), reference=True)
    assert final_state_json(production) == final_state_json(reference)


def test_vectorized_snapshot_restore_matches_scalar_uninterrupted():
    """Checkpoint the production run mid-way (while retries and stall
    timers are in flight), resume it, and compare against an
    *uninterrupted reference* run: identity must hold through the
    snapshot format too."""
    partial = Simulation.from_scenario(
        fault_scenario(),
        decision_clock=ZERO_CLOCK,
        trace=SimulationTrace(),
    )
    partial.run(until=3 * CYCLE + 20.0)
    snapshot = json.loads(json.dumps(partial.snapshot()))
    resumed = Simulation.from_snapshot(
        snapshot, decision_clock=ZERO_CLOCK, trace=SimulationTrace()
    )
    resumed.run()
    reference = run_full(fault_scenario(), reference=True)
    assert final_state_json(resumed) == final_state_json(reference)


# ----------------------------------------------------------------------
# The dynamic-sharing configuration (§5.3)
# ----------------------------------------------------------------------
SHARING_SCALE = Scale("sharing-identity", nodes=3, job_count=16, queue_window=8)


def run_sharing(*, reference):
    """Experiment Three's APC configuration in small: the transactional
    app beside 16 Experiment One jobs on 3 nodes, run to drain."""
    scale = SHARING_SCALE
    cluster = scale.cluster()
    txn_app = make_txn_app(scale)
    queue = JobQueue()
    apc = APCConfig(cycle_length=CYCLE)
    profiler = SpanProfiler()
    if reference:
        batch = ReferenceBatchModel(queue, queue_window=scale.queue_window)
        controller = ReferenceController(cluster, apc)
    else:
        batch = BatchWorkloadModel(queue, queue_window=scale.queue_window)
        controller = ApplicationPlacementController(
            cluster, apc, profiler=profiler
        )
    policy = APCPolicy(controller, [TransactionalWorkloadModel([txn_app]), batch])
    simulator = MixedWorkloadSimulator(
        cluster,
        policy,
        queue,
        arrivals=experiment_one_jobs(
            count=scale.job_count,
            mean_interarrival=scale.interarrival(150.0),
            seed=3,
        ),
        txn_apps=[txn_app],
        batch_model=batch,
        config=SimulationConfig(cycle_length=CYCLE, decision_clock=ZERO_CLOCK),
        trace=SimulationTrace(),
    )
    simulator.run()
    return simulator, profiler


def test_sharing_run_is_identical_on_every_solver_path():
    """The small-cluster path the §5.3 sharing benchmark measures — the
    load distributor's links beside the transactional row, the array
    admission, the batch model's table kernels — decides exactly as the
    reference.  The production run also certifies a search trial's level
    from its previous sibling's in two probes, so that path is pinned
    too."""
    searches = []
    search = loadbalance._highest_feasible_level

    def spy(probe, start=None, guess=None):
        probes = []

        def counted(level):
            probes.append(level)
            return probe(level)

        level = search(counted, start, guess)
        searches.append((guess, level, len(probes)))
        return level

    with mock.patch.object(loadbalance, "_highest_feasible_level", spy):
        production, profiler = run_sharing(reference=False)
    assert len(production.metrics.completions) == SHARING_SCALE.job_count
    assert any(r.name == "apc.search" for r in profiler.records)
    assert any(
        guess is not None and level == guess and probes == 2
        for guess, level, probes in searches
    )
    reference, _ = run_sharing(reference=True)
    assert json.dumps(metrics_and_trace(production), sort_keys=True) == (
        json.dumps(metrics_and_trace(reference), sort_keys=True)
    )


# ----------------------------------------------------------------------
# Span phase names
# ----------------------------------------------------------------------
def test_span_phase_names_are_stable():
    """Pinned: dashboards and the ``--profile`` renderer key on these."""
    assert SPAN_PHASES == (
        "apc.place",
        "apc.model_specs",
        "apc.admission",
        "apc.search",
        "apc.evaluate",
        "apc.loadbalance",
        "apc.predict",
        "apc.objective",
    )


def test_profiled_vectorized_run_emits_only_known_phases():
    scenario = Scenario(
        name="span-vec",
        nodes=16,
        workload="experiment2",
        job_count=8 * 16,
        interarrival=30.0,
        seed=7,
        queue_window=16,
    )
    cluster = scenario.build_cluster()
    queue = JobQueue()
    model = BatchWorkloadModel(queue, queue_window=scenario.queue_window)
    profiler = SpanProfiler()
    controller = ApplicationPlacementController(
        cluster, scenario.apc, profiler=profiler
    )
    state = PlacementState(cluster)
    pending = sorted(scenario.build_jobs(), key=lambda j: j.submit_time)
    now = 0.0
    for _ in range(4):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        state = controller.place([model], state, now).state
        now += 600.0
    names = {r.name for r in profiler.records}
    assert names <= set(SPAN_PHASES)
    assert "apc.place" in names


# ----------------------------------------------------------------------
# Hypothesis: random edit sequences keep the state valid
# ----------------------------------------------------------------------
_APPS = ("a0", "a1", "a2", "a3")
_NODES = ("n0", "n1", "n2")
_MEM = {"a0": 256.0, "a1": 512.0, "a2": 1024.0, "a3": 128.0}

_op = st.one_of(
    st.tuples(
        st.just("place"),
        st.sampled_from(_APPS),
        st.sampled_from(_NODES),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(
        st.just("remove"),
        st.sampled_from(_APPS),
        st.sampled_from(_NODES),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(
        st.just("set_cpu"),
        st.sampled_from(_APPS),
        st.sampled_from(_NODES),
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    ),
    st.tuples(st.just("clear_load"), st.none(), st.none(), st.none()),
)


def _fresh_state():
    cluster = Cluster.homogeneous(
        len(_NODES),
        cpu_capacity=4000.0,
        memory_capacity=4096.0,
        name_prefix="n",
    )
    return PlacementState(cluster)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_random_edit_sequences_validate_after_every_edit_and_on_a_copy(ops):
    """validate() re-derives every cache afresh and raises on
    drift."""
    state = _fresh_state()
    for kind, app, node, arg in ops:
        try:
            if kind == "place":
                state.place(app, node, _MEM[app], count=arg)
            elif kind == "remove":
                state.remove(app, node, count=arg)
            elif kind == "set_cpu":
                state.set_cpu(app, node, arg)
            else:
                state.clear_load()
        except (PlacementError, CapacityError):
            continue  # invalid edits must leave the state untouched
        state.validate()
    state.validate()
    state.copy().validate()


# ----------------------------------------------------------------------
# UtilityVector sort order
# ----------------------------------------------------------------------
def test_utility_vector_stable_sort_matches_sorted():
    """A long vector's tuple is bitwise what ``sorted`` produces —
    including the relative order of ``-0.0`` and ``0.0``."""
    rng = random.Random(7)
    values = [rng.choice([rng.uniform(0, 1), 0.0, -0.0, 0.5]) for _ in range(700)]
    vec = UtilityVector(values)
    expected = tuple(sorted(values))
    assert vec.values == expected
    assert all(
        repr(x) == repr(y) for x, y in zip(vec.values, expected)
    )  # -0.0 vs 0.0 agree positionally
