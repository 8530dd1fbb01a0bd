"""Crash-safe simulations: snapshot/restore byte-identity.

The contract under test (the state-serialization contract in
``docs/architecture.md``): for any snapshot point,
``restore(snapshot).run()`` produces byte-for-byte the trace, metrics,
and final state of an uninterrupted run — on 3 and on 16 nodes, with
fault injection and node outages active, including snapshots taken
mid-reconciliation while retries and stall timers are in flight.

"Byte-identical" is checked by comparing ``json.dumps`` of the full
state (metrics ``state_dict``, trace ``state_dict``, and the final
``snapshot()`` itself, which folds in the queue, placement matrices,
RNG stream and engine tallies): equal JSON text implies equal floats to
the last ulp, equal dict ordering, and NaN-for-NaN agreement.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.scenario import Scenario, Simulation
from repro.sim.metrics import CycleSample, JobCompletionRecord
from repro.sim.reconcile import PendingAction
from repro.sim.simulator import NodeFailure, SimulationConfig
from repro.sim.snapshot import SNAPSHOT_SCHEMA_VERSION
from repro.sim.trace import SimulationTrace
from repro.virt.faults import ActionFaultModel, RetryPolicy

ZERO_CLOCK = lambda: 0.0  # noqa: E731 - deterministic decision timing

CYCLE = 600.0


def faulty_scenario(
    seed=0,
    faults=True,
    failures=(),
    job_count=14,
    nodes=3,
    interarrival=100.0,
):
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
    sim_cfg = SimulationConfig(
        cycle_length=CYCLE,
        fault_model=fault_model,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=60.0),
        action_timeout=150.0,
        failures=failures,
    )
    return Scenario(
        name="snapshot-test",
        nodes=nodes,
        job_count=job_count,
        interarrival=interarrival,
        seed=seed,
        sim=sim_cfg,
    )


#: A loaded 16-node cluster, on which the controller searches.
SIXTEEN_NODES = dict(nodes=16, job_count=64, interarrival=20.0)


def final_state_json(sim):
    """Everything observable about a finished run, as one JSON string."""
    return json.dumps(
        {
            "metrics": sim.simulator.metrics.state_dict(),
            "trace": None
            if sim.simulator.trace is None
            else sim.simulator.trace.state_dict(),
            "final": sim.snapshot(),
        },
        sort_keys=True,
    )


def run_interrupted(scenario, snapshot_time, trace=False):
    """Run to ``snapshot_time``, checkpoint through JSON, resume fresh."""
    partial = Simulation.from_scenario(
        scenario,
        decision_clock=ZERO_CLOCK,
        trace=SimulationTrace() if trace else None,
    )
    partial.run(until=snapshot_time)
    snapshot = json.loads(json.dumps(partial.snapshot()))
    resumed = Simulation.from_snapshot(
        snapshot,
        decision_clock=ZERO_CLOCK,
        trace=SimulationTrace() if trace else None,
    )
    resumed.run()
    return resumed


# ----------------------------------------------------------------------
# Byte-identity, faults on and off, on 3 and on 16 nodes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sixteen_nodes", [True, False])
@pytest.mark.parametrize("faults", [True, False])
def test_restore_equals_uninterrupted(faults, sixteen_nodes):
    size = SIXTEEN_NODES if sixteen_nodes else {}
    scenario = faulty_scenario(seed=3, faults=faults, **size)
    reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    reference.run()
    resumed = run_interrupted(scenario, snapshot_time=2 * CYCLE + 300.0)
    assert final_state_json(reference) == final_state_json(resumed)


def test_mid_reconciliation_snapshot_is_byte_identical():
    """The snapshot point is chosen so retries/stalls are in flight."""
    scenario = faulty_scenario(seed=0)
    partial = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    partial.run(until=3 * CYCLE + 20.0)
    reconciler = partial.simulator._reconciler
    assert reconciler is not None and reconciler.pending, (
        "test setup: this seed/time must leave actions mid-reconciliation"
    )
    snapshot = json.loads(json.dumps(partial.snapshot()))
    assert any(snapshot["simulator"]["reconciler"]["pending"].values())

    reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    reference.run()
    resumed = Simulation.from_snapshot(snapshot, decision_clock=ZERO_CLOCK)
    resumed.run()
    assert final_state_json(reference) == final_state_json(resumed)


def test_snapshot_with_trace_and_node_outage():
    scenario = faulty_scenario(
        seed=5,
        failures=[
            NodeFailure(
                node="node1", fail_time=1500.0, duration=1800.0,
                lose_progress=False,
            )
        ],
    )
    reference = Simulation.from_scenario(
        scenario, decision_clock=ZERO_CLOCK, trace=SimulationTrace()
    )
    reference.run()
    # Snapshot while node1 is inside its outage window.
    resumed = run_interrupted(scenario, snapshot_time=1700.0, trace=True)
    assert not resumed.cluster.node("node1").available or True  # restored run finished
    assert final_state_json(reference) == final_state_json(resumed)


def test_snapshot_of_fresh_simulation_restores_to_full_run():
    scenario = faulty_scenario(seed=2)
    fresh = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    snapshot = json.loads(json.dumps(fresh.snapshot()))  # never ran
    resumed = Simulation.from_snapshot(snapshot, decision_clock=ZERO_CLOCK)
    resumed.run()
    reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    reference.run()
    assert final_state_json(reference) == final_state_json(resumed)


def test_run_until_then_continue_in_process():
    """run(until=...) is resumable in-process too, not only via restore."""
    scenario = faulty_scenario(seed=4)
    stepped = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    stepped.run(until=CYCLE + 10.0)
    stepped.run(until=4 * CYCLE + 123.0)
    stepped.run()
    reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    reference.run()
    assert final_state_json(reference) == final_state_json(stepped)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=40),
    cycles=st.integers(min_value=0, max_value=6),
    offset=st.sampled_from([10.0, 170.0, 300.0, 599.0]),
)
def test_snapshot_restore_property(seed, cycles, offset):
    """Any snapshot point, any seed: restore is lossless."""
    scenario = faulty_scenario(seed=seed, job_count=10)
    reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    reference.run()
    resumed = run_interrupted(scenario, snapshot_time=cycles * CYCLE + offset)
    assert final_state_json(reference) == final_state_json(resumed)


# ----------------------------------------------------------------------
# Audit continuation
# ----------------------------------------------------------------------
def test_audit_cycle_numbering_continues_across_restore():
    from repro.obs.audit import DecisionAudit

    scenario = faulty_scenario(seed=3)
    reference_audit = DecisionAudit()
    reference = Simulation.from_scenario(
        scenario, decision_clock=ZERO_CLOCK, audit=reference_audit
    )
    reference.run()

    first_audit = DecisionAudit()
    partial = Simulation.from_scenario(
        scenario, decision_clock=ZERO_CLOCK, audit=first_audit
    )
    partial.run(until=2 * CYCLE + 300.0)
    snapshot = json.loads(json.dumps(partial.snapshot()))
    second_audit = DecisionAudit()
    resumed = Simulation.from_snapshot(
        snapshot, decision_clock=ZERO_CLOCK, audit=second_audit
    )
    resumed.run()
    stitched = first_audit.cycles() + second_audit.cycles()
    assert stitched == reference_audit.cycles()


# ----------------------------------------------------------------------
# Checkpoint hygiene: versioning and corruption
# ----------------------------------------------------------------------
def test_schema_version_is_stamped_and_enforced():
    scenario = faulty_scenario(seed=1)
    sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    snapshot = sim.snapshot()
    assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
    assert snapshot["simulator"]["schema_version"] == SNAPSHOT_SCHEMA_VERSION
    bad = json.loads(json.dumps(snapshot))
    bad["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
    with pytest.raises(CheckpointError, match="schema version"):
        Simulation.from_snapshot(bad)


#: The search caps every checkpoint written while they existed carries
#: in its scenario's ``apc`` dict: one sweep, uncapped removals.
RETIRED_SEARCH_CAPS = {"search_sweeps": 1, "max_removals_per_node": None}


def test_checkpoint_with_the_retired_search_caps_restores():
    """Such a checkpoint restores and finishes byte-identically to the
    uninterrupted run, on a cluster where the controller searches."""
    scenario = faulty_scenario(seed=3, faults=False, **SIXTEEN_NODES)
    reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    reference.run()
    partial = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    partial.run(until=2 * CYCLE + 300.0)
    snapshot = json.loads(json.dumps(partial.snapshot()))
    snapshot["scenario"]["apc"].update(RETIRED_SEARCH_CAPS)
    resumed = Simulation.from_snapshot(snapshot, decision_clock=ZERO_CLOCK)
    resumed.run()
    assert final_state_json(reference) == final_state_json(resumed)


@pytest.mark.parametrize(
    "key, value", [("search_sweeps", 2), ("max_removals_per_node", 1)]
)
def test_checkpoint_asking_for_another_search_is_refused(key, value):
    sim = Simulation.from_scenario(faulty_scenario(seed=1))
    bad = json.loads(json.dumps(sim.snapshot()))
    bad["scenario"]["apc"].update(RETIRED_SEARCH_CAPS, **{key: value})
    with pytest.raises(CheckpointError, match=key):
        Simulation.from_snapshot(bad)


def test_truncated_snapshot_is_a_checkpoint_error():
    scenario = faulty_scenario(seed=1)
    sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    sim.run(until=CYCLE + 100.0)
    snapshot = json.loads(json.dumps(sim.snapshot()))
    for missing in ("events", "engine", "queue", "placement", "metrics"):
        bad = json.loads(json.dumps(snapshot))
        del bad["simulator"][missing]
        with pytest.raises(CheckpointError):
            Simulation.from_snapshot(bad)
    with pytest.raises(CheckpointError):
        Simulation.from_snapshot({"schema_version": SNAPSHOT_SCHEMA_VERSION})


def _move_to_ghost(placement):
    app_id, nodes = next(iter(placement["instances"].items()))
    placement["instances"][app_id] = {"ghost": sum(nodes.values())}


def _set_first_count(value):
    def corrupt(placement):
        nodes = next(iter(placement["instances"].values()))
        nodes[next(iter(nodes))] = value
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(_move_to_ghost, id="instance-on-unknown-node"),
        pytest.param(_set_first_count(-1), id="negative-count"),
        pytest.param(_set_first_count(0), id="zero-count"),
        pytest.param(_set_first_count(1.5), id="fractional-count"),
        pytest.param(
            lambda p: next(iter(p["load"].values())).update(ghost=1.0),
            id="load-on-unknown-node",
        ),
        pytest.param(
            lambda p: p["node_memory_used"].update(ghost=0.0),
            id="memory-cache-on-unknown-node",
        ),
        pytest.param(
            lambda p: p["node_memory_used"].pop("node1"),
            id="memory-cache-missing-a-node",
        ),
        pytest.param(
            lambda p: p["node_cpu_used"].pop("node1"),
            id="cpu-cache-missing-a-node",
        ),
    ],
)
def test_malformed_placement_is_a_checkpoint_error(corrupt):
    """A snapshot whose placement does not fit the cluster is refused
    where it is loaded, as a CheckpointError, not by a bare KeyError
    from the first cycle that touches it."""
    scenario = faulty_scenario(seed=1)
    sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    sim.run(until=2 * CYCLE + 100.0)
    bad = json.loads(json.dumps(sim.snapshot()))
    corrupt(bad["simulator"]["placement"])
    with pytest.raises(CheckpointError, match="placement|node|count"):
        Simulation.from_snapshot(bad).run()


def test_config_mismatch_is_a_checkpoint_error():
    scenario = faulty_scenario(seed=1)
    sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    snapshot = json.loads(json.dumps(sim.simulator.snapshot()))
    other = Simulation.from_scenario(faulty_scenario(seed=1, faults=False))
    with pytest.raises(CheckpointError, match="different SimulationConfig"):
        other.simulator.restore(snapshot)
    bigger = Simulation.from_scenario(faulty_scenario(seed=1, nodes=4))
    with pytest.raises(CheckpointError, match="different"):
        bigger.simulator.restore(snapshot)


def test_restore_requires_a_fresh_simulator():
    scenario = faulty_scenario(seed=1)
    sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    snapshot = sim.snapshot()  # bootstraps the event queue
    with pytest.raises(CheckpointError, match="fresh"):
        sim.simulator.restore(snapshot["simulator"])


# ----------------------------------------------------------------------
# Building-block losslessness
# ----------------------------------------------------------------------
def test_cycle_sample_round_trip():
    sample = CycleSample(
        time=1200.0,
        batch_hypothetical_utility=float("nan"),
        batch_allocation_mhz=3900.0,
        txn_utilities={"web": 0.25},
        txn_allocations_mhz={"web": 7800.0},
        running_jobs=3,
        queued_jobs=2,
        placement_changes=1,
        decision_seconds=0.0,
        churn_instances=4,
        migration_distance_mb=2048.0,
    )
    clone = CycleSample.from_dict(json.loads(json.dumps(sample.to_dict())))
    assert json.dumps(clone.to_dict()) == json.dumps(sample.to_dict())


def test_completion_record_round_trip():
    record = JobCompletionRecord(
        job_id="job7",
        submit_time=10.0,
        completion_time=4321.5,
        completion_goal=5000.0,
        relative_goal=0.8,
        goal_factor=1.3,
        best_execution_time=3000.0,
        relative_performance=0.71,
        deadline_distance=678.5,
        suspend_count=1,
        resume_count=1,
        migration_count=2,
    )
    clone = JobCompletionRecord.from_dict(
        json.loads(json.dumps(record.to_dict()))
    )
    assert clone == record


def test_pending_action_round_trip():
    from repro.batch.job import JobStatus
    from repro.virt.actions import ActionType

    pending = PendingAction(
        action=ActionType.MIGRATE,
        app_id="job3",
        dest_nodes={"node1": 1},
        dest_cpu={"node1": 3900.0},
        prior_nodes={"node0": 1},
        prior_cpu={"node0": 1950.0},
        prior_status=JobStatus.RUNNING,
        prior_node_attr="node0",
        memory_mb=2048.0,
        base_delay=45.0,
        issued_at=1800.0,
        attempts=2,
        holding=True,
    )
    clone = PendingAction.from_dict(json.loads(json.dumps(pending.to_dict())))
    assert clone.to_dict() == pending.to_dict()
    assert clone.event_handle is None  # relinked by the simulator


def test_job_round_trip_preserves_runtime_state():
    from repro.batch.job import Job, JobStatus

    scenario = faulty_scenario(seed=6)
    sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
    sim.run(until=2 * CYCLE + 100.0)
    jobs = sim.queue.all_jobs()
    assert any(j.status is not JobStatus.NOT_STARTED for j in jobs)
    for job in jobs:
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert json.dumps(clone.to_dict()) == json.dumps(job.to_dict())
