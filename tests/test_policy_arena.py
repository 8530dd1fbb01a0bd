"""Rival policies and the tournament harness.

The rivals (proportional fairness, DFRS) must behave like first-class
citizens of the simulation stack: deterministic under fault injection,
byte-identical across snapshot/restore, and selectable by name from a
scenario.  The arena must rank deterministically on SLA outcomes with
no wall-clock field involved.
"""

import json
import math

import pytest

from repro.cluster import Cluster
from repro.core.apc import APCConfig
from repro.errors import ConfigurationError
from repro.experiments.arena import (
    ArenaEntrant,
    render_arena_table,
    run_arena,
)
from repro.policies import (
    DFRSConfig,
    ProportionalFairnessConfig,
)
from repro.policies.rivals import dfrs_assign, pf_assign, pf_speeds
from repro.scenario import Scenario, Simulation
from repro.sim.simulator import NodeFailure, SimulationConfig
from repro.virt.faults import ActionFaultModel, RetryPolicy
from tests.conftest import make_job

ZERO_CLOCK = lambda: 0.0  # noqa: E731 - deterministic decision timing

CYCLE = 600.0

RIVALS = ["proportional_fairness", "dfrs"]


def rival_scenario(policy, *, faults=True, seed=3, policy_params=None):
    """A small scenario with action faults and a node outage active."""
    fault_model = (
        ActionFaultModel.uniform(
            failure_probability=0.4,
            stall_probability=0.25,
            stall_duration_mean=300.0,
            seed=seed,
        )
        if faults
        else None
    )
    sim_cfg = SimulationConfig(
        cycle_length=CYCLE,
        fault_model=fault_model,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=60.0),
        action_timeout=150.0,
        failures=[NodeFailure("node1", fail_time=2 * CYCLE, duration=3 * CYCLE)],
    )
    return Scenario(
        name=f"rival-{policy}",
        nodes=3,
        job_count=12,
        interarrival=100.0,
        seed=seed,
        policy=policy,
        policy_params=dict(policy_params or {}),
        sim=sim_cfg,
    )


def final_state_json(sim):
    return json.dumps(
        {
            "metrics": sim.simulator.metrics.state_dict(),
            "final": sim.snapshot(),
        },
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# The rival allocation primitives
# ----------------------------------------------------------------------
class TestProportionalFairnessPrimitives:
    def test_water_filling_splits_evenly_and_caps(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=4000, memory_capacity=8000)
        jobs = {
            "slow": make_job("slow", max_speed=500),
            "fast": make_job("fast", max_speed=9000),
        }
        speeds = pf_speeds(
            {"slow": "node0", "fast": "node0"}, jobs, cluster
        )
        # "slow" saturates below the equal share; its surplus goes to "fast".
        assert speeds["slow"] == pytest.approx(500.0)
        assert speeds["fast"] == pytest.approx(3500.0)

    def test_equal_shares_without_caps(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=3000, memory_capacity=8000)
        jobs = {f"j{i}": make_job(f"j{i}", max_speed=5000) for i in range(3)}
        speeds = pf_speeds(
            {j: "node0" for j in jobs}, jobs, cluster
        )
        assert all(s == pytest.approx(1000.0) for s in speeds.values())

    def test_admission_is_memory_bound_and_balanced(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=1500)
        jobs = [make_job(f"j{i}", memory=750, submit=i) for i in range(4)]
        assignment = pf_assign(jobs, cluster, current={})
        assert len(assignment) == 4
        nodes = sorted(assignment.values())
        assert nodes.count("node0") == 2 and nodes.count("node1") == 2
        # A fifth job does not fit in memory anywhere and stays queued.
        extra = make_job("extra", memory=751, submit=5)
        assert "extra" not in pf_assign(jobs + [extra], cluster, current={})

    def test_sticky_placement(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=1500)
        jobs = [make_job(f"j{i}", memory=700, submit=i) for i in range(2)]
        current = {"j0": "node1", "j1": "node1"}
        assignment = pf_assign(jobs, cluster, current=current)
        assert assignment == current

    def test_max_jobs_per_node_cap(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=9000)
        jobs = [make_job(f"j{i}", memory=100, submit=i) for i in range(4)]
        assignment = pf_assign(jobs, cluster, current={}, max_jobs_per_node=1)
        assert len(assignment) == 2
        assert sorted(set(assignment.values())) == ["node0", "node1"]

    def test_config_round_trip_and_validation(self):
        config = ProportionalFairnessConfig(max_jobs_per_node=3)
        assert ProportionalFairnessConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigurationError):
            ProportionalFairnessConfig(max_jobs_per_node=0)
        with pytest.raises(ConfigurationError):
            ProportionalFairnessConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("cap", [2.5, True, "3", 0, -1, math.nan])
    def test_cap_must_be_a_count(self, cap):
        """A cap of ``True`` once read as one job per node, 2.5 as three,
        and ``"3"`` raised TypeError mid-cycle."""
        with pytest.raises(ConfigurationError, match="max_jobs_per_node"):
            ProportionalFairnessConfig(max_jobs_per_node=cap)
        scenario = Scenario(
            nodes=2, job_count=2, policy="proportional_fairness",
            policy_params={"max_jobs_per_node": cap},
        )
        with pytest.raises(ConfigurationError, match="max_jobs_per_node"):
            Simulation.from_scenario(scenario)


class TestDFRSPrimitives:
    def test_lpt_balances_committed_speed(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=9000)
        jobs = [
            make_job("big", max_speed=900, submit=0),
            make_job("mid", max_speed=500, submit=1),
            make_job("small", max_speed=400, submit=2),
        ]
        assignment = dfrs_assign(jobs, cluster, current={}, rebalance_threshold=1e9)
        # LPT: big alone on one node, mid+small together on the other.
        assert assignment["big"] != assignment["mid"]
        assert assignment["mid"] == assignment["small"]

    def test_repack_on_yield_spread(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=9000)
        jobs = [
            make_job(f"j{i}", max_speed=800, submit=i) for i in range(4)
        ]
        # All four crammed on node0: yields are 1000/3200 there vs none
        # used on node1.  A tight threshold forces a from-scratch repack;
        # a loose one keeps the sticky placement.
        lopsided = {f"j{i}": "node0" for i in range(4)}
        repacked = dfrs_assign(jobs, cluster, lopsided, rebalance_threshold=0.1)
        assert sorted(repacked.values()).count("node0") == 2
        sticky = dfrs_assign(jobs, cluster, lopsided, rebalance_threshold=1e9)
        assert all(node == "node0" for node in sticky.values())

    def test_config_round_trip_and_validation(self):
        config = DFRSConfig(rebalance_threshold=0.5)
        assert DFRSConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigurationError):
            DFRSConfig(rebalance_threshold=-0.1)

    @pytest.mark.parametrize(
        "threshold", [math.nan, True, "x", None, -math.inf]
    )
    def test_threshold_must_be_a_number(self, threshold):
        """NaN once built a policy that never repacks (``spread > nan``
        is always false), and ``"x"`` raised TypeError mid-cycle."""
        with pytest.raises(ConfigurationError, match="rebalance_threshold"):
            DFRSConfig(rebalance_threshold=threshold)
        scenario = Scenario(
            nodes=2, job_count=2, policy="dfrs",
            policy_params={"rebalance_threshold": threshold},
        )
        with pytest.raises(ConfigurationError, match="rebalance_threshold"):
            Simulation.from_scenario(scenario)

    def test_infinite_threshold_never_repacks(self):
        assert DFRSConfig(rebalance_threshold=math.inf).rebalance_threshold == (
            math.inf
        )
        assert DFRSConfig(rebalance_threshold=0).rebalance_threshold == 0


# ----------------------------------------------------------------------
# Rivals as full simulation citizens
# ----------------------------------------------------------------------
class TestRivalsUnderFire:
    @pytest.mark.parametrize("policy", RIVALS)
    def test_deterministic_under_faults(self, policy):
        runs = []
        for _ in range(2):
            sim = Simulation.from_scenario(
                rival_scenario(policy), decision_clock=ZERO_CLOCK
            )
            sim.run()
            runs.append(final_state_json(sim))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("policy", RIVALS)
    def test_snapshot_restore_mid_run_is_byte_identical(self, policy):
        scenario = rival_scenario(policy)
        reference = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
        reference.run()

        partial = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
        partial.run(until=2 * CYCLE + 300.0)
        snapshot = json.loads(json.dumps(partial.snapshot()))
        assert snapshot["scenario"]["policy"] == policy
        resumed = Simulation.from_snapshot(snapshot, decision_clock=ZERO_CLOCK)
        resumed.run()
        assert final_state_json(reference) == final_state_json(resumed)

    @pytest.mark.parametrize("policy", RIVALS)
    def test_rivals_complete_the_workload(self, policy):
        sim = Simulation.from_scenario(
            rival_scenario(policy, faults=False), decision_clock=ZERO_CLOCK
        )
        metrics = sim.run()
        assert len(metrics.completions) == 12


# ----------------------------------------------------------------------
# Scenario policy selection
# ----------------------------------------------------------------------
class TestScenarioPolicyField:
    def test_round_trip(self):
        scenario = Scenario(
            policy="dfrs", policy_params={"rebalance_threshold": 0.5}
        )
        data = json.loads(json.dumps(scenario.to_dict()))
        assert data["policy"] == "dfrs"
        assert data["policy_params"] == {"rebalance_threshold": 0.5}
        restored = Scenario.from_dict(data)
        assert restored.policy == "dfrs"
        assert restored.to_dict() == data

    def test_pre_redesign_dicts_still_load(self):
        # Old checkpoints carry no policy keys; they mean "apc".
        data = Scenario().to_dict()
        del data["policy"]
        del data["policy_params"]
        restored = Scenario.from_dict(data)
        assert restored.policy == "apc"
        assert restored.policy_params == {}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(policy="nope")

    def test_non_mapping_params_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(policy="apc", policy_params=[1, 2])

    def test_bad_params_surface_at_build_time(self):
        scenario = Scenario(policy="fcfs", policy_params={"bogus": 1})
        with pytest.raises(ConfigurationError):
            Simulation.from_scenario(scenario)

    def test_non_apc_policies_have_no_controller(self):
        sim = Simulation.from_scenario(
            Scenario(nodes=2, job_count=2, policy="proportional_fairness")
        )
        assert sim.controller is None
        assert sim.policy.name == "PF"


# ----------------------------------------------------------------------
# The tournament
# ----------------------------------------------------------------------
def small_scenarios():
    return [
        Scenario(name="s1", nodes=3, job_count=8, interarrival=40.0, seed=3),
        Scenario(name="s2", nodes=3, job_count=8, interarrival=20.0, seed=4),
    ]


def stripped_rankings(result):
    return [
        {k: v for k, v in row.items() if k != "runs"}
        for row in result.rankings
    ]


class TestArena:
    def test_entrant_coercion(self):
        assert ArenaEntrant.coerce("apc").label == "apc"
        entrant = ArenaEntrant.coerce(
            {"name": "dfrs", "params": {"rebalance_threshold": 0.5},
             "label": "dfrs-tight"}
        )
        assert entrant.label == "dfrs-tight"
        with pytest.raises(ConfigurationError):
            ArenaEntrant.coerce({"label": "no-name"})
        with pytest.raises(ConfigurationError):
            ArenaEntrant.coerce({"name": "apc", "bogus": 1})
        with pytest.raises(ConfigurationError):
            ArenaEntrant.coerce("nope")
        with pytest.raises(ConfigurationError):
            ArenaEntrant.coerce(42)

    def test_validation(self):
        scenarios = small_scenarios()
        with pytest.raises(ConfigurationError):
            run_arena([], scenarios)
        with pytest.raises(ConfigurationError):
            run_arena(["apc"], [])
        with pytest.raises(ConfigurationError):
            run_arena(["apc", "apc"], scenarios)

    def test_tournament_ranks_deterministically(self):
        policies = [
            "apc",
            "fcfs",
            "proportional_fairness",
            {"name": "dfrs", "label": "dfrs-tight",
             "params": {"rebalance_threshold": 0.05}},
        ]
        first = run_arena(policies, small_scenarios(), workers=1)
        second = run_arena(policies, small_scenarios(), workers=1)
        assert stripped_rankings(first) == stripped_rankings(second)

        rows = first.rankings
        assert [row["rank"] for row in rows] == [1, 2, 3, 4]
        assert sorted(row["label"] for row in rows) == sorted(
            ["apc", "fcfs", "proportional_fairness", "dfrs-tight"]
        )
        for row in rows:
            assert set(row) >= {
                "rank", "label", "policy", "params", "scenarios",
                "failures", "attainment", "breaches", "churn_instances",
                "migration_distance_mb", "runs",
            }
            assert row["scenarios"] == 2
            assert len(row["runs"]) == 2
            for run in row["runs"]:
                assert run["policy"] == row["policy"]
                assert "sla" in run
        assert first.winner() is rows[0]

        table = render_arena_table(first)
        assert "Rank" in table and "apc" in table and "dfrs-tight" in table

    def test_every_entrant_faces_identical_workloads(self):
        result = run_arena(["fcfs", "edf"], small_scenarios()[:1], workers=1)
        names = [run["scenario"] for row in result.rankings
                 for run in row["runs"]]
        assert sorted(names) == ["s1/edf", "s1/fcfs"]

    def test_failed_runs_rank_last(self):
        policies = [
            "fcfs",
            {"name": "apc", "label": "broken",
             "params": {"objective": "nope"}},
        ]
        result = run_arena(policies, small_scenarios()[:1], workers=1)
        rows = result.rankings
        assert rows[0]["label"] == "fcfs" and rows[0]["failures"] == 0
        assert rows[1]["label"] == "broken" and rows[1]["failures"] == 1
        assert result.sweep.failures("failed")
