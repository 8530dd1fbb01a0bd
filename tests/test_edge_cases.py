"""Edge-case coverage across modules: empty systems, saturation corners,
boundary arithmetic, and interactions between extensions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.hypothetical import HypotheticalRPF
from repro.batch.job import Job, JobProfile, JobStatus
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.core.loadbalance import AllocatableApp, distribute_load
from repro.core.placement import AppDemand, PlacementState
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import CheckpointError, ConfigurationError
from repro.scenario import Scenario, Simulation
from repro.sim.export import completions_to_csv, cycles_to_csv, metrics_to_json
from repro.sim.metrics import MetricsRecorder
from repro.policies import APCPolicy, FCFSPolicy
from repro.obs.alerts import AlertConfig
from repro.sim.simulator import (
    MixedWorkloadSimulator,
    NodeFailure,
    SimulationConfig,
)
from repro.txn.router import RequestRouter
from repro.virt.costs import FREE_COST_MODEL
from repro.virt.faults import ActionFaultModel, FaultSpec, RetryPolicy

from tests.conftest import make_job


class TestEmptySystems:
    def test_simulation_with_no_jobs(self, small_cluster):
        queue = JobQueue()
        sim = MixedWorkloadSimulator(
            small_cluster, FCFSPolicy(small_cluster, queue), queue, arrivals=[],
            config=SimulationConfig(cycle_length=10.0),
        )
        metrics = sim.run()
        assert metrics.completions == []
        assert len(metrics.cycles) == 1  # the t=0 cycle, then quiescence

    def test_apc_on_empty_models(self, small_cluster):
        apc = ApplicationPlacementController(small_cluster, APCConfig())
        result = apc.place([], PlacementState(small_cluster), 0.0)
        assert result.utilities == {}
        assert not result.changed

    def test_export_of_empty_metrics(self):
        metrics = MetricsRecorder()
        assert cycles_to_csv(metrics).strip().startswith("time")
        assert completions_to_csv(metrics).count("\n") == 1

        doc = json.loads(metrics_to_json(metrics))
        assert doc["summary"]["completions"] == 0


class TestSaturationCorners:
    def test_job_rpf_at_exact_deadline_boundary(self):
        """A job whose earliest completion is exactly its goal: u_max = 0."""
        job = make_job("j", work=1000, max_speed=500, goal_factor=1.0)
        rpf = JobAllocationRPF(job, now=0.0)
        assert rpf.max_utility == pytest.approx(0.0)
        assert rpf.required_cpu(0.0) == pytest.approx(500.0)
        assert rpf.required_cpu(0.01) == math.inf

    def test_job_past_deadline_has_negative_ceiling(self):
        job = make_job("j", work=1000, max_speed=500, goal_factor=1.0)
        rpf = JobAllocationRPF(job, now=5.0)
        assert rpf.max_utility < 0
        # The ceiling is still reachable: max speed is demanded for any
        # level at or above it.
        assert rpf.required_cpu(rpf.max_utility) == pytest.approx(500.0)

    def test_hypothetical_with_every_job_complete(self):
        jobs = [make_job(f"j{i}", work=100) for i in range(3)]
        for job in jobs:
            job.advance(100)
        hypo = HypotheticalRPF([JobAllocationRPF(j, 0.0) for j in jobs])
        assert hypo.max_aggregate_demand == 0.0
        assert all(u == 1.0 for u in hypo.utilities_array(0.0))
        assert hypo.equalized_level(123.0) == 1.0

    def test_distribute_load_all_apps_unplaced(self, small_cluster):
        state = PlacementState(small_cluster)
        app = AllocatableApp(
            demand=AppDemand(app_id="ghost", memory_mb=10),
            rpf=JobAllocationRPF(make_job("ghost"), 0.0),
        )
        result = distribute_load(state, {"ghost": app})
        assert result.allocations == {}


class TestQueueWindowEdges:
    def test_window_of_zero_blocks_all_waiting_jobs(self, single_node_cluster):
        queue = JobQueue()
        for i in range(3):
            queue.submit(make_job(f"j{i}", memory=750))
        model = BatchWorkloadModel(queue, queue_window=0)
        assert model.placement_candidates(0.0) == []
        apc = ApplicationPlacementController(
            single_node_cluster, APCConfig(cycle_length=1.0)
        )
        result = apc.place([model], PlacementState(single_node_cluster), 0.0)
        assert result.state.app_ids == []

    @pytest.mark.parametrize("window", [-1, 2.5, True, "3"])
    def test_rejects_window_that_is_not_a_count(self, window):
        """A negative window once dropped the last waiting job every
        cycle; a float failed as soon as the queue outgrew it."""
        with pytest.raises(ConfigurationError, match="queue_window"):
            Scenario(queue_window=window)
        with pytest.raises(ConfigurationError, match="queue_window"):
            Scenario.from_dict({"name": "bad-window", "queue_window": window})
        with pytest.raises(ConfigurationError, match="queue_window"):
            BatchWorkloadModel(JobQueue(), queue_window=window)

    def test_window_prioritizes_urgency_not_submission(self):
        queue = JobQueue()
        queue.submit(make_job("early-slack", submit=0.0, goal_factor=8))
        queue.submit(make_job("late-tight", submit=1.0, goal_factor=1.1))
        model = BatchWorkloadModel(queue, queue_window=1)
        assert model.placement_candidates(2.0) == ["late-tight"]


class TestScenarioBoundary:
    """A malformed cluster or stream shape fails when the scenario is
    built, naming the field, not deep inside a control cycle."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", 2.5),
            ("nodes", True),
            ("nodes", 0),
            ("processors_per_node", 0),
            ("processors_per_node", 1.5),
            ("job_count", 2.5),
            ("job_count", -1),
            ("cpu_per_processor", math.inf),
            ("cpu_per_processor", -1.0),
            ("cpu_per_processor", True),
            ("memory_per_node", -1.0),
            ("memory_per_node", math.nan),
            ("memory_per_node", 0.0),
            ("interarrival", math.nan),
            ("interarrival", "260"),
        ],
    )
    def test_rejects_bad_shape(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            Scenario(**{field: value})
        with pytest.raises(ConfigurationError, match=field):
            Scenario.from_dict({"name": "bad-shape", field: value})

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda: Scenario(
                    nodes=2, job_count=4, interarrival=100.0,
                    sim=SimulationConfig(cycle_length=300.0),
                ),
                id="constructor",
            ),
            pytest.param(
                lambda: Scenario.from_dict({
                    "apc": {"cycle_length": 450.0},
                    "sim": {"cycle_length": 600.0},
                }),
                id="from_dict",
            ),
        ],
    )
    def test_rejects_a_horizon_other_than_the_cycle(self, build):
        """The controller predicts ``apc.cycle_length`` ahead (§4.2), so
        a simulator that runs cycles at another period is refused, also
        from a dict such as a checkpoint's."""
        with pytest.raises(
            ConfigurationError, match="apc.cycle_length.*sim.cycle_length"
        ):
            build()

    def test_accepts_a_horizon_equal_to_the_cycle(self):
        matched = Scenario.from_dict(
            {"apc": {"cycle_length": 450.0}, "sim": {"cycle_length": 450.0}}
        )
        assert matched.apc.cycle_length == matched.sim.cycle_length == 450.0

    @settings(max_examples=200, deadline=None)
    @given(
        field=st.sampled_from(
            ["nodes", "processors_per_node", "job_count", "seed",
             "cpu_per_processor", "memory_per_node", "interarrival"]
        ),
        value=st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(),
            st.text(max_size=3),
            st.none(),
        ),
    )
    def test_fuzzed_shape_is_accepted_only_when_valid(self, field, value):
        if field in ("nodes", "processors_per_node", "job_count", "seed"):
            least = 0 if field in ("job_count", "seed") else 1
            valid = (
                isinstance(value, int)
                and not isinstance(value, bool)
                and value >= least
            )
        else:
            valid = (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and 0 < value < math.inf
            )
        if valid:
            assert getattr(Scenario.from_dict({field: value}), field) == value
        else:
            with pytest.raises(ConfigurationError, match=field):
                Scenario.from_dict({field: value})

    @pytest.mark.parametrize("seed", [1.5, -1, True, "1", None])
    def test_refuses_a_seed_the_stream_cannot_take(self, seed):
        """numpy once raised TypeError or ValueError for these inside
        ``build_jobs``; a checkpoint carrying one is refused too (sweep
        specs load their scenario through ``from_dict``)."""
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario(seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario.from_dict({"seed": seed})
        checkpoint = Simulation.from_scenario(
            Scenario(nodes=2, job_count=2)
        ).snapshot()
        checkpoint["scenario"]["seed"] = seed
        with pytest.raises(CheckpointError, match="seed"):
            Simulation.from_snapshot(checkpoint)

    def test_refuses_an_outage_of_a_node_its_cluster_lacks(self):
        """Such a scenario once built and failed only at ``run()``, with
        a SimulationError from the first outage event."""
        outage = {"node": "node3", "fail_time": 600.0}
        with pytest.raises(ConfigurationError, match="node3"):
            Scenario(
                nodes=3,
                sim=SimulationConfig(failures=[NodeFailure(**outage)]),
            )
        with pytest.raises(ConfigurationError, match="node3"):
            Scenario.from_dict({"nodes": 3, "sim": {"failures": [outage]}})
        kept = Scenario.from_dict({"nodes": 4, "sim": {"failures": [outage]}})
        assert kept.sim.failures[0].node == "node3"

    def test_int_cpu_per_processor_runs_like_its_float(self):
        """An int speed is positive and finite, so it is accepted, and
        then it must run: on 16 nodes, int node capacities once crashed
        an array load distributor mid-cycle."""
        runs = []
        for cpu in (3900, 3900.0):
            sim = Simulation.from_scenario(
                Scenario(
                    nodes=16, cpu_per_processor=cpu,
                    memory_per_node=16384, job_count=60, interarrival=20.0,
                    seed=1,
                ),
                decision_clock=lambda: 0.0,
            )
            sim.run()
            runs.append(
                json.dumps(sim.simulator.metrics.state_dict(), sort_keys=True)
            )
        assert runs[0] == runs[1]


def build_config(section, field, value):
    """Construct the ``section`` config with ``field`` set to ``value``."""
    if section == "sim":
        return SimulationConfig(**{field: value})
    if section == "failure":
        return NodeFailure(**{"node": "n0", "fail_time": 0.0, field: value})
    if section == "retry":
        return RetryPolicy(**{field: value})
    if section == "spec":
        return FaultSpec(**{field: value})
    if section == "flakiness":
        return ActionFaultModel(node_flakiness={"n0": value})
    if section == "fault_model":
        return ActionFaultModel(**{field: value})
    return AlertConfig(**{field: value})


def config_dict(section, field, value):
    """The :meth:`SimulationConfig.from_dict` input that sets ``field``
    of ``section`` to ``value``."""
    if section == "sim":
        return {field: value}
    if section == "failure":
        return {"failures": [{"node": "n0", "fail_time": 0.0, field: value}]}
    if section == "retry":
        return {"retry_policy": {field: value}}
    if section == "spec":
        return {"fault_model": {"specs": {"boot": {field: value}}}}
    if section == "flakiness":
        return {"fault_model": {"node_flakiness": {"n0": value}}}
    if section == "fault_model":
        return {"fault_model": {field: value}}
    return {"alerts": {field: value}}


_ALERT_COUNTS = (
    "burn_short_window", "burn_long_window", "deadline_window",
    "stall_window", "thrash_window", "starvation_cycles",
    "overload_cycles", "thrash_moves_threshold",
)


class TestConfigBoundary:
    """Simulator, fault and alert configs reject inconsistent values when
    built, naming the field, also through ``SimulationConfig.from_dict``."""

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("sim", "cycle_length", math.nan),
            ("sim", "cycle_length", math.inf),
            ("sim", "action_timeout", math.nan),
            ("sim", "action_timeout", math.inf),
            ("sim", "max_time", math.nan),
            ("sim", "max_time", math.inf),
            ("failure", "fail_time", math.nan),
            ("failure", "fail_time", math.inf),
            ("failure", "duration", math.nan),
            ("failure", "duration", 0.0),
            ("retry", "max_attempts", 2.5),
            ("retry", "max_attempts", True),
            ("retry", "base_delay", math.nan),
            ("retry", "base_delay", math.inf),
            ("retry", "max_delay", math.nan),
            ("retry", "max_delay", math.inf),
            ("retry", "multiplier", math.nan),
            ("retry", "multiplier", math.inf),
            ("retry", "jitter", math.nan),
            ("retry", "jitter", math.inf),
            ("spec", "stall_duration_mean", math.nan),
            ("spec", "stall_duration_mean", math.inf),
            ("flakiness", "node_flakiness", math.nan),
            ("fault_model", "seed", 1.5),
            ("fault_model", "seed", True),
            ("alerts", "burn_threshold", math.nan),
            ("alerts", "burn_threshold", math.inf),
            ("alerts", "stall_rate_threshold", math.nan),
            ("alerts", "stall_rate_threshold", math.inf),
        ]
        + [("alerts", name, True) for name in _ALERT_COUNTS],
    )
    def test_rejects_bad_value(self, section, field, value):
        with pytest.raises(ConfigurationError, match=field):
            build_config(section, field, value)
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig.from_dict(config_dict(section, field, value))

    @pytest.mark.parametrize("value", [False, "no", 1, None])
    def test_retired_prune_completed_refuses_other_values(self, value):
        """The simulator always prunes; a document asking it not to is
        refused, naming the key, and one that carries True loads."""
        with pytest.raises(ConfigurationError, match="prune_completed"):
            SimulationConfig.from_dict({"prune_completed": value})
        assert SimulationConfig.from_dict(
            {"prune_completed": True}
        ) == SimulationConfig()

    def test_infinite_outage_is_still_allowed(self):
        config = SimulationConfig.from_dict(
            {"failures": [{"node": "n0", "fail_time": 5.0, "duration": None}]}
        )
        assert config.failures[0].duration == math.inf

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.sampled_from([
            ("sim", "cycle_length", "positive"),
            ("sim", "action_timeout", "positive"),
            ("sim", "max_time", "optional positive"),
            ("sim", "prune_completed", "retired, True"),
            ("failure", "fail_time", "non-negative"),
            ("failure", "duration", "positive or inf"),
            ("retry", "max_attempts", "count"),
            ("retry", "base_delay", "positive"),
            ("retry", "multiplier", "at least one"),
            ("retry", "jitter", "non-negative"),
            ("spec", "stall_duration_mean", "positive"),
            ("flakiness", "node_flakiness", "non-negative"),
            ("fault_model", "seed", "int"),
            ("alerts", "burn_threshold", "positive"),
            ("alerts", "stall_rate_threshold", "positive"),
            ("alerts", "deadline_window", "count"),
        ]),
        value=st.one_of(
            st.integers(min_value=-5, max_value=5),
            st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(),
            st.text(max_size=3),
            st.none(),
        ),
    )
    def test_fuzzed_value_is_accepted_only_when_valid(self, target, value):
        section, field, rule = target
        is_int = isinstance(value, int) and not isinstance(value, bool)
        real = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and not math.isnan(value)
        )
        finite = real and math.isfinite(value)
        valid = {
            "positive": finite and value > 0,
            "optional positive": value is None or (finite and value > 0),
            "retired, True": value is True,
            "non-negative": finite and value >= 0,
            # A serialized duration of None means down for good.
            "positive or inf": value is None or (real and value > 0),
            "count": is_int and value >= 1,
            "at least one": finite and value >= 1,
            "int": is_int,
        }[rule]
        if section == "retry" and field == "base_delay":
            # It must also stay at or below the default max_delay.
            valid = valid and value <= RetryPolicy().max_delay
        data = config_dict(section, field, value)
        if valid:
            SimulationConfig.from_dict(data)
        else:
            with pytest.raises(ConfigurationError, match=field):
                SimulationConfig.from_dict(data)


class TestWrongTypedParts:
    """A part of the wrong type is refused when the config is built,
    naming the field.  Most of these once constructed and then raised
    AttributeError inside the run."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cost_model", None),
            ("cost_model", {"suspend_rate": 0.0}),
            ("retry_policy", None),
            ("fault_model", "x"),
            ("alerts", 5),
            ("failures", ("x",)),
            ("failures", 5),
            ("decision_clock", 5),
        ],
    )
    def test_simulation_config_refuses(self, field, value):
        extra = {}
        if field == "retry_policy":
            extra["fault_model"] = ActionFaultModel.uniform(
                failure_probability=0.5
            )
        with pytest.raises(ConfigurationError, match=field):
            SimulationConfig(**{field: value}, **extra)

    @pytest.mark.parametrize("node", [5, None, ("node0",)])
    def test_node_failure_needs_a_node_name(self, node):
        with pytest.raises(ConfigurationError, match="node"):
            NodeFailure(node=node, fail_time=0.0)


class TestMalformedNestedParts:
    """A malformed part of a scenario document is refused with a
    ConfigurationError that names the part, through ``from_dict``.  Each
    of these once raised a bare AttributeError, KeyError, TypeError or
    ValueError, or was silently ignored."""

    @staticmethod
    def scenario_dict(**parts):
        data = Scenario(nodes=2, job_count=2).to_dict()
        data.update(parts)
        return data

    @staticmethod
    def sim_dict(**parts):
        data = SimulationConfig().to_dict()
        data.update(parts)
        return data

    @pytest.mark.parametrize(
        "part, value", [("apc", 5), ("sim", 5), ("apc", None), ("sim", None)]
    )
    def test_config_part_that_is_not_a_mapping(self, part, value):
        with pytest.raises(ConfigurationError, match=part):
            Scenario.from_dict(self.scenario_dict(**{part: value}))

    @pytest.mark.parametrize("config", [APCConfig, SimulationConfig])
    @pytest.mark.parametrize("value", [5, None, [1]])
    def test_from_dict_refuses_a_non_mapping(self, config, value):
        """Called directly, each config's ``from_dict`` names its class;
        it once raised AttributeError reading a retired key."""
        with pytest.raises(ConfigurationError, match=config.__name__):
            config.from_dict(value)

    def test_prediction_method_names_the_field(self):
        with pytest.raises(ConfigurationError, match="prediction_method"):
            Scenario.from_dict(self.scenario_dict(prediction_method="bogus"))

    @pytest.mark.parametrize(
        "sim, match",
        [
            ({"failures": [{"node": "node0"}]}, "fail_time"),
            ({"failures": [{"node": "node0", "fail_time": 5.0,
                            "lose": True}]}, "failures"),
            ({"failures": 5}, "failures"),
            ({"cost_model": {"suspend_rate": 0.0, "boot": 1.0}}, "cost_model"),
            ({"retry_policy": {"tries": 3}}, "retry_policy"),
            ({"fault_model": {"specs": {"boot": {"failure": 0.5}}}}, "specs"),
            ({"fault_model": {"specs": {"reboot": {}}}}, "reboot"),
            ({"fault_model": {"specs": [1]}}, "specs"),
            ({"fault_model": {"specz": {}}}, "specz"),
            ({"fault_model": {"node_flakiness": 5}}, "node_flakiness"),
        ],
        ids=[
            "failure-without-fail-time", "failure-unknown-key",
            "failures-not-a-list", "cost-model-unknown-key",
            "retry-policy-unknown-key", "fault-spec-unknown-key",
            "unknown-action", "specs-not-a-mapping", "fault-model-unknown-key",
            "flakiness-not-a-mapping",
        ],
    )
    def test_simulation_part_names_the_part(self, sim, match):
        with pytest.raises(ConfigurationError, match=match):
            SimulationConfig.from_dict(self.sim_dict(**sim))
        with pytest.raises(ConfigurationError, match=match):
            Scenario.from_dict(self.scenario_dict(sim=self.sim_dict(**sim)))


class TestRouterEdges:
    def test_single_instance_gets_everything(self):
        decision = RequestRouter(max_utilization=1.0).route(
            10.0, 5.0, {"n": 1000.0}, 1000.0
        )
        assert decision.admitted == {"n": pytest.approx(10.0)}

    def test_zero_speed_instances_ignored(self):
        decision = RequestRouter().route(
            10.0, 5.0, {"a": 0.0, "b": 500.0}, 1000.0
        )
        assert "a" not in decision.admitted
        assert decision.admitted_rate + decision.shed_rate == pytest.approx(10.0)


class TestParallelAndFailureInteraction:
    def test_parallel_job_survives_partial_node_loss(self):
        """A 2-way parallel job loses one of its two nodes mid-run but
        keeps executing on the survivor."""
        from repro.sim.simulator import NodeFailure

        cluster = Cluster.homogeneous(2, cpu_capacity=1000, memory_capacity=1000)
        queue = JobQueue()
        batch = BatchWorkloadModel(queue)
        profile = JobProfile.single_stage(20_000, 1000, memory_mb=700)
        job = Job.with_goal_factor(
            "p", profile, submit_time=0.0, goal_factor=6.0, parallelism=2
        )
        policy = APCPolicy(
            ApplicationPlacementController(cluster, APCConfig(cycle_length=5.0)),
            [batch],
        )
        sim = MixedWorkloadSimulator(
            cluster, policy, queue, arrivals=[job], batch_model=batch,
            config=SimulationConfig(
                cycle_length=5.0, cost_model=FREE_COST_MODEL,
                failures=[NodeFailure("node1", fail_time=5.0, duration=1e9)],
            ),
        )
        metrics = sim.run()
        assert len(metrics.completions) == 1
        record = metrics.completions[0]
        # 10 s of 2-way work; one instance lost at t=5 after 10,000 Mcy
        # done; the remaining 10,000 Mcy run at 1000 MHz: done at 15.
        assert record.completion_time == pytest.approx(15.0)


class TestNumericalRobustness:
    def test_huge_aggregate_does_not_overflow(self):
        jobs = [make_job(f"j{i}", work=1e9, max_speed=1e6, goal_factor=2)
                for i in range(4)]
        hypo = HypotheticalRPF([JobAllocationRPF(j, 0.0) for j in jobs])
        utilities = hypo.utilities_array(1e12)
        assert np.isfinite(utilities).all()

    def test_tiny_remaining_work_rounds_cleanly(self):
        job = make_job("j", work=1000, max_speed=500, goal_factor=5)
        job.advance(1000 - 1e-9)
        rpf = JobAllocationRPF(job, 0.0)
        assert rpf.utility(500) <= rpf.max_utility
        assert np.isfinite(rpf.required_cpu(0.0))

    def test_floor_utility_is_the_shared_constant(self):
        job = make_job("j", work=1000, max_speed=500, goal_factor=5)
        rpf = JobAllocationRPF(job, 0.0)
        assert rpf.utility(0.0) == NEGATIVE_INFINITY_UTILITY
