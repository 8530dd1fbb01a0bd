"""Live SLO watchdog: rule evaluation, lifecycle, streaming, health
roll-up, in-loop integration, and the seeded overload acceptance run."""

import io
import json

import pytest

from repro.core.apc import APCConfig
from repro.errors import ConfigurationError
from repro.obs.alerts import (
    RULE_BATCH_STARVATION,
    RULE_DEADLINE_MISS,
    RULE_NODE_OVERLOAD,
    RULE_PLACEMENT_THRASH,
    RULE_RECONCILER_STALL,
    RULE_TXN_BURN_RATE,
    Alert,
    AlertConfig,
    AlertEngine,
    CycleObservation,
)
from repro.obs.health import HealthLevel, health_from_alerts
from repro.obs.registry import MetricRegistry
from repro.obs.sink import (
    ALERT_RECORD_TYPES,
    SCHEMA_VERSION,
    JsonlSink,
    read_alert_records,
    validate_jsonl,
)


def obs(cycle, **kwargs):
    return CycleObservation(time=cycle * 300.0, cycle=cycle, **kwargs)


# ----------------------------------------------------------------------
# AlertConfig
# ----------------------------------------------------------------------
class TestAlertConfig:
    def test_round_trips_through_dict(self):
        config = AlertConfig(slo_target=0.9, burn_short_window=3,
                             burn_long_window=9, starvation_cycles=2)
        clone = AlertConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown AlertConfig"):
            AlertConfig.from_dict({"slo_target": 0.9, "bogus": 1})

    @pytest.mark.parametrize("kwargs", [
        {"slo_target": 0.0},
        {"slo_target": 1.5},
        {"burn_short_window": 0},
        {"burn_short_window": 10, "burn_long_window": 5},
        {"burn_threshold": 0.0},
        {"starvation_fraction": 0.0},
        {"overload_utilization": 1.2},
        {"thrash_moves_threshold": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            AlertConfig(**kwargs)


# ----------------------------------------------------------------------
# Rule evaluation on synthetic observations
# ----------------------------------------------------------------------
class TestBurnRate:
    def engine(self):
        return AlertEngine(AlertConfig(
            slo_target=0.95, burn_short_window=3, burn_long_window=6,
            burn_threshold=2.0,
        ))

    def test_fires_when_both_windows_burn(self):
        engine = self.engine()
        fired = []
        for c in range(3):
            fired = engine.observe(obs(c, txn_utilities={"TX": -0.2}))
        assert [a.rule for a in fired] == [RULE_TXN_BURN_RATE]
        alert = fired[0]
        assert alert.subject == "TX" and alert.severity == "critical"
        assert alert.detail["short_burn"] >= 2.0
        assert alert.is_active

    def test_does_not_fire_before_short_window_fills(self):
        engine = self.engine()
        for c in range(2):
            assert engine.observe(obs(c, txn_utilities={"TX": -0.2})) == []

    def test_healthy_app_never_fires(self):
        engine = self.engine()
        for c in range(20):
            assert engine.observe(obs(c, txn_utilities={"TX": 0.1})) == []
        assert engine.summary()["fired"] == 0

    def test_resolves_when_short_window_recovers(self):
        engine = self.engine()
        for c in range(3):
            engine.observe(obs(c, txn_utilities={"TX": -0.2}))
        assert engine.active
        for c in range(3, 6):
            engine.observe(obs(c, txn_utilities={"TX": 0.3}))
        assert engine.active == []
        alert = engine.alerts[0]
        assert alert.resolved_cycle == 5 and not alert.is_active

    def test_no_refire_while_active(self):
        engine = self.engine()
        for c in range(10):
            engine.observe(obs(c, txn_utilities={"TX": -0.2}))
        assert engine.summary()["fired"] == 1


class TestDeadlineMiss:
    def test_fires_only_with_full_window(self):
        engine = AlertEngine(AlertConfig(
            deadline_window=4, deadline_miss_threshold=0.5,
        ))
        assert engine.observe(obs(0, completions_met=[False, False])) == []
        fired = engine.observe(obs(1, completions_met=[False, True]))
        assert [a.rule for a in fired] == [RULE_DEADLINE_MISS]
        assert fired[0].detail["miss_rate"] == pytest.approx(0.75)

    def test_resolves_as_misses_age_out(self):
        engine = AlertEngine(AlertConfig(
            deadline_window=4, deadline_miss_threshold=0.5,
        ))
        engine.observe(obs(0, completions_met=[False] * 4))
        assert engine.active
        engine.observe(obs(1, completions_met=[True] * 4))
        assert engine.active == []


class TestStallRate:
    def test_needs_minimum_attempts(self):
        engine = AlertEngine(AlertConfig(stall_window=6,
                                         stall_rate_threshold=0.5))
        assert engine.observe(obs(0, action_attempts=2, action_stalls=2)) == []
        fired = engine.observe(obs(1, action_attempts=2, action_stalls=2))
        assert [a.rule for a in fired] == [RULE_RECONCILER_STALL]
        assert fired[0].subject == "reconciler"


class TestThrash:
    def test_sustained_churn_fires_per_app(self):
        engine = AlertEngine(AlertConfig(thrash_window=4,
                                         thrash_moves_threshold=6))
        fired = []
        for c in range(3):
            fired = engine.observe(obs(c, app_moves={"J1": 2, "J2": 0}))
        assert [(a.rule, a.subject) for a in fired] == [
            (RULE_PLACEMENT_THRASH, "J1")
        ]

    def test_quiet_cycles_age_the_window(self):
        engine = AlertEngine(AlertConfig(thrash_window=2,
                                         thrash_moves_threshold=4))
        engine.observe(obs(0, app_moves={"J1": 3}))
        # J1 absent this cycle: its window becomes [3, 0] — below threshold.
        assert engine.observe(obs(1, app_moves={})) == []


class TestStarvation:
    def config(self):
        return AlertConfig(starvation_fraction=0.5, starvation_cycles=2)

    def test_fires_after_streak(self):
        engine = AlertEngine(self.config())
        starved = dict(queued_slacks=[-10.0, -5.0, 100.0],
                       queued_ages=[900.0, 600.0, 300.0])
        assert engine.observe(obs(0, **starved)) == []
        fired = engine.observe(obs(1, **starved))
        assert [a.rule for a in fired] == [RULE_BATCH_STARVATION]
        detail = fired[0].detail
        assert detail["waiting"] == 3 and detail["starving"] == 2
        assert detail["worst_slack"] == -10.0 and detail["streak"] == 2
        assert detail["age_p90"] == 900.0

    def test_streak_resets_and_resolves(self):
        engine = AlertEngine(self.config())
        starved = dict(queued_slacks=[-10.0, -5.0])
        for c in range(2):
            engine.observe(obs(c, **starved))
        assert engine.active
        engine.observe(obs(2, queued_slacks=[50.0, 60.0]))
        assert engine.active == []

    def test_empty_queue_is_not_starving(self):
        engine = AlertEngine(self.config())
        for c in range(5):
            assert engine.observe(obs(c, queued_slacks=[])) == []


class TestOverload:
    def test_hot_node_with_below_goal_txn(self):
        engine = AlertEngine(AlertConfig(overload_utilization=0.9,
                                         overload_cycles=2))
        hot = dict(node_utilization={"node1": 0.97},
                   node_below_goal_txn={"node1": ["TX"]})
        assert engine.observe(obs(0, **hot)) == []
        fired = engine.observe(obs(1, **hot))
        assert [(a.rule, a.subject) for a in fired] == [
            (RULE_NODE_OVERLOAD, "node1")
        ]
        assert fired[0].detail["below_goal"] == "TX"

    def test_hot_node_without_txn_pressure_is_fine(self):
        engine = AlertEngine(AlertConfig(overload_cycles=1))
        assert engine.observe(
            obs(0, node_utilization={"node1": 1.0}, node_below_goal_txn={})
        ) == []


# ----------------------------------------------------------------------
# Lifecycle, capacity, streaming, registry
# ----------------------------------------------------------------------
class TestEngineLifecycle:
    def test_capacity_overflow_counts_drops_but_still_returns_fired(self):
        engine = AlertEngine(
            AlertConfig(overload_cycles=1), capacity=1
        )
        hot = {"node_utilization": {"n1": 1.0, "n2": 1.0},
               "node_below_goal_txn": {"n1": ["TX"], "n2": ["TX"]}}
        fired = engine.observe(obs(0, **hot))
        assert len(fired) == 2
        assert len(engine.alerts) == 1 and engine.dropped_alerts == 1
        assert engine.summary()["fired"] == 2

    def test_active_keys_for_heartbeats(self):
        engine = AlertEngine(AlertConfig(overload_cycles=1))
        engine.observe(obs(0, node_utilization={"n1": 1.0},
                           node_below_goal_txn={"n1": ["TX"]}))
        assert engine.active_keys() == ["node_overload:n1"]

    def test_transitions_stream_as_current_schema_records(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        engine = AlertEngine(
            AlertConfig(deadline_window=2, deadline_miss_threshold=0.5),
            sink=sink,
        )
        engine.observe(obs(0, completions_met=[False, False]))
        engine.observe(obs(1, completions_met=[True, True]))
        sink.close()
        text = buf.getvalue()
        assert validate_jsonl(io.StringIO(text)) == 3  # meta + fire + resolve
        records = read_alert_records(io.StringIO(text))
        assert [r["type"] for r in records] == [
            "alert_fired", "alert_resolved",
        ]
        assert all(r["v"] == SCHEMA_VERSION == 5 for r in records)
        assert records[1]["duration"] == pytest.approx(300.0)

    def test_registry_publication(self):
        registry = MetricRegistry()
        engine = AlertEngine(
            AlertConfig(deadline_window=2, deadline_miss_threshold=0.5),
            registry=registry,
        )
        engine.observe(obs(0, completions_met=[False, False]))
        total = registry.get("repro_alerts_total")
        active = registry.get("repro_alerts_active")
        assert total.value(rule=RULE_DEADLINE_MISS, event="fired") == 1.0
        assert active.value(rule=RULE_DEADLINE_MISS) == 1.0
        engine.observe(obs(1, completions_met=[True, True]))
        assert total.value(rule=RULE_DEADLINE_MISS, event="resolved") == 1.0
        assert active.value(rule=RULE_DEADLINE_MISS) == 0.0

    def test_restored_state_continues_every_rule(self):
        """Every rule fires over two bad cycles, four of the six alerts
        past the history's capacity, and resolves over three good ones.
        An engine restored from a JSON round trip of ``state_dict()``
        between the two reports what the original reports and ends in
        its state, history entries resolved in place included."""
        config = AlertConfig(
            burn_short_window=2, burn_long_window=4, deadline_window=2,
            stall_window=2, thrash_window=2, thrash_moves_threshold=2,
            starvation_cycles=2, overload_cycles=2,
        )

        def cycle(n, bad):
            return obs(
                n,
                txn_utilities={"TX": -1.0 if bad else 1.0},
                completions_met=[not bad],
                queued_ages=[60.0],
                queued_slacks=[-5.0 if bad else 5.0],
                app_moves={"j1": 2} if bad else {},
                node_utilization={"n1": 1.0 if bad else 0.2},
                node_below_goal_txn={"n1": ["TX"]} if bad else {},
                action_attempts=4,
                action_stalls=3 if bad else 0,
            )

        straight = AlertEngine(config, capacity=2)
        for n in range(2):
            straight.observe(cycle(n, bad=True))
        assert straight.summary()["active"] == 6
        restored = AlertEngine(config, capacity=2)
        restored.restore_state(json.loads(json.dumps(straight.state_dict())))
        assert restored.state_dict() == straight.state_dict()
        for n in range(2, 6):
            later = cycle(n, bad=n == 2)
            assert restored.observe(later) == straight.observe(later)
        assert restored.state_dict() == straight.state_dict()
        assert restored.summary() == straight.summary() == {
            "fired": 6, "resolved": 6, "active": 0, "cycles_observed": 6,
            "dropped": 4,
        }
        assert all(alert.resolved_at is not None for alert in restored.alerts)

    def test_render_mentions_state(self):
        alert = Alert(rule=RULE_TXN_BURN_RATE, subject="TX",
                      severity="critical", fired_at=900.0, fired_cycle=3)
        assert "ACTIVE" in alert.render()
        alert.resolved_at, alert.resolved_cycle = 1200.0, 4
        assert "resolved@1200s" in alert.render()


# ----------------------------------------------------------------------
# Health roll-up
# ----------------------------------------------------------------------
class TestHealth:
    def test_empty_is_all_ok(self):
        report = health_from_alerts([])
        assert report.overall is HealthLevel.OK
        assert "overall: ok" in report.render()

    def test_severity_maps_to_level_and_subject_to_component(self):
        report = health_from_alerts([
            Alert(rule=RULE_TXN_BURN_RATE, subject="TX", severity="critical",
                  fired_at=900.0, fired_cycle=3),
            Alert(rule=RULE_NODE_OVERLOAD, subject="node2", severity="warning",
                  fired_at=1200.0, fired_cycle=4),
            Alert(rule=RULE_BATCH_STARVATION, subject="batch",
                  severity="critical", fired_at=1500.0, fired_cycle=5),
        ])
        assert report.apps["TX"].level is HealthLevel.CRITICAL
        assert report.nodes["node2"].level is HealthLevel.DEGRADED
        assert report.apps["batch"].level is HealthLevel.CRITICAL
        # Controller has no alert of its own but inherits degradation.
        assert report.controller.level is HealthLevel.DEGRADED
        assert report.overall is HealthLevel.CRITICAL
        assert "txn_sla_burn_rate since t=900s" in report.apps["TX"].reasons

    def test_stall_scores_the_controller(self):
        report = health_from_alerts([
            Alert(rule=RULE_RECONCILER_STALL, subject="reconciler",
                  severity="warning", fired_at=600.0, fired_cycle=2),
        ])
        assert report.controller.level is HealthLevel.DEGRADED
        assert report.apps == {} and report.nodes == {}

    def test_worse_of_operator(self):
        assert (HealthLevel.OK | HealthLevel.CRITICAL) is HealthLevel.CRITICAL
        assert (HealthLevel.DEGRADED | HealthLevel.OK) is HealthLevel.DEGRADED


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------
def _run_scenario_metrics(alerts=None, sixteen_nodes=False):
    from repro.scenario import Scenario, Simulation
    from repro.sim.export import metrics_to_json
    from repro.sim.simulator import SimulationConfig

    # On 16 nodes the load is enough for the controller to search.
    size = (
        dict(nodes=16, job_count=64, interarrival=20.0)
        if sixteen_nodes
        else dict(nodes=2, job_count=6, interarrival=80.0)
    )
    scenario = Scenario(
        name="ident", seed=4, sim=SimulationConfig(alerts=alerts), **size
    )
    simulation = Simulation.from_scenario(scenario)
    metrics = simulation.run()
    doc = json.loads(metrics_to_json(metrics))
    # Wall-clock decision timing is nondeterministic run to run even
    # without alerting; everything else must match exactly.
    doc["summary"].pop("mean_decision_seconds")
    for row in doc["cycles"]:
        row.pop("decision_seconds")
    return simulation, doc


def streamed_alerts(out):
    """The alert records a sink wrote to ``out``, in order."""
    records = (json.loads(line) for line in out.getvalue().splitlines())
    return [r for r in records if r["type"] in ALERT_RECORD_TYPES]


def assert_restore_continues_alerting(build, until):
    """Run ``build(sink)``'s simulator straight through, and again from
    a JSON round trip of its snapshot at ``until``.  The restored run
    must stream the alert records the straight run streams after that
    point and end in the same engine state.  Returns the straight run
    and the snapshot."""
    straight_out = io.StringIO()
    straight = build(JsonlSink(straight_out))
    straight.run(until=until)
    snapshot = json.loads(json.dumps(straight.snapshot()))
    seen = len(streamed_alerts(straight_out))
    straight.run()

    resumed_out = io.StringIO()
    resumed = build(JsonlSink(resumed_out))
    resumed.restore(snapshot)
    resumed.run()

    expected = streamed_alerts(straight_out)
    assert len(expected) > seen
    assert streamed_alerts(resumed_out) == expected[seen:]
    assert resumed.alert_engine.state_dict() == straight.alert_engine.state_dict()
    return straight, snapshot


def stalling_scenario():
    """Three nodes whose actions fail and stall often enough to fire the
    reconciler-stall rule."""
    from repro.scenario import Scenario
    from repro.sim.simulator import SimulationConfig
    from repro.virt.faults import ActionFaultModel, RetryPolicy

    return Scenario(
        name="stalls", nodes=3, job_count=14, interarrival=100.0, seed=0,
        sim=SimulationConfig(
            cycle_length=600.0,
            fault_model=ActionFaultModel.uniform(
                failure_probability=0.45,
                stall_probability=0.3,
                stall_duration_mean=400.0,
                seed=0,
            ),
            retry_policy=RetryPolicy(max_attempts=4, base_delay=60.0),
            action_timeout=150.0,
            alerts=AlertConfig(stall_window=4),
        ),
    )


class TestSimulatorIntegration:
    @pytest.mark.parametrize("sixteen_nodes", [True, False])
    def test_alerting_does_not_change_results(self, sixteen_nodes):
        sim_off, doc_off = _run_scenario_metrics(None, sixteen_nodes)
        sim_on, doc_on = _run_scenario_metrics(AlertConfig(), sixteen_nodes)
        assert sim_off.simulator.alert_engine is None
        assert sim_on.simulator.alert_engine is not None
        assert doc_on == doc_off

    def test_config_round_trips_with_alerts(self):
        from repro.sim.simulator import SimulationConfig

        config = SimulationConfig(alerts=AlertConfig(slo_target=0.9))
        clone = SimulationConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone.alerts == config.alerts
        assert SimulationConfig.from_dict(
            SimulationConfig().to_dict()
        ).alerts is None

    def test_snapshot_restore_re_arms_the_watchdog(self):
        from repro.scenario import Scenario, Simulation
        from repro.sim.simulator import SimulationConfig

        scenario = Scenario(
            name="snap", nodes=2, job_count=6, interarrival=80.0, seed=4,
            sim=SimulationConfig(alerts=AlertConfig()),
        )
        simulation = Simulation.from_scenario(scenario)
        simulation.run(until=1200.0)
        state = simulation.simulator.snapshot()
        restored = Simulation.from_scenario(scenario)
        restored.simulator.restore(state)
        assert restored.simulator.alert_engine is not None
        a = simulation.run()
        b = restored.run()
        assert len(a.cycles) == len(b.cycles)
        assert [c.time for c in a.cycles] == [c.time for c in b.cycles]

    @pytest.mark.parametrize("faults", [False, True])
    def test_restored_watchdog_continues_the_uninterrupted_one(self, faults):
        """The overload run, snapshotted at 12,000 s while TX's burn-rate
        alert fires: the restored run re-fires nothing and counts every
        cycle."""
        from repro.virt.faults import ActionFaultModel

        fault_model = (
            ActionFaultModel.uniform(
                failure_probability=0.3,
                stall_probability=0.3,
                stall_duration_mean=400.0,
                seed=3,
            )
            if faults
            else None
        )
        straight, snapshot = assert_restore_continues_alerting(
            lambda sink: overload_simulator(sink, fault_model), 12_000.0
        )
        fired = snapshot["alerts"]["engine"]["alerts"]
        assert (fired[0]["rule"], fired[0]["resolved_at"]) == (
            RULE_TXN_BURN_RATE, None
        )
        assert straight.alert_engine.summary()["cycles_observed"] == 121

    def test_restored_watchdog_keeps_its_action_baselines(self):
        """A run whose actions fail and stall, snapshotted at 18,000 s
        after 14 attempts and 2 stalls: the restored run's first cycle
        reports only its own attempts and stalls to the stall-rate
        rule."""
        from repro.scenario import Simulation
        from repro.sim.trace import SimulationTrace

        scenario = stalling_scenario()

        def build(sink):
            return Simulation.from_scenario(
                scenario, trace=SimulationTrace(sink=sink)
            ).simulator

        straight, snapshot = assert_restore_continues_alerting(build, 18_000.0)
        baselines = snapshot["alerts"]
        assert (baselines["prev_attempts"], baselines["prev_stalls"]) == (14, 2)
        rules = {a.rule for a in straight.alert_engine.alerts}
        assert rules == {RULE_RECONCILER_STALL}

    def test_restored_watchdog_republishes_its_active_gauge(self):
        """The active-alert gauge is a level: a restored run's fresh
        registry reads the uninterrupted run's active counts before any
        rule fires or resolves again."""
        from repro.scenario import Simulation

        def active_gauge(sim):
            return [
                sample
                for sample in sim.simulator.metrics.registry.collect()
                if sample["name"] == "repro_alerts_active"
            ]

        straight = Simulation.from_scenario(
            stalling_scenario(), registry=MetricRegistry()
        )
        straight.run(until=20_000.0)
        snapshot = json.loads(json.dumps(straight.snapshot()))
        straight.run(until=20_001.0)
        restored = Simulation.from_snapshot(snapshot, registry=MetricRegistry())
        restored.run(until=20_001.0)
        engine = restored.simulator.alert_engine
        assert engine.active_keys() == ["reconciler_stall:reconciler"]
        assert active_gauge(straight) == [{
            "name": "repro_alerts_active",
            "kind": "gauge",
            "labels": {"rule": RULE_RECONCILER_STALL},
            "value": 1.0,
        }]
        assert active_gauge(restored) == active_gauge(straight)

    @pytest.mark.parametrize("index", [1, -1])
    def test_active_alert_outside_the_history_is_a_checkpoint_error(self, index):
        from repro.errors import CheckpointError

        sim = overload_simulator(JsonlSink(io.StringIO()))
        sim.run(until=12_000.0)
        snapshot = json.loads(json.dumps(sim.snapshot()))
        assert snapshot["alerts"]["engine"]["active"] == [{"history": 0}]
        snapshot["alerts"]["engine"]["active"] = [{"history": index}]
        with pytest.raises(CheckpointError, match="history index"):
            overload_simulator(JsonlSink(io.StringIO())).restore(snapshot)

    def test_snapshot_without_a_watchdog_has_no_alert_key(self):
        from repro.scenario import Scenario, Simulation

        simulation = Simulation.from_scenario(
            Scenario(name="snap", nodes=2, job_count=6, interarrival=80.0, seed=4)
        )
        simulation.run(until=1200.0)
        assert "alerts" not in simulation.simulator.snapshot()


# ----------------------------------------------------------------------
# Seeded overload acceptance scenario
# ----------------------------------------------------------------------
def overload_simulator(sink, fault_model=None):
    """A 3-node cluster whose transactional app wants ~2x the cluster's
    total CPU: TX burns its SLO from the start, and the batch queue
    starves behind it once deadline slack drains below zero."""
    from repro.api import (
        APCPolicy,
        ApplicationPlacementController,
        BatchWorkloadModel,
        Cluster,
        JobQueue,
        MixedWorkloadSimulator,
        SimulationConfig,
        SimulationTrace,
        TransactionalApp,
        TransactionalWorkloadModel,
        experiment_one_jobs,
    )

    cluster = Cluster.homogeneous(
        3, cpu_capacity=4 * 3900.0, memory_capacity=16 * 1024.0,
        cpu_per_processor=3900.0,
    )
    txn = TransactionalApp.calibrated(
        app_id="TX", memory_mb=1024.0, max_utility=0.66,
        saturation_cpu_mhz=120_000.0, single_thread_speed_mhz=3900.0,
    )
    queue = JobQueue()
    batch = BatchWorkloadModel(queue, queue_window=16)
    controller = ApplicationPlacementController(
        cluster, APCConfig(cycle_length=300.0)
    )
    policy = APCPolicy(controller, [TransactionalWorkloadModel([txn]), batch])
    return MixedWorkloadSimulator(
        cluster, policy, queue,
        arrivals=experiment_one_jobs(count=30, mean_interarrival=20.0, seed=3),
        txn_apps=[txn], batch_model=batch,
        trace=SimulationTrace(sink=sink),
        config=SimulationConfig(
            cycle_length=300.0, max_time=120 * 300.0,
            fault_model=fault_model,
            alerts=AlertConfig(
                burn_short_window=4, burn_long_window=8, starvation_cycles=2,
            ),
        ),
    )


@pytest.fixture(scope="module")
def overload_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("overload") / "alerts.jsonl"
    sink = JsonlSink(path)
    sim = overload_simulator(sink)
    sim.run()
    sink.close()
    return sim, path


class TestOverloadAcceptance:
    def test_burn_rate_and_starvation_fire(self, overload_run):
        sim, _ = overload_run
        rules = {(a.rule, a.subject) for a in sim.alert_engine.alerts}
        assert (RULE_TXN_BURN_RATE, "TX") in rules
        assert (RULE_BATCH_STARVATION, "batch") in rules

    def test_records_round_trip_through_readers(self, overload_run):
        _, path = overload_run
        assert validate_jsonl(path) > 0
        records = read_alert_records(path)
        fired = {r["rule"] for r in records if r["type"] == "alert_fired"}
        assert {RULE_TXN_BURN_RATE, RULE_BATCH_STARVATION} <= fired
        for record in records:
            assert record["type"] in ALERT_RECORD_TYPES
            assert record["v"] == SCHEMA_VERSION

    def test_report_renders_alert_timeline(self, overload_run):
        from repro.obs.report import render_report

        _, path = overload_run
        html = render_report(path)
        assert "Alert timeline" in html
        assert RULE_TXN_BURN_RATE in html
        assert RULE_BATCH_STARVATION in html
        assert "active at end" in html

    def test_health_is_critical(self, overload_run):
        sim, _ = overload_run
        report = sim.alert_engine.health()
        assert report.overall is HealthLevel.CRITICAL
        assert report.apps["TX"].level is HealthLevel.CRITICAL
        assert report.apps["batch"].level is HealthLevel.CRITICAL

    def test_report_without_alerts_notes_absence(self):
        from repro.obs.report import render_report

        html = render_report([
            {"v": 4, "type": "meta", "stream": "repro.telemetry"},
        ])
        assert "no alert records in this stream" in html
