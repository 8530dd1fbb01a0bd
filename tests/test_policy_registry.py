"""The policy-API redesign: registries and plugs.

Covers the three extension points the redesign introduced — the
string-keyed :class:`~repro.policies.PolicyRegistry`, the APC's
pluggable :class:`~repro.core.objective.Objective`, and its pluggable
:class:`~repro.core.admission.AdmissionStrategy` — plus the pinned
guarantee that plugging the defaults in explicitly changes nothing:
the default-config APC is byte-identical on both load distributors.
"""

import json

import pytest

from repro.core.admission import (
    AdmissionStrategy,
    FCFSAdmission,
    LRPFAdmission,
    resolve_admission,
)
from repro.core.apc import SPEC_TABLES_MIN_NODES
from repro.core.objective import (
    LexMaxMinObjective,
    Objective,
    UtilitarianObjective,
    resolve_objective,
)
from repro.errors import ConfigurationError
from repro.policies import (
    APCPolicy,
    DFRSPolicy,
    FCFSPolicy,
    PartitionedPolicy,
    PolicyContext,
    PolicyRegistry,
    ProportionalFairnessPolicy,
    default_policy_registry,
)
from repro.scenario import Scenario, Simulation

ZERO_CLOCK = lambda: 0.0  # noqa: E731 - deterministic decision timing


# ----------------------------------------------------------------------
# Objective configs
# ----------------------------------------------------------------------
class TestObjectiveConfig:
    def test_lex_maxmin_round_trips(self):
        obj = LexMaxMinObjective(tolerance_override=0.05)
        data = json.loads(json.dumps(obj.to_dict()))
        restored = Objective.from_dict(data)
        assert isinstance(restored, LexMaxMinObjective)
        assert restored.tolerance_override == 0.05
        assert restored.to_dict() == data

    def test_utilitarian_round_trips(self):
        obj = UtilitarianObjective(worst_weight=0.3)
        restored = Objective.from_dict(obj.to_dict())
        assert isinstance(restored, UtilitarianObjective)
        assert restored.worst_weight == 0.3

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Objective.from_dict({"name": "nope"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            Objective.from_dict({"name": "lex_maxmin", "bogus": 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LexMaxMinObjective(tolerance_override=-0.1)
        with pytest.raises(ConfigurationError):
            UtilitarianObjective(worst_weight=1.5)

    def test_resolve_variants(self):
        assert isinstance(resolve_objective(None), LexMaxMinObjective)
        assert isinstance(resolve_objective("utilitarian"), UtilitarianObjective)
        by_dict = resolve_objective({"name": "lex_maxmin"})
        assert isinstance(by_dict, LexMaxMinObjective)
        instance = UtilitarianObjective()
        assert resolve_objective(instance) is instance
        with pytest.raises(ConfigurationError):
            resolve_objective(42)

    def test_only_lex_maxmin_supports_the_upper_bound(self):
        # The bound checker's pruning is sound only for the lexicographic
        # objective; anything else must switch it off.
        assert LexMaxMinObjective().supports_upper_bound
        assert not UtilitarianObjective().supports_upper_bound


# ----------------------------------------------------------------------
# Admission configs
# ----------------------------------------------------------------------
class TestAdmissionConfig:
    def test_round_trips(self):
        adm = FCFSAdmission(reverse=True)
        restored = AdmissionStrategy.from_dict(
            json.loads(json.dumps(adm.to_dict()))
        )
        assert isinstance(restored, FCFSAdmission)
        assert restored.reverse is True

    def test_unknown_name_and_key_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionStrategy.from_dict({"name": "nope"})
        with pytest.raises(ConfigurationError):
            AdmissionStrategy.from_dict({"name": "lrpf", "bogus": 1})

    def test_resolve_variants(self):
        assert isinstance(resolve_admission(None), LRPFAdmission)
        assert isinstance(resolve_admission("fcfs"), FCFSAdmission)
        instance = LRPFAdmission()
        assert resolve_admission(instance) is instance
        with pytest.raises(ConfigurationError):
            resolve_admission(42)

    def test_fcfs_admission_orders(self):
        adm = FCFSAdmission()
        assert adm.order(["a", "b", "c"], {}, {}) == ["a", "b", "c"]
        assert FCFSAdmission(reverse=True).order(["a", "b"], {}, {}) == [
            "b",
            "a",
        ]


# ----------------------------------------------------------------------
# The policy registry
# ----------------------------------------------------------------------
def make_context(scenario: Scenario) -> PolicyContext:
    sim = Simulation.from_scenario(scenario)
    return PolicyContext(
        cluster=sim.cluster,
        queue=sim.queue,
        batch_model=sim.batch_model,
        apc_config=scenario.apc,
    )


class TestPolicyRegistry:
    def test_default_names(self):
        registry = default_policy_registry()
        assert set(registry.names()) >= {
            "apc",
            "fcfs",
            "edf",
            "lrpf",
            "partitioned",
            "scripted",
            "proportional_fairness",
            "dfrs",
        }
        buildable = set(registry.buildable_names())
        assert "partitioned" not in buildable
        assert "scripted" not in buildable
        assert {"apc", "proportional_fairness", "dfrs"} <= buildable

    def test_dunder_protocol(self):
        registry = default_policy_registry()
        assert "apc" in registry
        assert "nope" not in registry
        assert len(registry) >= 8
        assert list(registry) == sorted(registry.names())

    def test_get_and_create_unknown_rejected(self):
        registry = default_policy_registry()
        with pytest.raises(ConfigurationError):
            registry.get("nope")
        with pytest.raises(ConfigurationError):
            registry.create("nope", make_context(Scenario(nodes=2)))

    def test_builderless_policies_cannot_be_created(self):
        registry = default_policy_registry()
        assert registry.get("partitioned") is PartitionedPolicy
        with pytest.raises(ConfigurationError):
            registry.create("partitioned", make_context(Scenario(nodes=2)))

    def test_duplicate_registration_rejected(self):
        registry = PolicyRegistry()
        registry.register("x", FCFSPolicy)
        with pytest.raises(ConfigurationError):
            registry.register("x", FCFSPolicy)
        registry.register("x", DFRSPolicy, replace=True)
        assert registry.get("x") is DFRSPolicy

    def test_create_builds_each_buildable_policy(self):
        registry = default_policy_registry()
        context = make_context(Scenario(nodes=2, job_count=2))
        expected = {
            "apc": APCPolicy,
            "fcfs": FCFSPolicy,
            "proportional_fairness": ProportionalFairnessPolicy,
            "dfrs": DFRSPolicy,
        }
        for name, cls in expected.items():
            assert isinstance(registry.create(name, context), cls)

    def test_apc_builder_plugs_objective_and_admission(self):
        registry = default_policy_registry()
        context = make_context(Scenario(nodes=2, job_count=2))
        policy = registry.create(
            "apc",
            context,
            objective={"name": "utilitarian", "worst_weight": 0.5},
            admission="fcfs",
        )
        assert isinstance(policy.controller.objective, UtilitarianObjective)
        assert isinstance(policy.controller.admission, FCFSAdmission)

    def test_unknown_params_rejected(self):
        registry = default_policy_registry()
        context = make_context(Scenario(nodes=2, job_count=2))
        for name in ("apc", "fcfs", "edf", "lrpf", "proportional_fairness",
                     "dfrs"):
            with pytest.raises(ConfigurationError):
                registry.create(name, context, bogus=1)


# ----------------------------------------------------------------------
# Byte-identity: plugging the defaults changes nothing
# ----------------------------------------------------------------------
class TestDefaultPlugByteIdentity:
    """The redesign's core safety property: the default-config APC with
    ``LexMaxMinObjective``/``LRPFAdmission`` plugged explicitly produces
    byte-for-byte the run of the unplugged controller, for two seeds, on
    clusters below and at ``SPEC_TABLES_MIN_NODES`` (so both load
    distributors run)."""

    @staticmethod
    def run_json(policy_params, seed, nodes):
        scenario = Scenario(
            name="identity",
            nodes=nodes,
            job_count=4 * nodes,
            interarrival=40.0,
            seed=seed,
            policy="apc",
            policy_params=policy_params,
        )
        sim = Simulation.from_scenario(scenario, decision_clock=ZERO_CLOCK)
        sim.run()
        # The embedded scenario dict legitimately differs (it records the
        # plug request); everything the run *produced* must not.
        return json.dumps(
            {
                "metrics": sim.simulator.metrics.state_dict(),
                "final": sim.snapshot()["simulator"],
            },
            sort_keys=True,
        )

    @pytest.mark.parametrize("spec_tables", [True, False])
    @pytest.mark.parametrize("seed", [0, 1000])
    def test_identical(self, seed, spec_tables):
        nodes = SPEC_TABLES_MIN_NODES if spec_tables else 4
        default = self.run_json({}, seed, nodes)
        plugged = self.run_json(
            {
                "objective": {"name": "lex_maxmin"},
                "admission": {"name": "lrpf"},
            },
            seed,
            nodes,
        )
        assert default == plugged

