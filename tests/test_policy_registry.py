"""The string-keyed placement-policy registry.

Covers :class:`~repro.policies.PolicyRegistry`: the default names, the
builders a scenario can reach, and the refusal of unknown names, params
and duplicate registrations.
"""

import pytest

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

    def test_unknown_params_rejected(self):
        registry = default_policy_registry()
        context = make_context(Scenario(nodes=2, job_count=2))
        for name in ("apc", "fcfs", "edf", "lrpf", "proportional_fairness",
                     "dfrs"):
            with pytest.raises(ConfigurationError):
                registry.create(name, context, bogus=1)

    @pytest.mark.parametrize(
        "params",
        [{"objective": "lex_maxmin"}, {"admission": {"name": "lrpf"}}],
        ids=["objective", "admission"],
    )
    def test_apc_refuses_the_retired_plug_params(self, params):
        """The controller has one objective and one admission order, so
        a scenario that still names one fails when its policy is built,
        naming the key, as any unknown param does."""
        (key,) = params
        scenario = Scenario(
            nodes=2, job_count=2, policy="apc", policy_params=params
        )
        with pytest.raises(ConfigurationError, match=key):
            Simulation.from_scenario(scenario)
        with pytest.raises(ConfigurationError, match=key):
            default_policy_registry().create(
                "apc", make_context(Scenario(nodes=2, job_count=2)), **params
            )
