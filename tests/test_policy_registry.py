"""The table of policies a scenario can name.

Covers :data:`~repro.policies.POLICY_BUILDERS` and
:func:`~repro.policies.build_policy`: the six names, the builders a
scenario reaches, and the refusal of unknown names and params at every
boundary that takes a policy name.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.arena import ArenaEntrant
from repro.policies import (
    POLICY_BUILDERS,
    APCPolicy,
    DFRSPolicy,
    EDFPolicy,
    FCFSPolicy,
    LRPFPolicy,
    PolicyContext,
    ProportionalFairnessPolicy,
    build_policy,
)
from repro.scenario import Scenario, Simulation

NAMES = ["apc", "dfrs", "edf", "fcfs", "lrpf", "proportional_fairness"]


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
        """The table holds exactly the policies a scenario can name."""
        assert sorted(POLICY_BUILDERS) == NAMES

    def test_create_builds_each_buildable_policy(self):
        context = make_context(Scenario(nodes=2, job_count=2))
        expected = {
            "apc": APCPolicy,
            "fcfs": FCFSPolicy,
            "edf": EDFPolicy,
            "lrpf": LRPFPolicy,
            "proportional_fairness": ProportionalFairnessPolicy,
            "dfrs": DFRSPolicy,
        }
        assert sorted(expected) == NAMES
        for name, cls in expected.items():
            assert isinstance(build_policy(name, context), cls)

    @pytest.mark.parametrize("name", NAMES)
    def test_every_name_runs_a_two_node_scenario(self, name):
        scenario = Scenario(
            nodes=2, workload="experiment2", job_count=6, interarrival=400.0,
            seed=1, policy=name,
        )
        metrics = Simulation.from_scenario(scenario).run()
        assert len(metrics.completions) == 6

    @pytest.mark.parametrize(
        "boundary", ["scenario", "arena_entrant", "build_policy"]
    )
    @pytest.mark.parametrize(
        "name", ["nope", "APC", "partitioned", "scripted", None, ["apc"]]
    )
    def test_unknown_names_refused_with_the_list(self, boundary, name):
        build = {
            "scenario": lambda: Scenario(policy=name),
            "arena_entrant": lambda: ArenaEntrant(name=name),
            "build_policy": lambda: build_policy(
                name, make_context(Scenario(nodes=2, job_count=2))
            ),
        }[boundary]
        with pytest.raises(ConfigurationError) as excinfo:
            build()
        assert str(NAMES) in str(excinfo.value)

    def test_unknown_params_rejected(self):
        context = make_context(Scenario(nodes=2, job_count=2))
        for name in NAMES:
            with pytest.raises(ConfigurationError, match="bogus"):
                build_policy(name, context, bogus=1)

    @pytest.mark.parametrize("value", [True, False, "false"])
    def test_fcfs_refuses_the_retired_skip_blocked(self, value):
        """FCFS is §5.2's head-of-line-blocking baseline; the backfilling
        variant is gone, so its switch is an unknown param that names
        the key, whatever it holds."""
        scenario = Scenario(
            nodes=2, job_count=2, policy="fcfs",
            policy_params={"skip_blocked": value},
        )
        with pytest.raises(ConfigurationError, match="skip_blocked"):
            Simulation.from_scenario(scenario)

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
            build_policy(
                "apc", make_context(Scenario(nodes=2, job_count=2)), **params
            )
