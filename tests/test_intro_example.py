"""Integration test of the paper's §1 motivating example.

Four identical machines; a transactional application TA that initially
needs half the cluster to meet its response-time goal; four identical
batch jobs, each needing one machine for time ``t`` with completion
goal ``3t``.  At ``t/2`` TA's intensity jumps so it now needs the whole
cluster.

The intro's argument, which the controller must reproduce:

* initially, dedicating (the equivalent of) two machines to the batch
  workload lets all jobs meet their goals while TA meets its own;
* after the surge, the controller must take resources from the batch
  workload and give them to TA, spreading the violation across
  workloads instead of letting TA violate by 100%.
"""

import pytest

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.policies import APCPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.txn.application import TransactionalApp
from repro.txn.model import TransactionalWorkloadModel
from repro.txn.workload import StepTrace
from repro.virt.costs import FREE_COST_MODEL

from tests.conftest import make_job

#: One machine: 1000 MHz, 1000 MB.
NODE_CPU = 1000.0
#: Job service time at full speed ("t" in the intro).
T = 50.0
SURGE_AT = T / 2


def build_system():
    cluster = Cluster.homogeneous(4, cpu_capacity=NODE_CPU, memory_capacity=1000.0)
    # TA: requires ~2000 MHz for goal-level performance before the surge
    # and ~4000 MHz after it (per-request demand 10 Mcycles, goal 12.5 ms,
    # so required(0) = λ·10 + 800).
    ta = TransactionalApp(
        app_id="TA",
        memory_mb=200.0,
        demand_mcycles=10.0,
        response_time_goal=0.0125,
        trace=StepTrace(before=120.0, after=320.0, step_time=SURGE_AT),
        single_thread_speed_mhz=NODE_CPU,
    )
    queue = JobQueue()
    jobs = [
        make_job(f"J{i}", work=NODE_CPU * T, max_speed=NODE_CPU, memory=600.0,
                 submit=0.0, goal_factor=3.0)
        for i in range(1, 5)
    ]
    batch = BatchWorkloadModel(queue)
    controller = ApplicationPlacementController(
        cluster, APCConfig(cycle_length=10.0)
    )
    policy = APCPolicy(controller, [TransactionalWorkloadModel([ta]), batch])
    sim = MixedWorkloadSimulator(
        cluster, policy, queue, arrivals=jobs, txn_apps=[ta],
        batch_model=batch,
        config=SimulationConfig(cycle_length=10.0, cost_model=FREE_COST_MODEL),
    )
    return sim, ta


class TestIntroExample:
    def test_ta_requirements_match_the_story(self):
        _, ta = build_system()
        before = ta.rpf_at(0.0).required_cpu(0.0)
        after = ta.rpf_at(SURGE_AT).required_cpu(0.0)
        assert before == pytest.approx(2 * NODE_CPU, rel=0.01)
        assert after == pytest.approx(4 * NODE_CPU, rel=0.01)

    def test_controller_reallocates_on_the_surge(self):
        sim, ta = build_system()
        metrics = sim.run()

        allocations = {s.time: s.txn_allocation_mhz for s in metrics.cycles}
        # Before the surge TA sits near its (pre-surge) saturation, well
        # below the whole cluster, leaving machines for the jobs.
        pre = allocations[10.0]
        assert 1500.0 <= pre <= 2600.0
        # After the surge TA's allocation grows substantially.
        post = max(
            alloc for time, alloc in allocations.items() if time >= SURGE_AT + 10
        )
        assert post > pre + 800.0

        # The violation is *spread*: with no reallocation TA would be
        # unstable (offered load 3200 MHz > its 2200 MHz share — an
        # unbounded response-time violation); with reallocation every
        # workload lands at the same bounded violation level.
        post_surge_utilities = [
            s.txn_utilities["TA"]
            for s in metrics.cycles
            if s.time >= SURGE_AT + 10 and "TA" in s.txn_utilities
        ]
        ta_floor = min(post_surge_utilities)
        assert ta_floor > -3.0  # bounded, nowhere near the unstable -50
        assert len(metrics.completions) == 4
        # Fairness: the jobs' relative performance at completion matches
        # TA's equalized level.
        for c in metrics.completions:
            assert c.relative_performance == pytest.approx(ta_floor, abs=0.2)

    def test_jobs_meet_goals_before_the_surge_would(self):
        """Sanity: without the surge (constant low TA load), all four
        jobs meet their 3t goals — the intro's second configuration."""
        sim, ta = build_system()
        ta.trace = StepTrace(before=120.0, after=120.0, step_time=SURGE_AT)
        metrics = sim.run()
        assert metrics.deadline_satisfaction_rate() == 1.0
