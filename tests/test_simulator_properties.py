"""Property-based invariants for the full simulator.

Random workloads under each policy must preserve the physical
invariants — no overcommit, conservation of work, sensible completion
accounting — regardless of the load regime hypothesis draws.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.job import Job, JobProfile
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.policies import APCPolicy, EDFPolicy, FCFSPolicy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.virt.costs import FREE_COST_MODEL, PAPER_COST_MODEL


def job_strategy():
    return st.builds(
        dict,
        work=st.floats(min_value=500, max_value=20_000),
        max_speed=st.sampled_from([250.0, 500.0, 1000.0]),
        memory=st.sampled_from([400.0, 750.0, 1500.0]),
        submit=st.floats(min_value=0, max_value=60),
        goal_factor=st.floats(min_value=1.1, max_value=8.0),
    )


def build_jobs(specs):
    jobs = []
    for i, spec in enumerate(specs):
        profile = JobProfile.single_stage(
            work_mcycles=spec["work"],
            max_speed_mhz=spec["max_speed"],
            memory_mb=spec["memory"],
        )
        jobs.append(
            Job.with_goal_factor(
                job_id=f"j{i:02d}",
                profile=profile,
                submit_time=spec["submit"],
                goal_factor=spec["goal_factor"],
            )
        )
    jobs.sort(key=lambda j: j.submit_time)
    return jobs


def run_policy(policy_name, jobs, costs=FREE_COST_MODEL):
    cluster = Cluster.homogeneous(2, cpu_capacity=2000, memory_capacity=2000)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue)
    if policy_name == "APC":
        controller = ApplicationPlacementController(
            cluster, APCConfig(cycle_length=10.0)
        )
        policy = APCPolicy(controller, [batch])
    elif policy_name == "EDF":
        policy = EDFPolicy(cluster, queue)
    else:
        policy = FCFSPolicy(cluster, queue)
    sim = MixedWorkloadSimulator(
        cluster, policy, queue, arrivals=jobs, batch_model=batch,
        config=SimulationConfig(cycle_length=10.0, cost_model=costs),
    )
    metrics = sim.run()
    return sim, queue, metrics


@given(specs=st.lists(job_strategy(), min_size=1, max_size=8),
       policy=st.sampled_from(["FCFS", "EDF", "APC"]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_all_jobs_complete_exactly_once(specs, policy):
    jobs = build_jobs(specs)
    _, _, metrics = run_policy(policy, jobs)
    assert len(metrics.completions) == len(jobs)
    assert len({c.job_id for c in metrics.completions}) == len(jobs)
    # The simulator prunes completed jobs from the queue, so check the
    # submitted objects themselves.
    for job in jobs:
        assert job.is_complete
        assert job.cpu_consumed == pytest.approx(job.profile.total_work)


@given(specs=st.lists(job_strategy(), min_size=1, max_size=8),
       policy=st.sampled_from(["FCFS", "EDF", "APC"]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_completion_times_respect_physics(specs, policy):
    """No job finishes before its earliest possible completion, and the
    whole batch cannot finish before the work/capacity bound."""
    jobs = build_jobs(specs)
    _, _, metrics = run_policy(policy, jobs)
    by_id = {j.job_id: j for j in jobs}
    for c in metrics.completions:
        job = by_id[c.job_id]
        best = job.submit_time + job.profile.best_execution_time
        assert c.completion_time >= best - 1e-6
    total_work = sum(j.profile.total_work for j in jobs)
    first_submit = min(j.submit_time for j in jobs)
    last_completion = max(c.completion_time for c in metrics.completions)
    cluster_capacity = 2 * 2000.0
    assert last_completion >= first_submit + total_work / cluster_capacity - 1e-6


@given(specs=st.lists(job_strategy(), min_size=2, max_size=8))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_placement_state_valid_every_cycle(specs):
    """Drive the APC directly and validate the state after each cycle."""
    jobs = build_jobs(specs)
    cluster = Cluster.homogeneous(2, cpu_capacity=2000, memory_capacity=2000)
    queue = JobQueue()
    batch = BatchWorkloadModel(queue)
    controller = ApplicationPlacementController(cluster, APCConfig(cycle_length=10.0))
    from repro.core.placement import PlacementState

    state = PlacementState(cluster)
    pending = list(jobs)
    now = 0.0
    for _ in range(12):
        while pending and pending[0].submit_time <= now:
            queue.submit(pending.pop(0))
        result = controller.place([batch], state, now)
        state = result.state
        state.validate()
        # advance placed jobs by their allocation for one cycle
        for job in queue.incomplete():
            speed = min(result.allocations.get(job.job_id, 0.0), job.max_speed)
            job.advance(speed * 10.0)
            if job.remaining_work <= 1e-9:
                from repro.batch.job import JobStatus

                job.status = JobStatus.COMPLETED
                job.completion_time = now + 10.0
        now += 10.0


@given(specs=st.lists(job_strategy(), min_size=1, max_size=5))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_action_costs_only_delay(specs):
    """Action costs push every job past its cost-inclusive lower bound.

    Per-job paid-vs-free monotonicity is NOT a sound property under
    contention: delaying one job reshuffles EDF's allocations, and a
    classic scheduling anomaly can finish a *different* job earlier than
    in the free-cost run.  What costs do guarantee: every job boots
    exactly once before progressing, so its completion is at or after
    submit + boot + best execution time; and with a single job (no
    contention, no reshuffling) the paid run can never beat the free one.
    """
    jobs_free = build_jobs(specs)
    jobs_paid = build_jobs(specs)
    _, _, free = run_policy("EDF", jobs_free, costs=FREE_COST_MODEL)
    _, _, paid = run_policy("EDF", jobs_paid, costs=PAPER_COST_MODEL)
    by_id = {j.job_id: j for j in jobs_paid}
    for c in paid.completions:
        job = by_id[c.job_id]
        bound = (job.submit_time
                 + PAPER_COST_MODEL.boot_cost(
                     max(s.memory_mb for s in job.profile.stages))
                 + job.profile.best_execution_time)
        assert c.completion_time >= bound - 1e-6
    if len(specs) == 1:
        free_by_id = {c.job_id: c.completion_time for c in free.completions}
        for c in paid.completions:
            assert c.completion_time >= free_by_id[c.job_id] - 1e-6
