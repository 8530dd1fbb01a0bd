"""Capacity planning: size a cluster for a workload mix.

Answers the sizing questions Experiment Three's static partitions get
wrong by construction:

* :func:`transactional_capacity_required` — CPU needed for a web
  application to hold a target relative performance (the inverse RPF,
  §3.3, exposed as a planning primitive);
* :func:`minimum_nodes_for_batch` — the smallest node count at which a
  batch stream meets a target deadline-satisfaction rate, found by
  binary search over fast simulations with the chosen policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.batch.job import Job
from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster, NodeSpec
from repro.core.apc import APCConfig
from repro.errors import ConfigurationError
from repro.policies import PolicyContext, build_policy
from repro.sim.simulator import MixedWorkloadSimulator, SimulationConfig
from repro.txn.application import TransactionalApp


def transactional_capacity_required(
    app: TransactionalApp, target_utility: float, now: float = 0.0
) -> float:
    """CPU (MHz) the application needs for relative performance
    ``target_utility`` at its current intensity; ``inf`` if unreachable."""
    return app.rpf_at(now).required_cpu(target_utility)


@dataclass
class CapacityPlan:
    """Outcome of :func:`minimum_nodes_for_batch`."""

    nodes: int
    deadline_satisfaction: float
    evaluations: int

    def __repr__(self) -> str:
        return (
            f"CapacityPlan(nodes={self.nodes}, "
            f"satisfaction={self.deadline_satisfaction:.3f}, "
            f"evaluations={self.evaluations})"
        )


def _clone_jobs(jobs: Sequence[Job]) -> list:
    """Fresh runtime state for every evaluation (jobs are mutable)."""
    clones = []
    for job in jobs:
        clones.append(
            Job(
                job_id=job.job_id,
                profile=job.profile,
                submit_time=job.submit_time,
                completion_goal=job.completion_goal,
                desired_start=job.desired_start,
                parallelism=job.parallelism,
            )
        )
    return clones


def _evaluate(
    jobs: Sequence[Job],
    node_spec: NodeSpec,
    nodes: int,
    cycle_length: float,
    policy_name: str,
) -> float:
    cluster = Cluster.homogeneous(
        nodes,
        cpu_capacity=node_spec.cpu_capacity,
        memory_capacity=node_spec.memory_capacity,
        cpu_per_processor=node_spec.cpu_per_processor,
    )
    queue = JobQueue()
    batch = BatchWorkloadModel(queue, queue_window=32)
    policy = build_policy(
        policy_name.lower(),
        PolicyContext(
            cluster=cluster,
            queue=queue,
            batch_model=batch,
            apc_config=APCConfig(cycle_length=cycle_length),
        ),
    )
    sim = MixedWorkloadSimulator(
        cluster,
        policy,
        queue,
        arrivals=_clone_jobs(jobs),
        batch_model=batch,
        config=SimulationConfig(cycle_length=cycle_length),
    )
    metrics = sim.run()
    return metrics.deadline_satisfaction_rate()


def minimum_nodes_for_batch(
    jobs: Sequence[Job],
    node_spec: NodeSpec,
    target_satisfaction: float = 0.95,
    max_nodes: int = 64,
    cycle_length: float = 600.0,
    policy: str = "APC",
) -> CapacityPlan:
    """Binary-search the smallest cluster meeting the target.

    Deadline satisfaction is monotone non-decreasing in node count for
    work-conserving policies on a fixed stream (more capacity never
    hurts), so bisection applies.  Each probe runs a full simulation on
    cloned jobs.
    """
    if not jobs:
        raise ConfigurationError("cannot plan capacity for an empty workload")
    if not 0 < target_satisfaction <= 1.0:
        raise ConfigurationError(
            f"target satisfaction must be in (0, 1], got {target_satisfaction}"
        )
    if max_nodes < 1:
        raise ConfigurationError(f"max nodes must be >= 1, got {max_nodes}")
    if policy not in ("APC", "FCFS"):
        raise ConfigurationError(f"policy must be APC or FCFS, got {policy!r}")

    # Every job must fit a single node at all.
    peak_memory = max(j.memory_mb for j in jobs)
    if peak_memory > node_spec.memory_capacity:
        raise ConfigurationError(
            f"a job needs {peak_memory} MB; nodes only have "
            f"{node_spec.memory_capacity} MB"
        )

    evaluations = 0

    def satisfied(n: int) -> float:
        nonlocal evaluations
        evaluations += 1
        return _evaluate(jobs, node_spec, n, cycle_length, policy)

    hi_rate = satisfied(max_nodes)
    if hi_rate < target_satisfaction:
        return CapacityPlan(
            nodes=max_nodes, deadline_satisfaction=hi_rate, evaluations=evaluations
        )
    lo, hi = 1, max_nodes
    best_rate = hi_rate
    while lo < hi:
        mid = (lo + hi) // 2
        rate = satisfied(mid)
        if rate >= target_satisfaction:
            hi = mid
            best_rate = rate
        else:
            lo = mid + 1
    return CapacityPlan(
        nodes=hi, deadline_satisfaction=best_rate, evaluations=evaluations
    )
