"""Baseline job-scheduling policies: FCFS and EDF (§5.2).

Experiment Two compares the paper's controller against two "simple,
effective, and well-known scheduling algorithms":

* **First-Come, First-Served** — non-preemptive: running jobs are never
  disturbed; queued jobs are dispatched in submission order, each to the
  first node (first-fit) with enough free memory and CPU to run it at its
  maximum speed.  A job that fits nowhere blocks the queue (head-of-line
  blocking — the classical non-preemptive discipline).
* **Earliest Deadline First** — preemptive: every decision point, all
  incomplete jobs are ranked by absolute deadline; nodes are packed in
  that order (first-fit, but a job already placed keeps its node when it
  still fits, avoiding gratuitous migrations); jobs that no longer fit
  are preempted (suspended).

Both policies express decisions as a job→node assignment; speeds are
assigned separately (max speed, scaled down proportionally if a node's
CPU is oversubscribed — which first-fit avoids by construction).

The paper's own policy — ordering by *lowest relative performance first*
— is realized inside the placement controller's search; a standalone
``lrpf_order`` helper is provided here for analysis and tests.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.batch.job import Job, JobStatus
from repro.batch.rpf import JobAllocationRPF
from repro.cluster import Cluster
from repro.units import EPSILON


def _free_resources(
    cluster: Cluster,
    assignment: Mapping[str, str],
    jobs_by_id: Mapping[str, Job],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(free_memory, free_cpu) per node under ``assignment``.

    Free CPU is capacity minus the assigned jobs' *maximum* speeds — the
    budget both baselines reserve so every dispatched job can run flat out.
    """
    free_mem = {n.name: n.memory_capacity for n in cluster}
    free_cpu = {n.name: n.cpu_capacity for n in cluster}
    for job_id, node in assignment.items():
        job = jobs_by_id[job_id]
        free_mem[node] -= job.memory_mb
        free_cpu[node] -= job.max_speed
    return free_mem, free_cpu


def _first_fit(
    cluster: Cluster,
    job: Job,
    free_mem: Mapping[str, float],
    free_cpu: Mapping[str, float],
) -> Optional[str]:
    """First node (in cluster order) able to run ``job`` at max speed."""
    for node in cluster.node_names:
        if (
            free_mem[node] + EPSILON >= job.memory_mb
            and free_cpu[node] + EPSILON >= job.max_speed
        ):
            return node
    return None


def fcfs_assign(
    jobs: Sequence[Job],
    cluster: Cluster,
    current: Mapping[str, str],
) -> Dict[str, str]:
    """FCFS job→node assignment.

    ``current`` maps running job ids to their nodes; running jobs are
    never moved.  Not-started jobs are considered in the order given
    (callers pass submission order), and the first job that fits nowhere
    blocks the rest of the queue (§5.2's head-of-line blocking).
    """
    jobs_by_id = {j.job_id: j for j in jobs}
    assignment: Dict[str, str] = {
        job_id: node
        for job_id, node in current.items()
        if job_id in jobs_by_id and jobs_by_id[job_id].is_incomplete
    }
    free_mem, free_cpu = _free_resources(cluster, assignment, jobs_by_id)
    for job in jobs:
        if job.status is not JobStatus.NOT_STARTED or job.job_id in assignment:
            continue
        node = _first_fit(cluster, job, free_mem, free_cpu)
        if node is None:
            break
        assignment[job.job_id] = node
        free_mem[node] -= job.memory_mb
        free_cpu[node] -= job.max_speed
    return assignment


def edf_assign(
    jobs: Sequence[Job],
    cluster: Cluster,
    current: Mapping[str, str],
) -> Dict[str, str]:
    """EDF job→node assignment (preemptive).

    All incomplete jobs are ranked by absolute deadline (ties by
    submission order, i.e. the order of ``jobs``); resources are granted
    in that order.  A job that currently holds a node keeps it when it
    still fits at its rank; otherwise first-fit.  Jobs that fit nowhere at
    their rank are left unassigned — preempting whatever currently runs
    below them.
    """
    jobs_by_id = {j.job_id: j for j in jobs}
    ranked = sorted(
        (j for j in jobs if j.is_incomplete),
        key=lambda j: j.completion_goal,
    )
    free_mem = {n.name: n.memory_capacity for n in cluster}
    free_cpu = {n.name: n.cpu_capacity for n in cluster}
    assignment: Dict[str, str] = {}
    for job in ranked:
        preferred = current.get(job.job_id)
        candidates: List[Optional[str]] = []
        if preferred is not None:
            candidates.append(preferred)
        target: Optional[str] = None
        for node in candidates:
            if (
                node is not None
                and free_mem[node] + EPSILON >= job.memory_mb
                and free_cpu[node] + EPSILON >= job.max_speed
            ):
                target = node
                break
        if target is None:
            target = _first_fit(cluster, job, free_mem, free_cpu)
        if target is None:
            continue
        assignment[job.job_id] = target
        free_mem[target] -= job.memory_mb
        free_cpu[target] -= job.max_speed
    return assignment


def lrpf_order(jobs: Sequence[Job], now: float) -> List[Job]:
    """Jobs ordered lowest-relative-performance first (the paper's LRPF).

    The relative performance used for ordering is each job's *maximum
    achievable* relative performance from ``now`` — the value the
    hypothetical function assigns when capacity is plentiful — so the
    ordering favors the jobs with the least headroom to their goals.
    """
    incomplete = [j for j in jobs if j.is_incomplete]
    return sorted(
        incomplete, key=lambda j: JobAllocationRPF(j, now).max_utility
    )


def lrpf_assign(
    jobs: Sequence[Job],
    cluster: Cluster,
    current: Mapping[str, str],
    now: float,
) -> Dict[str, str]:
    """LRPF job→node assignment (preemptive).

    Structurally EDF with a different ranking: jobs are granted resources
    lowest-achievable-relative-performance first.  Unlike EDF's absolute
    deadline, the LRPF rank normalizes urgency by each job's relative
    goal, so a tight-goal job outranks a merely *early*-deadline one.
    This is the paper's §1 ordering as a standalone greedy policy —
    without the APC's utility-vector evaluation or churn gating — useful
    as a middle baseline between EDF and the full controller.
    """
    ranked = lrpf_order(jobs, now)
    free_mem = {n.name: n.memory_capacity for n in cluster}
    free_cpu = {n.name: n.cpu_capacity for n in cluster}
    assignment: Dict[str, str] = {}
    for job in ranked:
        preferred = current.get(job.job_id)
        target: Optional[str] = None
        if (
            preferred is not None
            and free_mem[preferred] + EPSILON >= job.memory_mb
            and free_cpu[preferred] + EPSILON >= job.max_speed
        ):
            target = preferred
        if target is None:
            target = _first_fit(cluster, job, free_mem, free_cpu)
        if target is None:
            continue
        assignment[job.job_id] = target
        free_mem[target] -= job.memory_mb
        free_cpu[target] -= job.max_speed
    return assignment


def assign_speeds(
    assignment: Mapping[str, str],
    jobs_by_id: Mapping[str, Job],
    cluster: Cluster,
) -> Dict[str, float]:
    """Per-job speeds under an assignment: max speed, scaled down
    proportionally when a node's CPU is oversubscribed."""
    per_node_demand: Dict[str, float] = {n.name: 0.0 for n in cluster}
    for job_id, node in assignment.items():
        per_node_demand[node] += jobs_by_id[job_id].max_speed
    speeds: Dict[str, float] = {}
    for job_id, node in assignment.items():
        capacity = cluster.node(node).cpu_capacity
        demand = per_node_demand[node]
        scale = 1.0 if demand <= capacity + EPSILON else capacity / demand
        speeds[job_id] = jobs_by_id[job_id].max_speed * scale
    return speeds
