"""Rival schedulers from the related work, on the policy-arena API.

Two placement strategies the paper never ran against, mapped onto this
library's job/node model so the tournament harness can pit them against
the APC and the §5 baselines:

* :class:`ProportionalFairnessPolicy` — Bonald & Roberts, *Enhanced
  Cluster Computing Performance Through Proportional Fairness*
  (arXiv:1404.2266).  Every incomplete job that fits in memory is
  admitted; each node's CPU is divided among its jobs by progressive
  water-filling of *equal shares* (the proportional-fair allocation for
  equally weighted jobs on a single resource), capped at each job's
  maximum speed.  No job ever starves, at the cost of ignoring
  deadlines entirely.
* :class:`DFRSPolicy` — Stillwell, Schanzenbach, Vivien & Casanova,
  *Resource Allocation using Virtual Clusters* / *Dynamic Fractional
  Resource Scheduling vs. Batch Scheduling* (arXiv:1006.5376,
  arXiv:1106.4985).  Jobs receive *fractional* CPU allocations sized to
  equalize **yield** (allocated speed / maximum speed): placement
  balances committed maximum speed across nodes (longest-processing-time
  first), each node then scales its jobs to a common yield, and the
  whole placement is repacked when the worst node's yield falls too far
  behind the best — the papers' periodic rebalancing step.

Both policies are pure functions of (cluster, queue, current placement,
time): they carry no mutable decision state, so they run unmodified
under faults (unavailable nodes expose zero capacity and are skipped),
snapshot/restore (the scenario rebuilds them; all job state lives in the
queue), telemetry, and audit — exactly like the built-in baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro._compat import from_mapping, keyword_only
from repro.batch.job import Job
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.placement import PlacementState
from repro.errors import ConfigurationError
from repro.policies.base import build_batch_state, current_assignment
from repro.units import EPSILON, is_count, is_finite_real


@keyword_only
@dataclass
class ProportionalFairnessConfig:
    """Tunables of :class:`ProportionalFairnessPolicy`.  Construct with
    keyword arguments.

    Attributes
    ----------
    max_jobs_per_node:
        Cap on jobs sharing one node, an integer >= 1 (``None`` = memory
        is the only admission limit).  Bounding the multiprogramming
        level trades some of PF's work-conservation for less CPU
        dilution per job.
    """

    max_jobs_per_node: Optional[int] = None

    def __post_init__(self) -> None:
        cap = self.max_jobs_per_node
        if cap is not None and not (is_count(cap) and cap >= 1):
            raise ConfigurationError(
                f"max_jobs_per_node must be None or an integer >= 1, "
                f"got {cap!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return {"max_jobs_per_node": self.max_jobs_per_node}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ProportionalFairnessConfig":
        """Build from a plain dict (inverse of :meth:`to_dict`); unknown
        keys are rejected to surface config typos."""
        return from_mapping(cls, data)


def pf_assign(
    jobs: Sequence[Job],
    cluster: Cluster,
    current: Mapping[str, str],
    max_jobs_per_node: Optional[int] = None,
) -> Dict[str, str]:
    """Proportional-fairness job→node assignment.

    Admission is memory-bound only: CPU is shared fractionally, so it
    never blocks a job.  Jobs keep their current node while it still
    fits (placement stability); new jobs go to the node with the fewest
    resident jobs (ties: most free memory, then cluster order), which
    keeps per-node shares — and therefore per-job rates — balanced.
    """
    jobs_by_id = {j.job_id: j for j in jobs if j.is_incomplete}
    free_mem = {n.name: n.memory_capacity for n in cluster}
    capacity = {n.name: n.cpu_capacity for n in cluster}
    population = {n.name: 0 for n in cluster}
    order = {n: i for i, n in enumerate(cluster.node_names)}
    assignment: Dict[str, str] = {}

    def admit(job: Job, node: str) -> None:
        assignment[job.job_id] = node
        free_mem[node] -= job.memory_mb
        population[node] += 1

    # Sticky pass: resident jobs keep their node when it still fits.
    for job in jobs_by_id.values():
        node = current.get(job.job_id)
        if node is None or node not in free_mem:
            continue
        if capacity[node] <= EPSILON:  # node unavailable
            continue
        if free_mem[node] + EPSILON < job.memory_mb:
            continue
        if (
            max_jobs_per_node is not None
            and population[node] >= max_jobs_per_node
        ):
            continue
        admit(job, node)

    # Balance pass: spread the rest over the least-populated nodes.
    for job in jobs_by_id.values():
        if job.job_id in assignment:
            continue
        hosts = [
            n
            for n in cluster.node_names
            if capacity[n] > EPSILON
            and free_mem[n] + EPSILON >= job.memory_mb
            and (
                max_jobs_per_node is None
                or population[n] < max_jobs_per_node
            )
        ]
        if not hosts:
            continue
        target = min(
            hosts,
            key=lambda n: (population[n], -free_mem[n], order[n]),
        )
        admit(job, target)
    return assignment


def pf_speeds(
    assignment: Mapping[str, str],
    jobs_by_id: Mapping[str, Job],
    cluster: Cluster,
) -> Dict[str, float]:
    """Water-filled equal CPU shares per node, capped at max speed.

    The proportional-fair allocation for equally weighted jobs sharing
    one resource: repeatedly grant the job with the smallest cap
    ``min(max_speed, remaining / jobs_left)``, so saturated jobs return
    their surplus to the pool.  Deterministic: jobs are visited in
    ascending (max_speed, assignment-order) order.
    """
    by_node: Dict[str, List[str]] = {}
    for job_id, node in assignment.items():
        by_node.setdefault(node, []).append(job_id)
    speeds: Dict[str, float] = {}
    for node, job_ids in by_node.items():
        remaining = cluster.node(node).cpu_capacity
        ordered = sorted(job_ids, key=lambda j: jobs_by_id[j].max_speed)
        left = len(ordered)
        for job_id in ordered:
            share = remaining / left if left else 0.0
            grant = min(jobs_by_id[job_id].max_speed, share)
            speeds[job_id] = grant
            remaining -= grant
            left -= 1
    return speeds


class ProportionalFairnessPolicy:
    """Proportional fairness (Bonald & Roberts) as a placement policy."""

    def __init__(
        self,
        cluster: Cluster,
        queue: JobQueue,
        config: Optional[ProportionalFairnessConfig] = None,
    ) -> None:
        self.name = "PF"
        self._cluster = cluster
        self._queue = queue
        self.config = config or ProportionalFairnessConfig()

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        del now
        jobs = self._queue.incomplete()
        assignment = pf_assign(
            jobs,
            self._cluster,
            current_assignment(current, self._queue),
            max_jobs_per_node=self.config.max_jobs_per_node,
        )
        jobs_by_id = {j.job_id: j for j in jobs}
        speeds = pf_speeds(assignment, jobs_by_id, self._cluster)
        return build_batch_state(
            self._cluster, self._queue, assignment, speeds=speeds
        )


@keyword_only
@dataclass
class DFRSConfig:
    """Tunables of :class:`DFRSPolicy`.  Construct with keyword
    arguments.

    Attributes
    ----------
    rebalance_threshold:
        Maximum tolerated yield spread (best node's yield minus worst
        node's) before the whole placement is repacked from scratch.
        0 repacks whenever any imbalance exists (maximum migration
        churn); large values make placement sticky, and ``inf`` never
        repacks.
    """

    rebalance_threshold: float = 0.25

    def __post_init__(self) -> None:
        # NaN would compare false against every spread: never repack.
        value = self.rebalance_threshold
        if not ((is_finite_real(value) or value == math.inf) and value >= 0):
            raise ConfigurationError(
                f"rebalance_threshold must be a number >= 0 (inf: never "
                f"repack), got {value!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-serializable representation (round-trips through
        :meth:`from_dict`)."""
        return {"rebalance_threshold": self.rebalance_threshold}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DFRSConfig":
        """Build from a plain dict (inverse of :meth:`to_dict`); unknown
        keys are rejected to surface config typos."""
        return from_mapping(cls, data)


def dfrs_assign(
    jobs: Sequence[Job],
    cluster: Cluster,
    current: Mapping[str, str],
    rebalance_threshold: float,
) -> Dict[str, str]:
    """DFRS job→node assignment: balance committed speed, repack on
    excessive yield spread.

    Sticky pass first (jobs keep their node while memory fits), then a
    longest-processing-time-first balance pass for the rest: each job
    goes to the node with the lowest committed-speed/capacity ratio that
    fits it.  If the resulting per-node yields — ``min(1, capacity /
    committed max speed)``, with idle available nodes counting as yield
    1 (a job moved there would run unthrottled) — spread wider than
    ``rebalance_threshold``, everything is repacked from an empty
    cluster with the same LPT rule (the papers' periodic rebalancing),
    trading migrations for restored fairness.
    """
    jobs_by_id = {j.job_id: j for j in jobs if j.is_incomplete}
    capacity = {n.name: n.cpu_capacity for n in cluster}
    order = {n: i for i, n in enumerate(cluster.node_names)}

    def lpt_pack(
        sticky: Mapping[str, str],
    ) -> Dict[str, str]:
        free_mem = {n.name: n.memory_capacity for n in cluster}
        committed = {n.name: 0.0 for n in cluster}
        assignment: Dict[str, str] = {}
        for job_id, node in sticky.items():
            job = jobs_by_id[job_id]
            assignment[job_id] = node
            free_mem[node] -= job.memory_mb
            committed[node] += job.max_speed
        pending = [
            j for j in jobs_by_id.values() if j.job_id not in assignment
        ]
        # LPT: biggest CPU demand first (ties: submission order, which
        # the queue's `incomplete()` ordering provides and stable sort
        # preserves).
        pending.sort(key=lambda j: -j.max_speed)
        for job in pending:
            hosts = [
                n
                for n in cluster.node_names
                if capacity[n] > EPSILON
                and free_mem[n] + EPSILON >= job.memory_mb
            ]
            if not hosts:
                continue
            target = min(
                hosts,
                key=lambda n: (committed[n] / capacity[n], order[n]),
            )
            assignment[job.job_id] = target
            free_mem[target] -= job.memory_mb
            committed[target] += job.max_speed
        return assignment

    sticky: Dict[str, str] = {}
    free_mem = {n.name: n.memory_capacity for n in cluster}
    for job in jobs_by_id.values():
        node = current.get(job.job_id)
        if node is None or node not in free_mem:
            continue
        if capacity[node] <= EPSILON:  # node unavailable
            continue
        if free_mem[node] + EPSILON < job.memory_mb:
            continue
        sticky[job.job_id] = node
        free_mem[node] -= job.memory_mb

    assignment = lpt_pack(sticky)

    # Yield audit: repack when the spread exceeds the threshold.
    committed = {n.name: 0.0 for n in cluster}
    for job_id, node in assignment.items():
        committed[node] += jobs_by_id[job_id].max_speed
    yields = [
        min(1.0, capacity[n] / committed[n])
        if committed[n] > EPSILON
        else 1.0
        for n in committed
        if capacity[n] > EPSILON
    ]
    if yields and max(yields) - min(yields) > rebalance_threshold:
        return lpt_pack({})
    return assignment


class DFRSPolicy:
    """Dynamic fractional resource scheduling (Stillwell et al.)."""

    def __init__(
        self,
        cluster: Cluster,
        queue: JobQueue,
        config: Optional[DFRSConfig] = None,
    ) -> None:
        self.name = "DFRS"
        self._cluster = cluster
        self._queue = queue
        self.config = config or DFRSConfig()

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        del now
        jobs = self._queue.incomplete()
        assignment = dfrs_assign(
            jobs,
            self._cluster,
            current_assignment(current, self._queue),
            self.config.rebalance_threshold,
        )
        # build_batch_state's default speed assignment — max speed scaled
        # by capacity/demand on oversubscription — *is* the equal-yield
        # allocation: every job on a node gets the same fraction of its
        # maximum speed.
        return build_batch_state(self._cluster, self._queue, assignment)
