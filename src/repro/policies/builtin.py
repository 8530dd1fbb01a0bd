"""The paper's policies: the APC wrapper, the §5 baselines, and helpers.

* :class:`APCPolicy` — the paper's controller (wraps
  :class:`~repro.core.apc.ApplicationPlacementController` and the
  workload models);
* :class:`FCFSPolicy` / :class:`EDFPolicy` — the Experiment Two baselines
  (batch-only, running jobs at maximum speed);
* :class:`LRPFPolicy` — the paper's §1 lowest-relative-performance-first
  ordering as a standalone greedy baseline (this library's extension);
* :class:`PartitionedPolicy` — Experiment Three's static configurations:
  a fixed set of nodes dedicated to the transactional workload, the rest
  handed to a batch policy (the paper uses FCFS);
* :class:`ScriptedPolicy` — a deterministic replay harness for tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.batch.policies import edf_assign, fcfs_assign, lrpf_assign
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCResult, ApplicationPlacementController
from repro.core.placement import PlacementState
from repro.core.workload import WorkloadModel
from repro.errors import ConfigurationError
from repro.policies.base import build_batch_state, current_assignment
from repro.txn.application import TransactionalApp
from repro.units import EPSILON


class ScriptedPolicy:
    """Replays a scripted sequence of placement decisions.

    A deterministic harness for tests and examples: control cycle ``i``
    calls ``steps[i](current, now)``; once the script is exhausted the
    policy echoes the current placement (an identity decision), which —
    combined with the fault-injection extension — means "accept whatever
    the cluster actually looks like".
    """

    def __init__(self, steps: Sequence) -> None:
        self.name = "Scripted"
        self._steps = list(steps)
        self._next = 0

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        if self._next < len(self._steps):
            step = self._steps[self._next]
            self._next += 1
            return step(current, now)
        return current.copy()


class FCFSPolicy:
    """First-Come First-Served, non-preemptive, first-fit (§5.2)."""

    def __init__(self, cluster: Cluster, queue: JobQueue):
        self.name = "FCFS"
        self._cluster = cluster
        self._queue = queue

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        del now
        jobs = self._queue.incomplete()
        assignment = fcfs_assign(
            jobs, self._cluster, current_assignment(current, self._queue)
        )
        return build_batch_state(self._cluster, self._queue, assignment)


class EDFPolicy:
    """Earliest Deadline First, preemptive, first-fit (§5.2)."""

    def __init__(self, cluster: Cluster, queue: JobQueue):
        self.name = "EDF"
        self._cluster = cluster
        self._queue = queue

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        del now
        jobs = self._queue.incomplete()
        assignment = edf_assign(
            jobs, self._cluster, current_assignment(current, self._queue)
        )
        return build_batch_state(self._cluster, self._queue, assignment)


class LRPFPolicy:
    """Lowest-relative-performance-first as a standalone greedy policy.

    The paper proposes LRPF as its batch-job ordering (§1); the full
    controller embeds it in the utility-vector search.  This policy
    applies the ordering directly (preemptive, first-fit) — a middle
    baseline between EDF and the APC."""

    def __init__(self, cluster: Cluster, queue: JobQueue):
        self.name = "LRPF"
        self._cluster = cluster
        self._queue = queue

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        jobs = self._queue.incomplete()
        assignment = lrpf_assign(
            jobs, self._cluster, current_assignment(current, self._queue), now
        )
        return build_batch_state(self._cluster, self._queue, assignment)


class APCPolicy:
    """The paper's controller: RPF-driven dynamic application placement."""

    def __init__(
        self,
        controller: ApplicationPlacementController,
        models: Sequence[WorkloadModel],
    ) -> None:
        self.name = "APC"
        self._controller = controller
        self._models = list(models)
        self.last_result: Optional[APCResult] = None

    @property
    def controller(self) -> ApplicationPlacementController:
        return self._controller

    @property
    def models(self) -> List[WorkloadModel]:
        return list(self._models)

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        result = self._controller.place(self._models, current, now)
        self.last_result = result
        return result.state


class PartitionedPolicy:
    """Static partitioning: dedicated transactional nodes + batch policy.

    Experiment Three's second and third configurations: "a system that has
    been partitioned into two groups of machines, each group dedicated to
    either the transactional or the long-running workload", with FCFS on
    the batch partition.  The transactional application receives its full
    partition's CPU (up to its saturation point) every cycle.
    """

    def __init__(
        self,
        cluster: Cluster,
        txn_node_names: Sequence[str],
        txn_app: TransactionalApp,
        queue: JobQueue,
        batch_policy_factory=FCFSPolicy,
    ) -> None:
        if not txn_node_names:
            raise ConfigurationError("transactional partition must be non-empty")
        unknown = [n for n in txn_node_names if n not in cluster]
        if unknown:
            raise ConfigurationError(f"unknown nodes in txn partition: {unknown}")
        self._cluster = cluster
        self._txn_nodes = list(txn_node_names)
        self._txn_app = txn_app
        self._queue = queue
        batch_names = [n for n in cluster.node_names if n not in set(txn_node_names)]
        if not batch_names:
            raise ConfigurationError("batch partition must be non-empty")
        self._batch_cluster = cluster.subcluster(batch_names)
        self._batch_policy = batch_policy_factory(self._batch_cluster, queue)
        self.name = (
            f"TX {len(self._txn_nodes)} nodes, "
            f"LR {len(batch_names)} nodes ({self._batch_policy.name})"
        )

    def decide(self, current: PlacementState, now: float) -> PlacementState:
        # Batch side: delegate to the inner policy on the batch subcluster,
        # then transplant into a full-cluster placement.
        batch_current = PlacementState(self._batch_cluster)
        jobs_by_id = {j.job_id: j for j in self._queue.incomplete()}
        for job_id, job in jobs_by_id.items():
            for node in current.nodes_of(job_id):
                if node in self._batch_cluster:
                    batch_current.place(job_id, node, job.memory_mb)
        batch_state = self._batch_policy.decide(batch_current, now)

        state = PlacementState(self._cluster)
        for job_id in batch_state.app_ids:
            for node, count in batch_state.instances(job_id).items():
                state.place(job_id, node, jobs_by_id[job_id].memory_mb, count)
                state.set_cpu(job_id, node, batch_state.cpu_on(job_id, node))

        # Transactional side: one instance per dedicated (available) node,
        # granted the whole partition's CPU up to the saturation point.
        usable = [
            n for n in self._txn_nodes if self._cluster.node(n).available
        ]
        rpf = self._txn_app.rpf_at(now)
        budget = min(
            rpf.saturation_cpu,
            sum(self._cluster.node(n).cpu_capacity for n in usable),
        )
        for node in usable:
            state.place(self._txn_app.app_id, node, self._txn_app.memory_mb)
        remaining = budget
        for node in usable:
            if remaining <= EPSILON:
                break
            grant = min(remaining, self._cluster.node(node).cpu_capacity)
            state.set_cpu(self._txn_app.app_id, node, grant)
            remaining -= grant
        return state
