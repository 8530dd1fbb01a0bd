"""Job queue: the scheduler's view of all submitted jobs.

Long-running jobs are submitted to the system via the job scheduler,
placed in its queue, and dispatched based on the resource allocation
decisions of the management system (§3.1).  The queue keeps jobs in
submission order (ties broken by submission sequence) and provides the
status-partitioned views the policies and the controller need.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.batch.job import Job, JobStatus
from repro.errors import SchedulingError


class JobQueue:
    """All jobs known to the scheduler, in submission order.

    Constructed empty, or pre-populated via the keyword-only ``jobs``
    argument (each is submitted in iteration order, as if by
    :meth:`submit`).

    ``bind_registry`` attaches opt-in telemetry: submissions count into
    ``repro_jobs_submitted_total`` and the queue's working-set size is
    kept in the ``repro_queue_depth`` gauge (both no-ops by default).
    """

    def __init__(self, *, jobs: Iterable[Job] = ()) -> None:
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._c_submitted = None
        self._g_depth = None
        for job in jobs:
            self.submit(job)

    def bind_registry(self, registry) -> None:
        """Publish queue telemetry into a
        :class:`~repro.obs.registry.MetricRegistry`."""
        self._c_submitted = registry.counter(
            "repro_jobs_submitted_total", "Jobs submitted to the scheduler"
        )
        self._g_depth = registry.gauge(
            "repro_queue_depth", "Jobs currently known to the scheduler"
        )
        self._g_depth.set(len(self._jobs))

    def submit(self, job: Job) -> None:
        """Register a newly submitted job."""
        if job.job_id in self._jobs:
            raise SchedulingError(f"duplicate job id: {job.job_id!r}")
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        if self._c_submitted is not None:
            self._c_submitted.inc()
            self._g_depth.set(len(self._jobs))

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise SchedulingError(f"unknown job: {job_id!r}") from None

    # ------------------------------------------------------------------
    # Snapshot / restore (crash-safe simulations)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Queue contents — every job with its runtime state, in
        submission order — as plain JSON data."""
        return {"jobs": [self._jobs[j].to_dict() for j in self._order]}

    def load_state(self, jobs: Iterable[Job]) -> None:
        """Replace the queue's contents wholesale (snapshot restore).

        Mutates this queue in place — policies and workload models hold
        it by reference — and deliberately bypasses the submission
        counter: the jobs were already counted when first submitted in
        the run being restored.  The depth gauge is refreshed.
        """
        self._jobs = {}
        self._order = []
        for job in jobs:
            if job.job_id in self._jobs:
                raise SchedulingError(f"duplicate job id: {job.job_id!r}")
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        if self._g_depth is not None:
            self._g_depth.set(len(self._jobs))

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return (self._jobs[j] for j in self._order)

    # ------------------------------------------------------------------
    # Status-partitioned views (all in submission order)
    # ------------------------------------------------------------------
    def all_jobs(self) -> List[Job]:
        return [self._jobs[j] for j in self._order]

    def incomplete(self) -> List[Job]:
        """Jobs that still have work to do (running, queued or suspended)."""
        return [j for j in self if j.is_incomplete]

    def running(self) -> List[Job]:
        return [j for j in self if j.status is JobStatus.RUNNING]

    def not_started(self) -> List[Job]:
        """Jobs waiting in the queue, never yet dispatched."""
        return [j for j in self if j.status is JobStatus.NOT_STARTED]

    def suspended(self) -> List[Job]:
        return [j for j in self if j.status is JobStatus.SUSPENDED]

    def completed(self) -> List[Job]:
        return [j for j in self if j.status is JobStatus.COMPLETED]

    def pending(self) -> List[Job]:
        """Jobs that are incomplete but not currently running."""
        return [j for j in self if j.is_incomplete and j.status is not JobStatus.RUNNING]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def deadline_satisfaction_rate(self) -> float:
        """Fraction of *completed* jobs that met their goal (Figure 3)."""
        done = self.completed()
        if not done:
            return float("nan")
        met = sum(1 for j in done if j.met_deadline())
        return met / len(done)

    def total_placement_changes(self) -> int:
        """Suspends + resumes + migrations across all jobs (Figure 4)."""
        return sum(
            j.suspend_count + j.resume_count + j.migration_count for j in self
        )

    def prune_completed(self) -> List[Job]:
        """Drop completed jobs from the queue, returning them.

        Long experiments submit hundreds of jobs; pruning keeps the
        controller's working set proportional to the *incomplete* jobs.
        Dropped jobs remain owned by the caller (metrics recorders hold
        their own references).
        """
        dropped: List[Job] = []
        for job_id in [j.job_id for j in self.completed()]:
            dropped.append(self._jobs.pop(job_id))
            self._order.remove(job_id)
        if self._g_depth is not None and dropped:
            self._g_depth.set(len(self._jobs))
        return dropped
