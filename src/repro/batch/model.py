"""Batch workload model: plugs the job queue into the placement controller.

Implements the :class:`~repro.core.workload.WorkloadModel` protocol for
long-running jobs:

* each incomplete job becomes one singleton application whose demand comes
  from its current stage and whose allocation RPF is the per-job
  hypothetical function (:class:`~repro.batch.rpf.JobAllocationRPF`);
* evaluating a candidate allocation follows §4.2 "Evaluating placement
  decisions": every placed job's consumed work ``α*`` is advanced by
  ``ω_m · T``; the hypothetical relative performance is rebuilt at
  ``t_now + T``; the aggregate batch allocation of the next cycle
  (``ω_g = Σ_m ω_m``) is assumed to persist; per-job predictions are read
  off the ``W``/``V`` interpolation (equation (6)).  Jobs that would
  finish *within* the next cycle are predicted directly from their actual
  completion time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.batch.hypothetical import (
    DEFAULT_UTILITY_LEVELS,
    HypotheticalRPF,
    MethodLike,
    PredictionMethod,
    validated_levels,
)
from repro.batch.job import Job, JobStatus
from repro.batch.queue import JobQueue
from repro.batch.rpf import JobAllocationRPF
from repro.core.loadbalance import AllocatableApp
from repro.core.placement import AppDemand
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import ConfigurationError
from repro.units import EPSILON, is_count


#: The sampling levels of every hypothetical RPF the model builds,
#: checked once: :meth:`HypotheticalRPF.from_arrays` adopts them.  Every
#: model shares the array, so it is read-only.
_LEVELS = validated_levels(DEFAULT_UTILITY_LEVELS)
_LEVELS.flags.writeable = False


def check_queue_window(value: object) -> None:
    """Reject a queue window that is neither ``None`` nor an integer
    >= 0.  A negative window would silently drop the last waiting jobs
    from every cycle's candidates, and a float would fail mid-cycle."""
    if value is not None and not is_count(value):
        raise ConfigurationError(
            f"queue_window must be None or an integer >= 0, got {value!r}"
        )


# Nothing in the controller reads SpecArrays or calls
# BatchWorkloadModel.app_spec_arrays any more.  They stay only because
# the benchmark's layer map (perfbench/layers.py) wraps that method by
# name as ``batch.spec_arrays``; both go when that layer does.
@dataclass(frozen=True)
class SpecArrays:
    """Column view of :meth:`BatchWorkloadModel.app_specs`, one row per
    incomplete job.  Arrays are adopted without copying and must be
    treated as immutable."""

    ids: List[str]
    index: Mapping[str, int]
    memory: np.ndarray  # demand.memory_mb
    min_cpu: np.ndarray  # demand.min_cpu_mhz (per instance)
    max_per_instance: np.ndarray  # demand.max_cpu_per_instance_mhz
    max_instances: np.ndarray  # float parallelism
    divisible: np.ndarray  # bool
    is_job: np.ndarray  # bool, all True
    remaining: np.ndarray
    goal: np.ndarray
    relative_goal: np.ndarray
    now: np.ndarray
    max_speed: np.ndarray  # rpf aggregate speed ceiling
    u_max: np.ndarray  # rpf.max_utility


class _JobTable:
    """Column-oriented snapshot of the incomplete-job set.

    Rebuilt whenever the job list or any job's progress changes (see
    :meth:`matches`); within one control cycle the controller freezes
    job state, so a single table, taken at
    :meth:`BatchWorkloadModel.begin_cycle`, serves every
    evaluate/specs/candidates call of the cycle.  All derived columns
    hold exactly the python floats the job properties return, so the
    array kernels built on top are bitwise equal to the per-job scalar
    computation (the reference in ``tests/reference_apc.py``).
    """

    __slots__ = (
        "jobs", "ids", "consumed",
        "rem_list", "goal_list", "rel_list", "ms_list", "rb_list", "stage_list",
        "remaining", "goal", "relative_goal", "max_speed", "remaining_best",
        "_umax_now", "_umax",
    )

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs = list(jobs)
        self.ids = [job.job_id for job in jobs]
        self.consumed = [job.cpu_consumed for job in jobs]
        rem, goal, rel, ms, rb = [], [], [], [], []
        stages = []
        for job in jobs:
            stages.append(job.current_stage)
            rem.append(job.remaining_work)
            goal.append(job.completion_goal)
            rel.append(job.relative_goal)
            ms.append(job.max_speed)
            rb.append(job.remaining_best_time)
        self.rem_list = rem
        self.goal_list = goal
        self.rel_list = rel
        self.ms_list = ms
        self.rb_list = rb
        self.stage_list = stages
        self.remaining = np.array(rem)
        self.goal = np.array(goal)
        self.relative_goal = np.array(rel)
        self.max_speed = np.array(ms)
        self.remaining_best = np.array(rb)
        self._umax_now: Optional[float] = None
        self._umax: Optional[np.ndarray] = None

    def matches(self, jobs: Sequence[Job]) -> bool:
        """Whether this table still describes ``jobs`` exactly.

        Identity of the job objects plus their progress; every other
        job attribute the model reads (stage data, goals, parallelism)
        is a pure function of progress or construction-time constants.
        """
        mine = self.jobs
        if len(jobs) != len(mine):
            return False
        if jobs is not mine and not all(map(operator.is_, jobs, mine)):
            return False
        return [job.cpu_consumed for job in jobs] == self.consumed

    def u_max_array(self, now: float) -> np.ndarray:
        """``JobAllocationRPF(job, now).max_utility`` per job."""
        if self._umax is None or self._umax_now != now:
            earliest = now + self.remaining_best
            u = (self.goal - earliest) / self.relative_goal
            self._umax = np.where(self.remaining <= EPSILON, 1.0, u)
            self._umax_now = now
        return self._umax


class BatchWorkloadModel:
    """The long-running workload as seen by the placement controller.

    Parameters
    ----------
    queue:
        The scheduler's job queue (shared, live object).
    queue_window:
        At most this many *not-started* jobs (in submission order) are
        offered as placement candidates each cycle.  All incomplete jobs
        still participate in prediction — the window only bounds the
        search space, mirroring the real system's need to keep the online
        algorithm's cycle time low.  ``None`` = no limit; otherwise an
        integer >= 0.
    prediction_method:
        A :class:`~repro.batch.hypothetical.PredictionMethod` (or its
        string value): the exact equalized-level solve or the paper's
        interpolation.

    Specs, candidates, predictions and the hypothetical RPF all run on
    a column snapshot of the incomplete jobs (:class:`_JobTable`).
    Between :meth:`begin_cycle` and :meth:`end_cycle` that snapshot is
    the one taken at ``begin_cycle``, so the queue is scanned once per
    control cycle; outside them every call scans the queue.
    """

    def __init__(
        self,
        queue: JobQueue,
        queue_window: Optional[int] = None,
        prediction_method: MethodLike = PredictionMethod.EXACT,
    ) -> None:
        check_queue_window(queue_window)
        self._queue = queue
        self._queue_window = queue_window
        self._prediction_method = PredictionMethod.coerce(prediction_method)
        #: Job-table snapshot reused across calls until a job advances.
        self._table: Optional[_JobTable] = None
        #: The cycle's view (``None``: no incomplete jobs), valid while
        #: ``_in_cycle`` is set.
        self._in_cycle = False
        self._cycle_table: Optional[_JobTable] = None
        #: AppDemand objects keyed by job id, reused while the job stays
        #: in the same stage (AppDemand is frozen, so sharing is safe).
        self._demand_cache: Dict[str, Tuple[object, AppDemand]] = {}
        #: The level the last exact solve returned: the next solve's
        #: start (consecutive candidates differ on one node).
        self._last_level: Optional[float] = None

    @property
    def queue(self) -> JobQueue:
        return self._queue

    @property
    def prediction_method(self) -> PredictionMethod:
        return self._prediction_method

    def bind_registry(self, registry) -> None:
        """Does nothing: the model publishes no metrics.  Kept so callers
        that bind every component to a registry still work."""
        del registry

    # ------------------------------------------------------------------
    # Job-table backing
    # ------------------------------------------------------------------
    def _jobs(self) -> Optional[_JobTable]:
        """The cycle's view inside a control cycle, a scan outside."""
        return self._cycle_table if self._in_cycle else self._scan()

    def _scan(self) -> Optional[_JobTable]:
        """The incomplete jobs as a table (``None`` when there are none),
        reused until a job arrives, finishes or advances."""
        jobs = self._queue.incomplete()
        if not jobs:
            return None
        table = self._table
        if table is not None and table.matches(jobs):
            return table
        table = _JobTable(jobs)
        self._table = table
        if len(self._demand_cache) > 2 * len(table.ids) + 16:
            live = set(table.ids)
            self._demand_cache = {
                job_id: entry
                for job_id, entry in self._demand_cache.items()
                if job_id in live
            }
        return table

    def _demand_for(self, job: Job, stage) -> AppDemand:
        cached = self._demand_cache.get(job.job_id)
        if cached is not None and cached[0] is stage:
            return cached[1]
        demand = AppDemand(
            app_id=job.job_id,
            memory_mb=stage.memory_mb,
            min_cpu_mhz=stage.min_speed_mhz,
            max_cpu_per_instance_mhz=stage.max_speed_mhz,
            max_instances=job.parallelism,
            divisible=job.parallelism > 1,
        )
        self._demand_cache[job.job_id] = (stage, demand)
        return demand

    def app_spec_arrays(self, now: float) -> Optional[SpecArrays]:
        """Column view of :meth:`app_specs` (``None`` when there are no
        jobs); see :class:`SpecArrays` for why it stays."""
        table = self._jobs()
        if table is None:
            return None
        ids = list(table.ids)
        stages = table.stage_list
        par = np.array([job.parallelism for job in table.jobs], dtype=float)
        return SpecArrays(
            ids=ids,
            index={job_id: i for i, job_id in enumerate(ids)},
            memory=np.array([stage.memory_mb for stage in stages]),
            min_cpu=np.array([stage.min_speed_mhz for stage in stages]),
            max_per_instance=np.array([stage.max_speed_mhz for stage in stages]),
            max_instances=par,
            divisible=par > 1,
            is_job=np.ones(len(ids), dtype=bool),
            remaining=table.remaining,
            goal=table.goal,
            relative_goal=table.relative_goal,
            now=np.full(len(ids), now),
            max_speed=table.max_speed,
            u_max=table.u_max_array(now),
        )

    # ------------------------------------------------------------------
    # WorkloadModel protocol
    # ------------------------------------------------------------------
    def begin_cycle(self, now: float) -> None:
        """Scan the queue once and answer every call until
        :meth:`end_cycle` from that job table."""
        del now
        self._cycle_table = self._scan()
        self._in_cycle = True

    def end_cycle(self) -> None:
        """Drop the cycle's view: later calls scan the queue again."""
        self._in_cycle = False
        self._cycle_table = None

    def app_specs(self, now: float) -> Dict[str, AllocatableApp]:
        """One application per incomplete job: demand from its current
        stage, allocation RPF from its hypothetical function.  Moldable
        parallel jobs (the paper's future-work extension) may spread over
        up to ``parallelism`` instances; sequential jobs are singletons."""
        table = self._jobs()
        if table is None:
            return {}
        specs: Dict[str, AllocatableApp] = {}
        rem, goal, rel = table.rem_list, table.goal_list, table.rel_list
        ms, rb = table.ms_list, table.rb_list
        for i, job in enumerate(table.jobs):
            demand = self._demand_for(job, table.stage_list[i])
            rpf = JobAllocationRPF.from_parts(
                job.job_id, now, goal[i], rel[i], rem[i], ms[i], now + rb[i]
            )
            specs[job.job_id] = AllocatableApp(demand=demand, rpf=rpf)
        return specs

    def placement_candidates(self, now: float) -> List[str]:
        table = self._jobs()
        if table is None:
            return []
        candidates: List[str] = []
        waiting: List[Job] = []
        for job in table.jobs:
            if job.status is JobStatus.NOT_STARTED:
                waiting.append(job)
            else:
                candidates.append(job.job_id)
        if self._queue_window is not None and len(waiting) > self._queue_window:
            # The window must look at the queue the way the controller
            # does — lowest relative performance first (§1's LRPF), not
            # submission order — or a deep backlog would degrade the
            # controller to FCFS for everything beyond the window.
            u_max = dict(zip(table.ids, table.u_max_array(now).tolist()))
            waiting.sort(key=lambda job: u_max[job.job_id])
            waiting = waiting[: self._queue_window]
        candidates.extend(job.job_id for job in waiting)
        return candidates

    def evaluate(
        self, allocations: Mapping[str, float], now: float, horizon: float
    ) -> Dict[str, float]:
        """Predicted relative performance of every incomplete job if the
        batch workload receives ``allocations`` for the next cycle (§4.2).

        Jobs that finish within the cycle are predicted from their actual
        completion time (equation (2) directly); the rest from the
        hypothetical RPF rebuilt at ``now + horizon`` with the aggregate
        allocation persisting.  Output order: finishing jobs in job
        order, then the hypothetical block in job order.
        """
        table = self._jobs()
        if table is None:
            return {}
        ids = table.ids
        alloc = np.fromiter(
            map(allocations.get, ids, repeat(0.0)), dtype=float, count=len(ids)
        )
        speeds = np.minimum(alloc, table.max_speed)
        speed_list = speeds.tolist()

        # sum() adds left to right, as a per-job running total would.
        aggregate = sum(speed_list)
        remaining = table.remaining
        finishing = (speeds * horizon >= remaining - EPSILON) & (
            speeds > EPSILON
        )

        utilities: Dict[str, float] = {}
        fin_idx = np.flatnonzero(finishing)
        if fin_idx.size:
            # One to five jobs per search candidate: plain floats over
            # the list columns, equation (2) at now + rem / speed, floored.
            rem, goal, rel = table.rem_list, table.goal_list, table.rel_list
            for i in fin_idx.tolist():
                completion = now + rem[i] / speed_list[i]
                u = (goal[i] - completion) / rel[i]
                utilities[ids[i]] = (
                    NEGATIVE_INFINITY_UTILITY
                    if u < NEGATIVE_INFINITY_UTILITY
                    else u
                )

        fut_idx = np.flatnonzero(~finishing)
        if fut_idx.size:
            speed = speeds[fut_idx]
            rem_old = remaining[fut_idx]
            # JobAllocationRPF(job, now + horizon, remaining_work=
            #   remaining - speed * horizon), field by field.
            rem_new = np.maximum(0.0, rem_old - speed * horizon)
            ratio = np.ones(fut_idx.size)
            np.divide(rem_new, rem_old, out=ratio, where=rem_old > EPSILON)
            rb_new = table.remaining_best[fut_idx] * ratio
            now_h = now + horizon
            earliest = now_h + rb_new
            goal = table.goal[fut_idx]
            rel = table.relative_goal[fut_idx]
            u_max = np.where(
                rem_new <= EPSILON, 1.0, (goal - earliest) / rel
            )
            fut_ids = [ids[i] for i in fut_idx.tolist()]
            hypothetical = HypotheticalRPF.from_arrays(
                fut_ids,
                remaining=rem_new,
                goal=goal,
                relative_goal=rel,
                max_speed=table.max_speed[fut_idx],
                now=np.full(fut_idx.size, now_h),
                u_max=u_max,
                levels=_LEVELS,
            )
            if self._prediction_method is PredictionMethod.EXACT:
                level = hypothetical.equalized_level(
                    aggregate, start=self._last_level
                )
                self._last_level = level
                values = hypothetical.utilities_at_level(level)
            else:
                values = hypothetical.utilities_array(
                    aggregate, method=self._prediction_method
                )
            utilities.update(zip(fut_ids, values.tolist()))
        return utilities

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def hypothetical(self, now: float) -> HypotheticalRPF:
        """The current hypothetical RPF over all incomplete jobs
        (used for the "average hypothetical relative performance" series
        of Figures 2 and 6)."""
        table = self._jobs()
        if table is None:
            return HypotheticalRPF([])
        return HypotheticalRPF.from_arrays(
            list(table.ids),
            remaining=table.remaining,
            goal=table.goal,
            relative_goal=table.relative_goal,
            max_speed=table.max_speed,
            now=np.full(len(table.ids), now),
            u_max=table.u_max_array(now),
            levels=_LEVELS,
        )

    def average_hypothetical_utility(
        self, now: float, aggregate_mhz: float
    ) -> float:
        """Average predicted relative performance at a given aggregate
        batch allocation."""
        return self.hypothetical(now).average_utility(aggregate_mhz)
