"""Relative Performance Functions (RPFs).

An RPF measures an application's performance *relative to its goal*: it is
0 when the goal is exactly met, positive when the goal is exceeded, and
negative when it is violated (§3.2).  Equalizing relative performance
across applications therefore realizes the paper's notion of fairness —
all applications sit at the same relative distance from their goals.

For resource-allocation purposes every RPF is expressed as a function of
the CPU power allocated to the application, ``u_m(ω_m)``.  The placement
algorithm asks two questions of an RPF (§3.2, "Algorithm outline"):

1. What relative performance does the application achieve at a given
   allocation? — :meth:`RelativePerformanceFunction.utility`
2. How much CPU does the application need to reach a given relative
   performance? — :meth:`RelativePerformanceFunction.required_cpu`

Any *monotonically non-decreasing* model works (§3.2); the paper uses
linear functions of the performance metric, which become non-linear in the
allocation once the workload's performance model is composed in.

Besides the protocol, this module holds three shapes: sampled points
(:class:`PiecewiseLinearRPF`), a line (:class:`LinearRPF`) and a batch
job's completion-time RPF of its sustained speed
(:class:`JobAllocationRPF`, re-exported by :mod:`repro.batch.rpf`).  The
last lives here because the load distributor
(:mod:`repro.core.loadbalance`) recognizes it and works out its targets
in closed form, and ``repro.core`` imports nothing from ``repro.batch``.
"""

from __future__ import annotations

import bisect
from typing import (
    TYPE_CHECKING, List, Optional, Protocol, Sequence, Tuple, runtime_checkable,
)

from repro.errors import ConfigurationError
from repro.units import EPSILON

if TYPE_CHECKING:
    from repro.batch.job import Job

#: Finite stand-in for the paper's ``u_1 = -inf`` sampling point.  Relative
#: performance is a *relative* distance from the goal, so a value of -50
#: means "50x the goal horizon late" — far beyond anything a sane system
#: produces, while keeping interpolation arithmetic finite.
NEGATIVE_INFINITY_UTILITY = -50.0

#: Upper bound of the relative-performance scale.  ``u = 1`` means the work
#: completed instantaneously (for batch) or with zero response time (for
#: transactional workloads).
MAX_UTILITY = 1.0


@runtime_checkable
class RelativePerformanceFunction(Protocol):
    """Protocol every workload-specific RPF implements.

    Implementations must be monotonically non-decreasing in the CPU
    allocation and saturate at :attr:`max_utility` for allocations at or
    above :attr:`saturation_cpu`.  So the inverse never asks for more:
    ``required_cpu(u) <= saturation_cpu`` for every
    ``u <= max_utility + EPSILON`` (a utility within ``EPSILON`` above
    the maximum is rounding, not a higher target).
    """

    def utility(self, cpu_mhz: float) -> float:
        """Relative performance achieved with ``cpu_mhz`` MHz allocated."""
        ...

    def required_cpu(self, utility: float) -> float:
        """CPU (MHz) needed to achieve ``utility``.

        At most :attr:`saturation_cpu` up to ``max_utility + EPSILON``;
        ``float('inf')`` above that (no allocation reaches it).
        """
        ...

    @property
    def max_utility(self) -> float:
        """The highest achievable relative performance."""
        ...

    @property
    def saturation_cpu(self) -> float:
        """Smallest allocation achieving :attr:`max_utility`."""
        ...


class PiecewiseLinearRPF:
    """A generic RPF defined by ``(cpu, utility)`` sample points.

    Used directly in tests and as the carrier for the batch workload's
    sampled hypothetical relative performance.  Between samples the
    function interpolates linearly; below the first sample it clamps to the
    first utility; above the last sample it saturates.
    """

    def __init__(self, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ConfigurationError("piecewise-linear RPF needs >= 2 points")
        cpus = [p[0] for p in points]
        utils = [p[1] for p in points]
        # Exactly, not within EPSILON: the inverse bisects the utilities,
        # and the load distributor's certified level search relies on
        # the inverse being monotone (see repro.core.loadbalance).
        if any(b < a for a, b in zip(cpus, cpus[1:])):
            raise ConfigurationError("RPF sample CPUs must be non-decreasing")
        if any(b < a for a, b in zip(utils, utils[1:])):
            raise ConfigurationError("RPF sample utilities must be non-decreasing")
        if cpus[0] < 0:
            raise ConfigurationError("RPF sample CPUs must be >= 0")
        self._cpus: List[float] = [float(c) for c in cpus]
        self._utils: List[float] = [float(u) for u in utils]
        # Walk back over any flat tail so saturation is the *smallest*
        # allocation that achieves max utility.
        i = len(utils) - 1
        while i > 0 and self._utils[i - 1] >= self._utils[-1] - EPSILON:
            i -= 1
        self._saturation = self._cpus[i]

    @property
    def points(self) -> List[Tuple[float, float]]:
        """The defining sample points as ``(cpu, utility)`` pairs."""
        return list(zip(self._cpus, self._utils))

    @property
    def max_utility(self) -> float:
        return self._utils[-1]

    @property
    def saturation_cpu(self) -> float:
        return self._saturation

    def utility(self, cpu_mhz: float) -> float:
        cpus, utils = self._cpus, self._utils
        if cpu_mhz <= cpus[0]:
            return utils[0]
        if cpu_mhz >= cpus[-1]:
            return utils[-1]
        i = bisect.bisect_right(cpus, cpu_mhz)
        lo_c, hi_c = cpus[i - 1], cpus[i]
        lo_u, hi_u = utils[i - 1], utils[i]
        if hi_c - lo_c <= EPSILON:
            return hi_u
        frac = (cpu_mhz - lo_c) / (hi_c - lo_c)
        return lo_u + frac * (hi_u - lo_u)

    def required_cpu(self, utility: float) -> float:
        """The inverse, never above :attr:`saturation_cpu`: a utility
        within ``EPSILON`` above the last sample needs exactly the
        saturation allocation, and so does one on a tail flatter than
        ``EPSILON``."""
        cpus, utils = self._cpus, self._utils
        saturation = self._saturation
        if utility > utils[-1]:
            if utility > utils[-1] + EPSILON:
                return float("inf")
            return saturation
        if utility <= utils[0]:
            cpu = cpus[0]
        else:
            i = bisect.bisect_left(utils, utility)
            lo_c, hi_c = cpus[i - 1], cpus[i]
            lo_u, hi_u = utils[i - 1], utils[i]
            if hi_u - lo_u <= EPSILON:
                cpu = lo_c
            else:
                frac = (utility - lo_u) / (hi_u - lo_u)
                cpu = lo_c + frac * (hi_c - lo_c)
        return cpu if cpu < saturation else saturation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PiecewiseLinearRPF({len(self._cpus)} points, max_u={self.max_utility:.3f})"


class LinearRPF:
    """``u(ω) = slope * ω + intercept`` capped at ``max_utility``.

    The simplest concrete RPF; convenient for unit tests and analytic
    examples (such as the introduction's "response time proportional to the
    inverse of allocated capacity" thought experiment, once linearized).
    """

    def __init__(self, slope: float, intercept: float, max_utility: float = MAX_UTILITY):
        if slope <= 0:
            raise ConfigurationError(f"slope must be positive, got {slope}")
        if max_utility < intercept:
            raise ConfigurationError(
                f"max_utility {max_utility} below utility at zero allocation {intercept}"
            )
        self._slope = slope
        self._intercept = intercept
        self._max_utility = max_utility

    @property
    def max_utility(self) -> float:
        return self._max_utility

    @property
    def saturation_cpu(self) -> float:
        return (self._max_utility - self._intercept) / self._slope

    def utility(self, cpu_mhz: float) -> float:
        return min(self._max_utility, self._slope * cpu_mhz + self._intercept)

    def required_cpu(self, utility: float) -> float:
        """The inverse, never above :attr:`saturation_cpu`: a utility
        within ``EPSILON`` above :attr:`max_utility` needs exactly the
        saturation allocation."""
        if utility > self._max_utility + EPSILON:
            return float("inf")
        if utility <= self._intercept:
            return 0.0
        return (min(utility, self._max_utility) - self._intercept) / self._slope


class JobAllocationRPF:
    """Relative performance of one job as a function of sustained speed.

    Frozen at construction time (``now``): captures the job's remaining
    work, goal and current maximum speed.  Monotone non-decreasing in the
    allocation; saturates at the job's maximum achievable relative
    performance (completion at max speed from ``now``); clamped below at
    :data:`~repro.core.rpf.NEGATIVE_INFINITY_UTILITY`.

    This class implements the
    :class:`~repro.core.rpf.RelativePerformanceFunction` protocol, which
    is how batch jobs plug into the workload-agnostic load-distribution
    optimizer and placement controller.
    """

    def __init__(self, job: Job, now: float, remaining_work: Optional[float] = None):
        self._job_id = job.job_id
        self._now = now
        self._goal = job.completion_goal
        self._relative_goal = job.relative_goal
        self._remaining = (
            job.remaining_work if remaining_work is None else max(0.0, remaining_work)
        )
        # The aggregate speed ceiling over the *remaining* life: we
        # approximate the multi-stage case with the current stage's max
        # speed times the job's parallelism (exact for the single-stage
        # jobs of all paper experiments; for multi-stage jobs the
        # remaining-best-time bound below keeps u_max exact).
        self._max_speed = job.max_speed
        remaining_best = job.remaining_best_time
        if remaining_work is not None and job.remaining_work > EPSILON:
            # Scale the best remaining time to the overridden remaining work.
            remaining_best *= self._remaining / job.remaining_work
        self._earliest_completion = now + remaining_best

    @classmethod
    def from_parts(
        cls,
        job_id: str,
        now: float,
        goal: float,
        relative_goal: float,
        remaining: float,
        max_speed: float,
        earliest_completion: float,
    ) -> "JobAllocationRPF":
        """Rebuild an RPF from precomputed fields without touching a
        :class:`~repro.batch.job.Job`.

        The vectorized batch model computes these fields in bulk (array
        kernels over the whole job table) and calls this to get objects
        that behave *bitwise* like ``__init__``-built ones — the
        byte-identity tests pin that equivalence.  Callers are
        responsible for passing values matching the ``__init__``
        formulas.
        """
        rpf = cls.__new__(cls)
        rpf._job_id = job_id
        rpf._now = now
        rpf._goal = goal
        rpf._relative_goal = relative_goal
        rpf._remaining = remaining
        rpf._max_speed = max_speed
        rpf._earliest_completion = earliest_completion
        return rpf

    @property
    def job_id(self) -> str:
        return self._job_id

    @property
    def remaining_work(self) -> float:
        return self._remaining

    @property
    def now(self) -> float:
        """The time this RPF was frozen at."""
        return self._now

    @property
    def goal(self) -> float:
        """Absolute completion-time goal ``τ_m``."""
        return self._goal

    @property
    def relative_goal(self) -> float:
        """``τ_m − τ^start_m``."""
        return self._relative_goal

    @property
    def earliest_completion(self) -> float:
        """Completion time at maximum speed from ``now``."""
        return self._earliest_completion

    @property
    def max_speed(self) -> float:
        return self._max_speed

    @property
    def max_utility(self) -> float:
        """``u^max_m``: relative performance if run at max speed from now."""
        if self._remaining <= EPSILON:
            return 1.0
        return (self._goal - self._earliest_completion) / self._relative_goal

    @property
    def saturation_cpu(self) -> float:
        """Speed above which relative performance cannot improve."""
        if self._remaining <= EPSILON:
            return 0.0
        return self._max_speed

    def fields(self) -> Tuple[float, float, float, float, float, float, float]:
        """``(saturation_cpu, max_utility, remaining_work, goal,
        relative_goal, now, max_speed)``, the properties' floats in one
        call: the load distributor reads all seven for every job link."""
        remaining = self._remaining
        if remaining <= EPSILON:
            saturation, max_utility = 0.0, 1.0
        else:
            saturation = self._max_speed
            max_utility = (
                (self._goal - self._earliest_completion) / self._relative_goal
            )
        return (
            saturation, max_utility, remaining, self._goal,
            self._relative_goal, self._now, self._max_speed,
        )

    def utility(self, cpu_mhz: float) -> float:
        """Predicted relative performance at sustained speed ``cpu_mhz``."""
        if self._remaining <= EPSILON:
            return 1.0
        if cpu_mhz <= EPSILON:
            return NEGATIVE_INFINITY_UTILITY
        speed = min(cpu_mhz, self._max_speed)
        completion = self._now + self._remaining / speed
        u = (self._goal - completion) / self._relative_goal
        return max(NEGATIVE_INFINITY_UTILITY, min(u, self.max_utility))

    def required_cpu(self, utility: float) -> float:
        """Equation (3): average speed needed from ``now`` to reach
        ``utility``; ``inf`` if unreachable, clamped at the max speed."""
        if self._remaining <= EPSILON:
            return 0.0
        if utility > self.max_utility + EPSILON:
            return float("inf")
        target_completion = self._goal - utility * self._relative_goal
        horizon = target_completion - self._now
        if horizon <= EPSILON:
            # The target completion time is already in the past — only
            # possible for utility > max_utility, handled above; guard
            # against float-edge cases by demanding max speed.
            return self._max_speed
        return min(self._max_speed, self._remaining / horizon)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobAllocationRPF({self._job_id!r}, rem={self._remaining:.0f}Mcy, "
            f"u_max={self.max_utility:.3f})"
        )
