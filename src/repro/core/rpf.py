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
"""

from __future__ import annotations

import bisect
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

from repro.errors import ConfigurationError
from repro.units import EPSILON

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
    above :attr:`saturation_cpu`.
    """

    def utility(self, cpu_mhz: float) -> float:
        """Relative performance achieved with ``cpu_mhz`` MHz allocated."""
        ...

    def required_cpu(self, utility: float) -> float:
        """CPU (MHz) needed to achieve ``utility``.

        Returns ``float('inf')`` when ``utility`` exceeds
        :attr:`max_utility` (no allocation reaches it).
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
        if any(b - a < -EPSILON for a, b in zip(cpus, cpus[1:])):
            raise ConfigurationError("RPF sample CPUs must be non-decreasing")
        if any(b - a < -EPSILON for a, b in zip(utils, utils[1:])):
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
