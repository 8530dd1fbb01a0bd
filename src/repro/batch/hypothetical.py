"""Hypothetical relative performance (§4.2): the ``W`` and ``V`` matrices.

The controller must predict — every control cycle — the relative
performance each job in the system (running *or* still queued) will
achieve, given a particular aggregate CPU allocation to the batch
workload.  The paper's construction:

* pick a small set of *target relative performance values*
  ``u_1 = −∞ < u_2 < … < u_R = 1`` (sampling points);
* ``W[i][m]`` is the average speed job ``m`` must sustain from ``t_now``
  to achieve ``u_i`` — equation (3) — clamped at the job's maximum speed
  once ``u_i`` exceeds the job's maximum achievable relative performance
  ``u^max_m`` (equation (4));
* ``V[i][m]`` is ``u_i`` itself, clamped at ``u^max_m`` (equation (5));
* for a given aggregate allocation ``ω_g``, find ``k`` with
  ``Σ_m W[k][m] ≤ ω_g ≤ Σ_m W[k+1][m]`` (equation (6)), interpolate each
  job's speed ``ω_m`` between ``W[k][m]`` and ``W[k+1][m]``, and derive
  the job's predicted relative performance ``u_m`` from ``ω_m``.

The interpolation avoids solving a system of linear equations online
(which the paper notes is too costly for an on-line placement algorithm).
Everything is vectorized with numpy: the matrices are rebuilt at every
candidate-placement evaluation, so this is the hottest code in the
controller.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.rpf import JobAllocationRPF
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import ConfigurationError
from repro.units import EPSILON


class PredictionMethod(str, enum.Enum):
    """How per-job utilities are derived from an aggregate allocation.

    ``EXACT`` solves the equalized fair-share level by bisection;
    ``INTERPOLATE`` uses the paper's ``W``/``V`` sampling approximation
    (equation (6)).  Subclasses ``str`` so the historical string toggles
    (``method="exact"``) keep comparing and serializing as before.
    """

    EXACT = "exact"
    INTERPOLATE = "interpolate"

    @classmethod
    def coerce(cls, value: Union["PredictionMethod", str]) -> "PredictionMethod":
        """Accept an enum member or its string value.

        Raises :class:`ValueError` (the enum's native miss) for anything
        else; call sites that promise :class:`ConfigurationError` wrap it.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown prediction method {value!r}; "
                f"expected one of {[m.value for m in cls]}"
            ) from None


#: Accepted by every ``method=`` parameter.
MethodLike = Union[PredictionMethod, str]

#: Default sampling points ``u_1 = −∞, …, u_R = 1`` (§4.2 uses a small
#: constant R).  Denser near the "interesting" region around the goal
#: (u = 0) where placement decisions actually move jobs.
DEFAULT_UTILITY_LEVELS: Tuple[float, ...] = (
    NEGATIVE_INFINITY_UTILITY,
    -8.0,
    -4.0,
    -2.0,
    -1.0,
    -0.5,
    -0.25,
    0.0,
    0.2,
    0.4,
    0.6,
    0.8,
    1.0,
)


#: Bisection iterations for the exact equalized-level solve; 48 halvings
#: of the [-50, 1] interval resolve the level far below model noise.
_LEVEL_SOLVE_ITERATIONS = 48


def _validated_levels(levels: Sequence[float]) -> np.ndarray:
    """Validate the sampling points ``u_1 … u_R`` and return them as an
    array (shared by both constructors)."""
    if len(levels) < 2:
        raise ConfigurationError("need at least two sampling levels")
    lv = list(levels)
    if any(b <= a for a, b in zip(lv, lv[1:])):
        raise ConfigurationError("sampling levels must be strictly increasing")
    if abs(lv[-1] - 1.0) > EPSILON:
        raise ConfigurationError("last sampling level must be 1.0")
    return np.asarray(lv, dtype=float)


class HypotheticalRPF:
    """The sampled hypothetical relative performance of a set of jobs.

    Frozen at a point in time: construct from per-job
    :class:`~repro.batch.rpf.JobAllocationRPF` objects (which capture each
    job's remaining work, goal and speed ceiling at that time).
    """

    def __init__(
        self,
        job_rpfs: Sequence[JobAllocationRPF],
        levels: Sequence[float] = DEFAULT_UTILITY_LEVELS,
    ) -> None:
        self._levels = _validated_levels(levels)
        self._job_ids: List[str] = [r.job_id for r in job_rpfs]

        self._remaining = np.array([r.remaining_work for r in job_rpfs], dtype=float)
        self._goal = np.array([r.goal for r in job_rpfs], dtype=float)
        self._relative_goal = np.array([r.relative_goal for r in job_rpfs], dtype=float)
        self._max_speed = np.array([r.max_speed for r in job_rpfs], dtype=float)
        self._now = np.array([r.now for r in job_rpfs], dtype=float)
        self._u_max = np.array([r.max_utility for r in job_rpfs], dtype=float)

        # W/V are built lazily: the exact equalized-level solve (the
        # controller's default prediction path) never touches them, only
        # the interpolation path and the matrix accessors do.
        self._w: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._w_sums: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        job_ids: Sequence[str],
        *,
        remaining: np.ndarray,
        goal: np.ndarray,
        relative_goal: np.ndarray,
        max_speed: np.ndarray,
        now: np.ndarray,
        u_max: np.ndarray,
        levels: Sequence[float] = DEFAULT_UTILITY_LEVELS,
    ) -> "HypotheticalRPF":
        """Build directly from per-job field arrays, skipping the
        per-job :class:`~repro.batch.rpf.JobAllocationRPF` objects.

        The vectorized batch model computes these arrays in bulk; values
        must match what the object-based constructor would have read off
        the RPFs (byte-identity tests pin this).  Arrays are adopted
        without copying — callers must not mutate them afterwards.
        """
        obj = cls.__new__(cls)
        obj._levels = _validated_levels(levels)
        obj._job_ids = list(job_ids)
        obj._remaining = np.asarray(remaining, dtype=float)
        obj._goal = np.asarray(goal, dtype=float)
        obj._relative_goal = np.asarray(relative_goal, dtype=float)
        obj._max_speed = np.asarray(max_speed, dtype=float)
        obj._now = np.asarray(now, dtype=float)
        obj._u_max = np.asarray(u_max, dtype=float)
        obj._w = None
        obj._v = None
        obj._w_sums = None
        return obj

    def _ensure_matrices(self) -> None:
        """Build W (R x M) and V (R x M) vectorized, on first use."""
        if self._w is not None:
            return
        lv = self._levels
        if len(self._job_ids) == 0:
            self._w = np.zeros((len(lv), 0))
            self._v = np.zeros((len(lv), 0))
            self._w_sums = np.zeros(len(lv))
            return

        u = lv[:, None]                                     # (R, 1)
        target_completion = self._goal[None, :] - u * self._relative_goal[None, :]
        horizon = target_completion - self._now[None, :]    # (R, M)
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.where(
                horizon > EPSILON, self._remaining[None, :] / horizon, np.inf
            )
        # Equation (4): clamp at the job's max speed once u_i >= u^max_m
        # (the division above already exceeds max speed exactly there, so
        # a single minimum implements both branches).
        w = np.minimum(speed, self._max_speed[None, :])
        # Completed jobs need no speed at any level.
        w[:, self._remaining <= EPSILON] = 0.0
        # Equation (5).
        v = np.minimum(u, self._u_max[None, :])
        v = np.broadcast_to(v, w.shape).copy()
        v[:, self._remaining <= EPSILON] = 1.0

        self._w = w
        self._v = v
        self._w_sums = w.sum(axis=1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def job_ids(self) -> List[str]:
        return list(self._job_ids)

    @property
    def levels(self) -> np.ndarray:
        """The sampling points ``u_1 … u_R``."""
        return self._levels.copy()

    @property
    def w_matrix(self) -> np.ndarray:
        """``W`` (levels x jobs): required sustained speeds, equation (4)."""
        self._ensure_matrices()
        return self._w.copy()

    @property
    def v_matrix(self) -> np.ndarray:
        """``V`` (levels x jobs): achievable level values, equation (5)."""
        self._ensure_matrices()
        return self._v.copy()

    @property
    def aggregate_demands(self) -> np.ndarray:
        """``Σ_m W[i][m]`` for each sampling level ``i``."""
        self._ensure_matrices()
        return self._w_sums.copy()

    @property
    def max_aggregate_demand(self) -> float:
        """Aggregate speed at which every job runs at its maximum."""
        if not self._job_ids:
            return 0.0
        self._ensure_matrices()
        return float(self._w_sums[-1])

    def __len__(self) -> int:
        return len(self._job_ids)

    # ------------------------------------------------------------------
    # Aggregate allocation -> per-job prediction
    # ------------------------------------------------------------------
    def demand_at(self, level: float) -> np.ndarray:
        """Exact per-job demand ``min(ω_m(u), ω^max_m)`` at ``level``."""
        if len(self._job_ids) == 0:
            return np.zeros(0)
        target_completion = self._goal - level * self._relative_goal
        horizon = target_completion - self._now
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.where(horizon > EPSILON, self._remaining / horizon, np.inf)
        speed = np.minimum(speed, self._max_speed)
        speed[self._remaining <= EPSILON] = 0.0
        return speed

    def aggregate_demand_at(self, level: float) -> float:
        """Exact aggregate speed needed for every job to reach ``level``
        (or its maximum achievable performance if lower)."""
        return float(self.demand_at(level).sum())

    def equalized_level(self, aggregate_mhz: float) -> float:
        """The common relative-performance level ``u*`` sustained by
        aggregate ``ω_g``: the largest ``u`` with
        ``Σ_m min(ω_m(u), ω^max_m) <= ω_g``.

        This is the exact solution of the fair-share system the paper
        approximates by the ``W``/``V`` interpolation (it notes the exact
        solve was "too costly to perform in an on-line placement
        algorithm" on 2008 hardware; vectorized it is not).  The probes
        share buffers, but each runs :meth:`demand_at`'s operations in
        its order over full-length arrays, so each equals
        :meth:`aggregate_demand_at` bit for bit.
        """
        if len(self._job_ids) == 0:
            return 1.0
        aggregate = max(0.0, float(aggregate_mhz))
        remaining = self._remaining
        done = remaining <= EPSILON
        horizon = np.empty_like(remaining)
        open_horizon = np.empty(remaining.shape, dtype=bool)
        speed = np.empty_like(remaining)

        def demand(level: float) -> float:
            np.multiply(level, self._relative_goal, out=horizon)
            np.subtract(self._goal, horizon, out=horizon)
            np.subtract(horizon, self._now, out=horizon)
            np.greater(horizon, EPSILON, out=open_horizon)
            speed.fill(np.inf)
            np.divide(remaining, horizon, out=speed, where=open_horizon)
            np.minimum(speed, self._max_speed, out=speed)
            speed[done] = 0.0
            return float(speed.sum())

        lo, hi = float(self._levels[0]), 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            if demand(hi) <= aggregate + EPSILON:
                return hi
            if demand(lo) > aggregate:
                return lo
            for _ in range(_LEVEL_SOLVE_ITERATIONS):
                mid = 0.5 * (lo + hi)
                if demand(mid) <= aggregate:
                    lo = mid
                else:
                    hi = mid
        return lo

    def job_speeds_exact(self, aggregate_mhz: float) -> np.ndarray:
        """Per-job speeds at the exact equalized level."""
        return self.demand_at(self.equalized_level(aggregate_mhz))

    def job_speeds(self, aggregate_mhz: float) -> np.ndarray:
        """Interpolated per-job speeds ``ω_m`` for aggregate ``ω_g``
        (the paper's equation (6) approximation)."""
        if len(self._job_ids) == 0:
            return np.zeros(0)
        self._ensure_matrices()
        sums = self._w_sums
        aggregate = max(0.0, float(aggregate_mhz))
        if aggregate >= sums[-1] - EPSILON:
            return self._w[-1].copy()
        if aggregate <= sums[0] + EPSILON:
            # Below the lowest sampled level: scale the floor row down
            # proportionally (the paper's sampling makes this region
            # practically unreachable, but the math must stay total).
            if sums[0] <= EPSILON:
                return np.zeros(len(self._job_ids))
            return self._w[0] * (aggregate / sums[0])
        k = int(np.searchsorted(sums, aggregate, side="right") - 1)
        k = min(max(k, 0), len(sums) - 2)
        span = sums[k + 1] - sums[k]
        frac = 0.0 if span <= EPSILON else (aggregate - sums[k]) / span
        return self._w[k] + frac * (self._w[k + 1] - self._w[k])

    def utilities_from_speeds(self, speeds: np.ndarray) -> np.ndarray:
        """Derive ``u_m`` from sustained speeds (vectorized eq. (2)+(3))."""
        speeds = np.minimum(np.asarray(speeds, dtype=float), self._max_speed)
        with np.errstate(divide="ignore", invalid="ignore"):
            completion = self._now + np.where(
                speeds > EPSILON, self._remaining / speeds, np.inf
            )
            u = (self._goal - completion) / self._relative_goal
        u = np.where(np.isfinite(u), u, NEGATIVE_INFINITY_UTILITY)
        u = np.clip(u, NEGATIVE_INFINITY_UTILITY, self._u_max)
        u[self._remaining <= EPSILON] = 1.0
        return u

    def job_utilities(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> Dict[str, float]:
        """Predicted relative performance per job for aggregate ``ω_g``.

        ``method`` is a :class:`PredictionMethod` (or its string value):
        ``EXACT`` (default) solves the equalized level exactly;
        ``INTERPOLATE`` uses the paper's ``W``/``V`` sampling
        approximation (equation (6)).
        """
        utilities = self.utilities_array(aggregate_mhz, method=method)
        return dict(zip(self._job_ids, utilities.tolist()))

    def utilities_array(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> np.ndarray:
        """Like :meth:`job_utilities` but as an array aligned with
        :attr:`job_ids` (the hot path for candidate evaluation)."""
        try:
            method = PredictionMethod.coerce(method)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if method is PredictionMethod.EXACT:
            if len(self._job_ids) == 0:
                return np.zeros(0)
            level = self.equalized_level(aggregate_mhz)
            u = np.minimum(level, self._u_max)
            u = np.clip(u, NEGATIVE_INFINITY_UTILITY, None)
            u[self._remaining <= EPSILON] = 1.0
            return u
        return self.utilities_from_speeds(self.job_speeds(aggregate_mhz))

    def average_utility(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> float:
        """Average hypothetical relative performance (Figures 2 and 6)."""
        if len(self._job_ids) == 0:
            return float("nan")
        return float(np.mean(self.utilities_array(aggregate_mhz, method=method)))

    def min_utility(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> float:
        """Worst predicted relative performance (the maxmin objective)."""
        if len(self._job_ids) == 0:
            return float("nan")
        return float(np.min(self.utilities_array(aggregate_mhz, method=method)))

    def aggregate_required(self, level: float) -> float:
        """Aggregate speed needed for every job to reach ``level``
        (piecewise-linear interpolation of ``Σ W`` over the levels)."""
        if len(self._job_ids) == 0:
            return 0.0
        self._ensure_matrices()
        levels = self._levels
        if level <= levels[0]:
            return float(self._w_sums[0])
        if level >= levels[-1]:
            return float(self._w_sums[-1])
        return float(np.interp(level, levels, self._w_sums))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HypotheticalRPF({len(self._job_ids)} jobs, "
            f"R={len(self._levels)}, max_demand={self.max_aggregate_demand:.0f}MHz)"
        )
