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
The controller's default prediction solves the fair-share level exactly
instead (:meth:`HypotheticalRPF.equalized_level`), once per scored
candidate placement, and never builds the matrices: they are built on
first use, by the interpolation path and the matrix accessors.
"""

from __future__ import annotations

import enum
import math
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

#: Safeguarded Newton probes the exact solve spends shrinking its
#: bracket before it replays the bisection.
_LEVEL_NEWTON_STEPS = 8

#: A Newton step shorter than this is replaced by one probe this far
#: across the level, to close the bracket from the other side.  It is
#: below the bisection's final spacing of 51 * 2**-48 (about 1.8e-13),
#: so a bracket this narrow holds at most one bisection midpoint.
_LEVEL_PINCH = 1e-13


def validated_levels(levels: Sequence[float]) -> np.ndarray:
    """Validate the sampling points ``u_1 … u_R`` and return them as an
    array: at least two finite levels, strictly increasing, the last
    one 1.0."""
    try:
        lv = [float(level) for level in levels]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"sampling levels must be numbers, got {levels!r}"
        ) from None
    if len(lv) < 2:
        raise ConfigurationError("need at least two sampling levels")
    if not all(map(math.isfinite, lv)):
        raise ConfigurationError(f"sampling levels must be finite, got {lv}")
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
        self._levels = validated_levels(levels)
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
        ``levels`` are adopted as given too: pass sampling points that
        :func:`validated_levels` accepts (the batch model passes the
        default levels, checked once, at import).
        """
        obj = cls.__new__(cls)
        obj._levels = np.asarray(levels, dtype=float)
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
        # Equations (3) and (4): the required speed, clamped at the
        # job's max speed once u_i >= u^max_m (the division already
        # exceeds max speed exactly there, so the pass's single minimum
        # implements both branches); completed jobs need no speed.
        w = _DemandProbe(self, len(lv)).speeds(u)
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
        return _DemandProbe(self).speeds(level)

    def aggregate_demand_at(self, level: float) -> float:
        """Exact aggregate speed needed for every job to reach ``level``
        (or its maximum achievable performance if lower)."""
        return float(self.demand_at(level).sum())

    def equalized_level(
        self, aggregate_mhz: float, *, start: Optional[float] = None
    ) -> float:
        """The common relative-performance level ``u*`` sustained by
        aggregate ``ω_g``: the largest ``u`` with
        ``Σ_m min(ω_m(u), ω^max_m) <= ω_g``.

        This is the exact solution of the fair-share system the paper
        approximates by the ``W``/``V`` interpolation (it notes the exact
        solve was "too costly to perform in an on-line placement
        algorithm" on 2008 hardware).  The answer is the float a
        48-step bisection of ``[u_1, 1]`` over :meth:`aggregate_demand_at`
        returns, but most of its probes are never evaluated.

        Demand is non-decreasing in the level even in float arithmetic:
        with ``relative_goal > 0`` (every :class:`~repro.batch.job.Job`
        guarantees it) each step of a probe is a monotone IEEE operation
        of the level, finished jobs demand a constant 0, and the
        pairwise sum is monotone in each term.  So once some level ``a``
        is known to pass (demand at most ``ω_g``) every bisection
        midpoint at or left of it passes too, and every midpoint at or
        right of a failing ``b`` fails.  After the two endpoint probes
        the solve brackets the level between sampling levels (one 2-D
        pass whose rows equal single probes bit for bit), shrinks the
        bracket with safeguarded Newton steps on exact probes, and then
        replays the bisection, probing only the midpoints that fall
        inside the bracket.  Every probe runs the demand pass
        :meth:`demand_at` runs, over full-length arrays, so each equals
        :meth:`aggregate_demand_at` bit for bit.

        ``start`` is a guess at the answer, such as the level of a
        similar solve.  One strictly inside ``(u_1, 1)`` is probed after
        the top and replaces the sampling-level pass: it becomes the
        passing or the failing end of the bracket (the floor is probed
        only when it fails), and its slope seeds the Newton steps.  Any
        other value, NaN and the infinities included, starts from the
        sampling levels.  The bracket is certified either way, so the
        returned float does not depend on ``start``.
        """
        if len(self._job_ids) == 0:
            return 1.0
        aggregate = max(0.0, float(aggregate_mhz))
        probe = _DemandProbe(self)
        lo, hi = float(self._levels[0]), 1.0
        if probe.demand(hi) <= aggregate + EPSILON:
            return hi
        if start is not None and lo < start < hi:
            start = float(start)
            demand = probe.demand(start)
            seed = (start, demand - aggregate, probe.slope())
            if demand <= aggregate:
                a, b = start, hi
            elif probe.demand(lo) > aggregate:
                return lo
            else:
                a, b = lo, start
        else:
            if probe.demand(lo) > aggregate:
                return lo
            a, b, seed = probe.grid(self._levels[1:-1], aggregate, lo, hi)
        a, b = probe.newton(aggregate, a, b, *seed)
        for _ in range(_LEVEL_SOLVE_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if mid <= a:
                lo = mid
            elif mid >= b:
                hi = mid
            elif probe.demand(mid) <= aggregate:
                lo = a = mid
            else:
                hi = b = mid
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
        """Like :meth:`job_utilities` but as an array in the jobs' order
        (the hot path for candidate evaluation)."""
        try:
            method = PredictionMethod.coerce(method)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
        if method is PredictionMethod.EXACT:
            if len(self._job_ids) == 0:
                return np.zeros(0)
            return self.utilities_at_level(self.equalized_level(aggregate_mhz))
        return self.utilities_from_speeds(self.job_speeds(aggregate_mhz))

    def utilities_at_level(self, level: float) -> np.ndarray:
        """Per-job relative performance when the jobs share common level
        ``level`` (an :meth:`equalized_level` answer): the level capped
        at each job's maximum, finished jobs at 1."""
        u = np.minimum(level, self._u_max)
        u = np.clip(u, NEGATIVE_INFINITY_UTILITY, None)
        u[self._remaining <= EPSILON] = 1.0
        return u

    def average_utility(
        self, aggregate_mhz: float, method: MethodLike = PredictionMethod.EXACT
    ) -> float:
        """Average hypothetical relative performance (Figures 2 and 6)."""
        if len(self._job_ids) == 0:
            return float("nan")
        return float(np.mean(self.utilities_array(aggregate_mhz, method=method)))

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


class _DemandProbe:
    """The demand pass behind every demand in this module: the per-job
    ``min(ω_m(u), ω^max_m)`` at a level, finished jobs at 0, written
    into buffers that successive passes reuse.

    Built for one level at a time, or with ``rows`` for that many levels
    at once, one row per level.  Every row runs the same operations in
    the same order, so a row of ``W`` equals
    :meth:`HypotheticalRPF.demand_at` of its level bit for bit.
    """

    __slots__ = ("_rpf", "_done", "_horizon", "_open", "_speed", "_weight")

    def __init__(
        self, rpf: HypotheticalRPF, rows: Optional[int] = None
    ) -> None:
        remaining = rpf._remaining
        shape = remaining.shape if rows is None else (rows, len(remaining))
        self._rpf = rpf
        done = remaining <= EPSILON
        #: The finished jobs' mask, or ``None`` when no job is finished.
        self._done: Optional[np.ndarray] = done if done.any() else None
        self._horizon = np.empty(shape)
        self._open = np.empty(shape, dtype=bool)
        self._speed = np.empty(shape)
        self._weight: Optional[np.ndarray] = None

    def speeds(self, level) -> np.ndarray:
        """Fill the speed buffer at ``level`` (a float, or a column of
        levels for a multi-row probe) and return it."""
        rpf, horizon, speed = self._rpf, self._horizon, self._speed
        np.multiply(level, rpf._relative_goal, out=horizon)
        np.subtract(rpf._goal, horizon, out=horizon)
        np.subtract(horizon, rpf._now, out=horizon)
        np.greater(horizon, EPSILON, out=self._open)
        speed.fill(np.inf)
        # Divide over open horizons only: a subnormal one would overflow.
        np.divide(rpf._remaining, horizon, out=speed, where=self._open)
        np.minimum(speed, rpf._max_speed, out=speed)
        if self._done is not None:
            speed[..., self._done] = 0.0
        return speed

    def demand(self, level: float) -> float:
        """:meth:`HypotheticalRPF.aggregate_demand_at`, bit for bit."""
        return float(self.speeds(level).sum())

    def slope(self, speed: Optional[np.ndarray] = None) -> float:
        """d(demand)/d(level) at a pass's ``speed`` (default: the last
        single-level pass).  Only steers the next probe, so it need not
        be exact."""
        rpf = self._rpf
        if speed is None:
            speed = self._speed
        if self._weight is None:
            # An open job below its cap demands w = rem/h, whose slope
            # in the level is rem·rel/h² = rel·w²/rem; every other
            # job's demand is flat.
            self._weight = np.zeros_like(rpf._remaining)
            np.divide(rpf._relative_goal, rpf._remaining, out=self._weight,
                      where=True if self._done is None else ~self._done)
        terms = speed * speed * self._weight
        return float(terms.sum(where=speed < rpf._max_speed))

    def grid(
        self, levels: np.ndarray, aggregate: float, a: float, b: float
    ) -> Tuple[float, float, Tuple[float, float, float]]:
        """Narrow ``[a, b]``, where ``a`` passes (demand at most
        ``aggregate``) and ``b`` fails, with the sampling ``levels``
        inside it, in one multi-row pass whose row sums equal single
        passes.  Returns the bracket and the Newton seed ``(level, gap,
        slope)`` of the sampling level whose demand is nearer
        ``aggregate`` (a flat seed when there are no ``levels``)."""
        if not len(levels):
            return a, b, (0.0, 0.0, 0.0)
        grid = _DemandProbe(self._rpf, len(levels)).speeds(levels[:, None])
        sums = grid.sum(axis=1)
        # Demand is monotone, so the passing levels are a prefix.
        k = int(np.count_nonzero(sums <= aggregate))
        if k:
            a = float(levels[k - 1])
        if k < len(levels):
            b = float(levels[k])
        if k == len(levels) or (
            k and aggregate - sums[k - 1] < sums[k] - aggregate
        ):
            row = k - 1
        else:
            row = k
        seed = (
            float(levels[row]), float(sums[row]) - aggregate,
            self.slope(grid[row]),
        )
        return a, b, seed

    def newton(
        self, aggregate: float, a: float, b: float,
        x: float, gap: float, grad: float,
    ) -> Tuple[float, float]:
        """Shrink the bracket ``[a, b]`` with Newton steps from level
        ``x``, whose demand is ``gap`` above ``aggregate`` and has slope
        ``grad``, and return it.  Each step is an exact probe that moves
        one end.  A step that leaves ``(a, b)`` becomes the midpoint; a
        step shorter than :data:`_LEVEL_PINCH` becomes a probe that far
        across, to close the bracket from the other side.
        """
        for _ in range(_LEVEL_NEWTON_STEPS):
            if grad > 0.0:
                step = gap / grad
                if abs(step) < _LEVEL_PINCH:
                    step = -_LEVEL_PINCH if gap <= 0.0 else _LEVEL_PINCH
                u = x - step
            else:
                u = 0.5 * (a + b)
            if not a < u < b:
                u = 0.5 * (a + b)
            demand = self.demand(u)
            if demand <= aggregate:
                a = u
            else:
                b = u
            if b - a <= _LEVEL_PINCH:
                break
            x, gap = u, demand - aggregate
            grad = self.slope()
        return a, b
