"""Queuing-theoretic response-time models for transactional applications.

§3.3: the system "leverage[s] the request router's performance model and
the application resource usage profile to estimate t_m as a function of
the CPU speed allocated to the application, t_m(ω_m)".  The model itself
comes from the Pacifici et al. middleware [21]; we implement two faithful
open-queuing variants:

:class:`ProcessorSharingModel`
    The application cluster is an open processor-sharing queue running at
    the aggregate allocated speed ``ω``, with a per-request speed ceiling
    of one processor (``σ``):

        t(ω) = max( d/σ,  d / (ω − λ·d) )        for ω > λ·d

    where ``λ`` is the request arrival rate (req/s) and ``d`` the average
    per-request CPU demand (Mcycles).  The ``d/σ`` floor captures the
    paper's observation that "the response time cannot be reduced to zero
    by continually increasing the CPU power assigned": a single request
    runs on one processor, so response time saturates at the bare service
    time.  Response time saturates exactly at ``ω_sat = λ·d + σ``.

:class:`ErlangCModel`
    An M/M/c model where the allocation ``ω`` buys ``c = ω/σ`` servers of
    rate ``μ = σ/d`` each; mean response time is ``1/μ`` plus the Erlang-C
    waiting time.  Fractional ``c`` is handled by linear interpolation
    between adjacent integer server counts.

Both expose the pair of queries the RPF layer needs: ``response_time(ω)``
and its inverse ``required_cpu(t)``.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, runtime_checkable

from repro.errors import ConfigurationError, ModelError
from repro.units import EPSILON


@runtime_checkable
class ResponseTimeModel(Protocol):
    """Average response time as a (decreasing) function of allocated CPU."""

    def response_time(self, cpu_mhz: float) -> float:
        """Mean response time (s) at allocation ``cpu_mhz``; ``inf`` when
        the allocation cannot sustain the offered load."""
        ...

    def required_cpu(self, response_time: float) -> float:
        """Smallest allocation achieving the target mean response time;
        ``inf`` when the target is below the model's floor."""
        ...

    @property
    def offered_load(self) -> float:
        """``λ·d``: the CPU power consumed by the raw request stream."""
        ...

    @property
    def min_response_time(self) -> float:
        """The response-time floor (bare service time)."""
        ...

    @property
    def saturation_cpu(self) -> float:
        """Smallest allocation achieving the response-time floor
        (may be ``inf`` for models that only approach it asymptotically)."""
        ...


class ProcessorSharingModel:
    """Open processor-sharing queue with a single-request speed ceiling."""

    def __init__(
        self,
        arrival_rate: float,
        demand_mcycles: float,
        single_thread_speed_mhz: float,
    ) -> None:
        if arrival_rate < 0:
            raise ConfigurationError(f"arrival rate must be >= 0, got {arrival_rate}")
        if demand_mcycles <= 0:
            raise ConfigurationError(
                f"per-request demand must be positive, got {demand_mcycles}"
            )
        if single_thread_speed_mhz <= 0:
            raise ConfigurationError(
                f"single-thread speed must be positive, got {single_thread_speed_mhz}"
            )
        self._rate = arrival_rate
        self._demand = demand_mcycles
        self._sigma = single_thread_speed_mhz

    @property
    def arrival_rate(self) -> float:
        return self._rate

    @property
    def demand_mcycles(self) -> float:
        return self._demand

    @property
    def offered_load(self) -> float:
        return self._rate * self._demand

    @property
    def min_response_time(self) -> float:
        return self._demand / self._sigma

    @property
    def saturation_cpu(self) -> float:
        return self.offered_load + self._sigma

    def response_time(self, cpu_mhz: float) -> float:
        if self._rate <= EPSILON:
            # No traffic: a single request sees the bare service time.
            return self.min_response_time
        surplus = cpu_mhz - self.offered_load
        if surplus <= EPSILON:
            return float("inf")
        return max(self.min_response_time, self._demand / surplus)

    def required_cpu(self, response_time: float) -> float:
        if response_time <= 0:
            return float("inf")
        if response_time < self.min_response_time - EPSILON:
            return float("inf")
        if self._rate <= EPSILON:
            return 0.0
        # t = d / (ω − λd)  =>  ω = λd + d/t, capped at the saturation point.
        return min(self.saturation_cpu, self.offered_load + self._demand / response_time)

    def with_rate(self, arrival_rate: float) -> "ProcessorSharingModel":
        """The same application under a different arrival intensity."""
        return ProcessorSharingModel(arrival_rate, self._demand, self._sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessorSharingModel(λ={self._rate:.2f}/s, d={self._demand:.1f}Mcy, "
            f"σ={self._sigma:.0f}MHz)"
        )


def _erlang_c_wait_probability(servers: int, offered_erlangs: float) -> float:
    """Erlang-C probability that an arriving request must wait.

    Computed with the numerically stable recurrence on the Erlang-B
    blocking probability: ``B(0)=1; B(k)=a·B(k−1)/(k+a·B(k−1))``, then
    ``C = B/(1 − ρ(1 − B))``.
    """
    if servers <= 0:
        return 1.0
    a = offered_erlangs
    if a <= 0:
        return 0.0
    rho = a / servers
    if rho >= 1.0:
        return 1.0
    # Far above the offered load the wait probability is smaller than
    # double precision can resolve; skip the recurrence (this also keeps
    # the cost bounded when callers probe very large allocations).
    if servers > a + 8.0 * math.sqrt(a) + 50.0:
        return 0.0
    b = 1.0
    for k in range(1, servers + 1):
        b = a * b / (k + a * b)
    return b / (1.0 - rho * (1.0 - b))


class ErlangCModel:
    """M/M/c response-time model: allocation buys servers."""

    def __init__(
        self,
        arrival_rate: float,
        demand_mcycles: float,
        single_thread_speed_mhz: float,
    ) -> None:
        if arrival_rate < 0:
            raise ConfigurationError(f"arrival rate must be >= 0, got {arrival_rate}")
        if demand_mcycles <= 0:
            raise ConfigurationError(
                f"per-request demand must be positive, got {demand_mcycles}"
            )
        if single_thread_speed_mhz <= 0:
            raise ConfigurationError(
                f"single-thread speed must be positive, got {single_thread_speed_mhz}"
            )
        self._rate = arrival_rate
        self._demand = demand_mcycles
        self._sigma = single_thread_speed_mhz
        self._mu = single_thread_speed_mhz / demand_mcycles  # per-server rate
        #: :attr:`saturation_cpu`, bisected on first use.
        self._saturation: Optional[float] = None

    @property
    def arrival_rate(self) -> float:
        return self._rate

    @property
    def demand_mcycles(self) -> float:
        return self._demand

    @property
    def offered_load(self) -> float:
        return self._rate * self._demand

    @property
    def min_response_time(self) -> float:
        return 1.0 / self._mu

    @property
    def saturation_cpu(self) -> float:
        # M/M/c only approaches the floor asymptotically; report the point
        # where waiting time falls below 0.1% of service time.  One
        # bisection per model: the model is immutable.
        if self._saturation is None:
            self._saturation = self._bisect_cpu(self.min_response_time * 1.001)
        return self._saturation

    def _response_time_servers(self, servers: int) -> float:
        if self._rate <= EPSILON:
            return self.min_response_time
        a = self._rate / self._mu
        if servers <= a + EPSILON:
            return float("inf")
        c_wait = _erlang_c_wait_probability(servers, a)
        return 1.0 / self._mu + c_wait / (servers * self._mu - self._rate)

    def response_time(self, cpu_mhz: float) -> float:
        if self._rate <= EPSILON:
            return self.min_response_time
        servers = cpu_mhz / self._sigma
        if servers < 1.0:
            # Less than one server: a PS fraction of one processor.
            surplus = cpu_mhz - self.offered_load
            if surplus <= EPSILON:
                return float("inf")
            return max(self.min_response_time, self._demand / surplus)
        lo = math.floor(servers)
        hi = lo + 1
        t_lo = self._response_time_servers(lo)
        t_hi = self._response_time_servers(hi)
        if math.isinf(t_lo):
            # Interpolating against inf is meaningless; fall back to the
            # feasible endpoint scaled by the fractional shortfall.
            return t_hi if servers >= hi - EPSILON else float("inf")
        frac = servers - lo
        return t_lo + frac * (t_hi - t_lo)

    def required_cpu(self, response_time: float) -> float:
        """The bisected inverse, capped at :attr:`saturation_cpu` as the
        processor-sharing inverse is: a target between the floor and
        the saturation point's response time needs the saturation."""
        required = self._bisect_cpu(response_time)
        if required == math.inf:
            return required
        return min(required, self.saturation_cpu)

    def _bisect_cpu(self, response_time: float) -> float:
        """The smallest allocation whose response time is at most the
        target, uncapped."""
        if response_time <= 0 or response_time < self.min_response_time * (1.0 - 1e-9):
            return float("inf")
        if self._rate <= EPSILON:
            return 0.0
        # The curve approaches the floor asymptotically; targets within
        # rounding distance of it would demand astronomically many
        # servers for no modelled benefit — clamp to a hair above.
        target = max(response_time, self.min_response_time * (1.0 + 1e-6))
        # Monotone decreasing response_time(ω): bisect.
        lo = self.offered_load
        hi = max(self.offered_load * 2.0, self._sigma * 2.0)
        while self.response_time(hi) > target and hi < 1e12:
            hi *= 2.0
        if self.response_time(hi) > target:
            raise ModelError(
                f"target response time {target}s unreachable below 1e12 MHz"
            )
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if self.response_time(mid) > target:
                lo = mid
            else:
                hi = mid
        return hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ErlangCModel(λ={self._rate:.2f}/s, d={self._demand:.1f}Mcy, "
            f"σ={self._sigma:.0f}MHz)"
        )


def calibrate_processor_sharing(
    max_utility: float,
    saturation_cpu_mhz: float,
    single_thread_speed_mhz: float,
    min_response_time: float = 0.1,
) -> "tuple[ProcessorSharingModel, float]":
    """Build a PS model + goal hitting two observable anchors.

    Experiment Three specifies the transactional workload only through two
    anchors: its maximum achievable relative performance (≈ 0.66) and the
    allocation at which it saturates (≈ 130,000 MHz).  Given those, a
    single-thread speed ``σ`` and a chosen bare service time, this returns
    ``(model, response_time_goal)`` such that:

    * ``u_max = (τ − t_min)/τ = max_utility``, and
    * ``response_time(ω)`` reaches its floor exactly at
      ``saturation_cpu_mhz``.
    """
    if not 0 < max_utility < 1:
        raise ConfigurationError(f"max utility must be in (0,1), got {max_utility}")
    if min_response_time <= 0:
        raise ConfigurationError(
            f"min response time must be positive, got {min_response_time}"
        )
    if saturation_cpu_mhz <= single_thread_speed_mhz:
        raise ConfigurationError(
            "saturation allocation must exceed the single-thread speed"
        )
    demand = min_response_time * single_thread_speed_mhz
    goal = min_response_time / (1.0 - max_utility)
    arrival_rate = (saturation_cpu_mhz - single_thread_speed_mhz) / demand
    model = ProcessorSharingModel(arrival_rate, demand, single_thread_speed_mhz)
    return model, goal


def calibrate_erlang_c(
    max_utility: float,
    saturation_cpu_mhz: float,
    single_thread_speed_mhz: float,
    min_response_time: float = 0.1,
    utilization_at_saturation: float = 0.677,
) -> "tuple[ErlangCModel, float]":
    """Build an M/M/c model + goal hitting Experiment Three's anchors
    with a *gradual* degradation below the saturation point.

    The processor-sharing calibration
    (:func:`calibrate_processor_sharing`) pins the offered load just
    below the saturation allocation, which makes any allocation under
    ~97% of saturation unstable — too brittle to reproduce the paper's
    static 6-node partition, whose transactional relative performance is
    merely *lower* (≈0.4-0.55), not catastrophic.  The M/M/c curve is
    soft: waiting time decays smoothly as servers are added.

    ``utilization_at_saturation`` fixes the offered load as a fraction of
    the saturation allocation (the default leaves the paper's 6/9-node
    partition split on opposite sides of "satisfied").  Returns
    ``(model, response_time_goal)`` with

    * ``u_max = (τ − t_min)/τ = max_utility``, and
    * relative performance within ~1% of the plateau at
      ``saturation_cpu_mhz``.
    """
    if not 0 < max_utility < 1:
        raise ConfigurationError(f"max utility must be in (0,1), got {max_utility}")
    if not 0 < utilization_at_saturation < 1:
        raise ConfigurationError(
            "utilization at saturation must be in (0,1), got "
            f"{utilization_at_saturation}"
        )
    if min_response_time <= 0:
        raise ConfigurationError(
            f"min response time must be positive, got {min_response_time}"
        )
    if saturation_cpu_mhz <= single_thread_speed_mhz:
        raise ConfigurationError(
            "saturation allocation must exceed the single-thread speed"
        )
    demand = min_response_time * single_thread_speed_mhz
    goal = min_response_time / (1.0 - max_utility)
    offered = utilization_at_saturation * saturation_cpu_mhz
    arrival_rate = offered / demand
    model = ErlangCModel(arrival_rate, demand, single_thread_speed_mhz)
    return model, goal
