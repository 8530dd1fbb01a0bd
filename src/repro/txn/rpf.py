"""Relative performance of transactional applications.

§3.3, equation (1): with response-time goal ``τ_m`` and observed (or
modeled) response time ``t_m``,

    u_m(t_m) = (τ_m − t_m) / τ_m

Composing the queuing model ``t_m(ω_m)`` yields the RPF of the CPU
allocation used by the placement controller, together with its inverse
``ω_m(u)``.
"""

from __future__ import annotations

from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.errors import ConfigurationError
from repro.txn.queuing import ResponseTimeModel
from repro.units import EPSILON


class TransactionalRPF:
    """``u_m(ω) = (τ_m − t_m(ω)) / τ_m`` for one transactional application.

    Implements the :class:`~repro.core.rpf.RelativePerformanceFunction`
    protocol.  Monotone non-decreasing in the allocation; saturates at
    ``u_max = (τ − t_min)/τ`` (the response time cannot be reduced below
    the bare service time no matter how much CPU is granted — the paper's
    0.66 plateau in Experiment Three); clamped below at
    :data:`~repro.core.rpf.NEGATIVE_INFINITY_UTILITY` for allocations that
    cannot sustain the offered load.
    """

    def __init__(self, model: ResponseTimeModel, response_time_goal: float) -> None:
        if response_time_goal <= 0:
            raise ConfigurationError(
                f"response time goal must be positive, got {response_time_goal}"
            )
        self._model = model
        self._goal = response_time_goal

    @property
    def model(self) -> ResponseTimeModel:
        return self._model

    @property
    def response_time_goal(self) -> float:
        return self._goal

    def utility_of_response_time(self, response_time: float) -> float:
        """Equation (1), clamped below at the library's utility floor."""
        if response_time == float("inf"):
            return NEGATIVE_INFINITY_UTILITY
        u = (self._goal - response_time) / self._goal
        return max(NEGATIVE_INFINITY_UTILITY, u)

    @property
    def max_utility(self) -> float:
        return self.utility_of_response_time(self._model.min_response_time)

    @property
    def saturation_cpu(self) -> float:
        return self._model.saturation_cpu

    def utility(self, cpu_mhz: float) -> float:
        return self.utility_of_response_time(self._model.response_time(cpu_mhz))

    def required_cpu(self, utility: float) -> float:
        """The inverse, never above :attr:`saturation_cpu`: that
        allocation reaches :attr:`max_utility`, so it is enough for any
        utility up to ``max_utility + EPSILON``, also one whose target
        response time rounds below the model's floor."""
        if utility > self.max_utility + EPSILON:
            return float("inf")
        target_response = self._goal * (1.0 - utility)
        required = (
            self._model.required_cpu(target_response)
            if target_response > 0
            else float("inf")
        )
        saturation = self.saturation_cpu
        return required if required < saturation else saturation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionalRPF(goal={self._goal:.3f}s, "
            f"u_max={self.max_utility:.3f}, "
            f"saturation={self.saturation_cpu:.0f}MHz)"
        )
