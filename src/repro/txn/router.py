"""Request router: load balancing and overload protection.

§3.1: "Requests to these applications arrive at an entry router which may
be an L4 or L7 gateway that distributes requests to clustered applications
according to a load balancing mechanism. ... It may also employ an
overload protection mechanism by queuing requests that cannot be
immediately accommodated by server nodes."

The router here implements:

* **weighted load balancing**: the application's arrival stream is split
  across its instances in proportion to the CPU speed each instance was
  allocated (an instance with twice the CPU serves twice the traffic —
  the split that equalizes per-instance utilization and therefore
  response time);
* **overload protection**: per-instance admission is capped at a maximum
  utilization ``ρ_max``; the excess arrival rate is shed to an admission
  queue and reported, never silently dropped.

The router also produces the application-level mean response time
(request-weighted over instances) that the monitoring path feeds back into
the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.errors import ConfigurationError
from repro.txn.queuing import ProcessorSharingModel
from repro.units import EPSILON


@dataclass
class RoutingDecision:
    """Outcome of routing one application's stream for one interval."""

    #: Arrival rate admitted to each instance (req/s), keyed by node.
    admitted: Dict[str, float] = field(default_factory=dict)
    #: Arrival rate in excess of what the instances can absorb (req/s).
    shed_rate: float = 0.0
    #: Request-weighted mean response time across instances (s); ``inf``
    #: when nothing could be admitted while traffic was offered.
    mean_response_time: float = float("inf")

    @property
    def admitted_rate(self) -> float:
        return sum(self.admitted.values())


class RequestRouter:
    """Weighted load balancer with utilization-capped admission."""

    def __init__(self, max_utilization: float = 0.95) -> None:
        if not 0 < max_utilization <= 1.0:
            raise ConfigurationError(
                f"max utilization must be in (0, 1], got {max_utilization}"
            )
        self._max_utilization = max_utilization

    def route(
        self,
        arrival_rate: float,
        demand_mcycles: float,
        instance_speeds: Mapping[str, float],
        single_thread_speed_mhz: float,
    ) -> RoutingDecision:
        """Split ``arrival_rate`` across instances.

        Parameters
        ----------
        arrival_rate:
            Offered request rate for the application (req/s).
        demand_mcycles:
            Average CPU demand per request.
        instance_speeds:
            CPU speed allocated to the application on each node hosting an
            instance (the application's column of the load matrix ``L``).
        single_thread_speed_mhz:
            Per-processor speed, bounding a single request's service rate.
        """
        if arrival_rate < 0:
            raise ConfigurationError(f"arrival rate must be >= 0, got {arrival_rate}")
        decision = RoutingDecision()
        speeds = {n: s for n, s in instance_speeds.items() if s > EPSILON}
        total_speed = sum(speeds.values())
        if total_speed <= EPSILON:
            decision.shed_rate = arrival_rate
            decision.mean_response_time = (
                float("inf") if arrival_rate > EPSILON
                else demand_mcycles / single_thread_speed_mhz
            )
            return decision

        # Proportional-to-capacity split equalizes instance utilization.
        remaining_shed = 0.0
        weighted_rt = 0.0
        admitted_total = 0.0
        for node, speed in speeds.items():
            offered = arrival_rate * speed / total_speed
            # Admission cap: λ·d <= ρ_max·ω  per instance.
            cap = self._max_utilization * speed / demand_mcycles
            admitted = min(offered, cap)
            remaining_shed += offered - admitted
            decision.admitted[node] = admitted
            admitted_total += admitted
            model = ProcessorSharingModel(
                arrival_rate=admitted,
                demand_mcycles=demand_mcycles,
                single_thread_speed_mhz=single_thread_speed_mhz,
            )
            rt = model.response_time(speed)
            weighted_rt += admitted * rt

        decision.shed_rate = remaining_shed
        if admitted_total > EPSILON:
            decision.mean_response_time = weighted_rt / admitted_total
        elif arrival_rate <= EPSILON:
            decision.mean_response_time = demand_mcycles / single_thread_speed_mhz
        return decision
