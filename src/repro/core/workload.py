"""The workload-model interface the placement controller drives.

The controller is workload-agnostic: every workload type (transactional,
batch, …) plugs in through this protocol, which answers the two questions
the placement algorithm asks (§3.2) plus the bookkeeping the search needs:

* which applications exist and what do they demand
  (:meth:`WorkloadModel.app_specs`),
* which of them may be (re)placed this cycle
  (:meth:`WorkloadModel.placement_candidates`),
* what relative performance each application is predicted to achieve
  under a candidate allocation (:meth:`WorkloadModel.evaluate`).

``evaluate`` receives the *per-application total CPU allocations* of a
candidate placement and returns predicted relative performance for **all**
of the model's applications — including unplaced ones (a queued job's
predicted performance depends on the aggregate batch allocation, §4.2).
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.core.loadbalance import AllocatableApp


@runtime_checkable
class WorkloadModel(Protocol):
    """One workload type under integrated management."""

    def begin_cycle(self, now: float) -> None:
        """A ``place()`` call at ``now`` starts.  Until :meth:`end_cycle`
        the model's applications stay as they are, so it may answer every
        call from one view of its state taken here."""
        ...

    def end_cycle(self) -> None:
        """The ``place()`` call that :meth:`begin_cycle` opened is over."""
        ...

    def app_specs(self, now: float) -> Mapping[str, AllocatableApp]:
        """Demands + allocation RPFs for the model's active applications.

        Keyed by application id.  Must include every application that is
        currently placed or is a placement candidate.
        """
        ...

    def placement_candidates(self, now: float) -> Sequence[str]:
        """Application ids eligible for (re)placement this cycle."""
        ...

    def evaluate(
        self, allocations: Mapping[str, float], now: float, horizon: float
    ) -> Mapping[str, float]:
        """Predicted relative performance for all the model's applications.

        ``allocations`` maps application ids to the total CPU (MHz) a
        candidate placement grants them over the next control cycle of
        length ``horizon``; applications absent from the mapping receive
        zero.
        """
        ...
