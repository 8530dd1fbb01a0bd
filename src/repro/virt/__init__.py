"""Virtualization control mechanisms.

The paper assumes a virtualized system in which VM control mechanisms —
boot, suspend, resume, and live migration — are used to reconfigure
application placement online.  The costs of these mechanisms (the time
they take) were measured by the authors on "a popular virtualization
product for Intel-based machines" and found to be linear in the VM memory
footprint (§5):

* ``suspend_cost = footprint * 0.0353 s/MB``
* ``resume_cost  = footprint * 0.0333 s/MB``
* ``migrate_cost = footprint * 0.0132 s/MB``
* ``boot_time    = 3.6 s`` (constant)

This package holds that cost model, the action vocabulary, the placement
diff and the fault model of a fallible actuator.  The simulator turns
each diff into actions, prices them with the cost model and follows each
job's VM through the job's status.
"""

from repro.virt.costs import VirtualizationCostModel, PAPER_COST_MODEL, FREE_COST_MODEL
from repro.virt.actions import ActionType, diff_placements
from repro.virt.faults import (
    ActionFaultModel,
    FaultOutcome,
    FaultSampler,
    FaultSpec,
    RetryPolicy,
)

__all__ = [
    "VirtualizationCostModel",
    "PAPER_COST_MODEL",
    "FREE_COST_MODEL",
    "ActionType",
    "diff_placements",
    "ActionFaultModel",
    "FaultOutcome",
    "FaultSampler",
    "FaultSpec",
    "RetryPolicy",
]
