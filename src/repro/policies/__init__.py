"""Placement policies: the protocol, the name table, and every implementation.

The package gathers the policy surface behind one import root:

* :mod:`repro.policies.base` — the :class:`PlacementPolicy` protocol and
  the shared batch-state helpers;
* :mod:`repro.policies.builtin` — the paper's controller wrapper and the
  §5 baselines (FCFS, EDF, LRPF, partitioned, scripted);
* :mod:`repro.policies.rivals` — rival schedulers from the literature
  (proportional fairness, DFRS);
* :mod:`repro.policies.registry` — the table of names that lets
  scenarios, sweeps and the arena select a policy, and
  :func:`build_policy`, which builds one.

The APC itself has one objective, the paper's lexicographic maxmin, and
one admission order, LRPF; a rival ranking rule is a policy of its own
here, as proportional fairness and DFRS are.
"""

from repro.policies.base import (
    PlacementPolicy,
    build_batch_state,
    current_assignment,
)
from repro.policies.builtin import (
    APCPolicy,
    EDFPolicy,
    FCFSPolicy,
    LRPFPolicy,
    PartitionedPolicy,
    ScriptedPolicy,
)
from repro.policies.registry import (
    POLICY_BUILDERS,
    PolicyContext,
    build_policy,
    check_policy_name,
)
from repro.policies.rivals import (
    DFRSConfig,
    DFRSPolicy,
    ProportionalFairnessConfig,
    ProportionalFairnessPolicy,
)

__all__ = [
    "PlacementPolicy",
    "current_assignment",
    "build_batch_state",
    "ScriptedPolicy",
    "FCFSPolicy",
    "EDFPolicy",
    "LRPFPolicy",
    "APCPolicy",
    "PartitionedPolicy",
    "ProportionalFairnessPolicy",
    "ProportionalFairnessConfig",
    "DFRSPolicy",
    "DFRSConfig",
    "PolicyContext",
    "POLICY_BUILDERS",
    "build_policy",
    "check_policy_name",
]
