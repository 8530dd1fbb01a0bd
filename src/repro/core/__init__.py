"""The paper's primary contribution: RPF-driven application placement.

This package contains the workload-agnostic pieces of the management
system:

* :mod:`repro.core.rpf` — the relative-performance-function protocol that
  makes transactional and batch workloads comparable.
* :mod:`repro.core.objective` — the maxmin-extension ordering over vectors
  of per-application relative performance.
* :mod:`repro.core.placement` — placement (``P``) and load (``L``)
  matrices.
* :mod:`repro.core.loadbalance` — optimal load distribution for a fixed
  placement via progressive filling.
* :mod:`repro.core.constraints` — placement constraints (memory, pinning,
  collocation).
* :mod:`repro.core.apc` — the Application Placement Controller: the
  three-nested-loop heuristic that searches for a better placement each
  control cycle.
"""

from repro.core.rpf import (
    RelativePerformanceFunction,
    PiecewiseLinearRPF,
    LinearRPF,
    NEGATIVE_INFINITY_UTILITY,
)
from repro.core.objective import (
    UtilityVector,
    PlacementScore,
    lex_explain,
    Objective,
    LexMaxMinObjective,
    UtilitarianObjective,
    resolve_objective,
)
from repro.core.admission import (
    AdmissionStrategy,
    LRPFAdmission,
    FCFSAdmission,
    resolve_admission,
)
from repro.core.placement import PlacementState, AppDemand
from repro.core.loadbalance import (
    distribute_load,
    LoadDistributionResult,
)
from repro.core.constraints import (
    PlacementConstraint,
    PinToNodes,
    AntiCollocation,
    Collocation,
    MaxInstancesPerNode,
    ConstraintSet,
)
from repro.core.apc import ApplicationPlacementController, APCConfig, APCResult

__all__ = [
    "RelativePerformanceFunction",
    "PiecewiseLinearRPF",
    "LinearRPF",
    "NEGATIVE_INFINITY_UTILITY",
    "UtilityVector",
    "PlacementScore",
    "lex_explain",
    "Objective",
    "LexMaxMinObjective",
    "UtilitarianObjective",
    "resolve_objective",
    "AdmissionStrategy",
    "LRPFAdmission",
    "FCFSAdmission",
    "resolve_admission",
    "PlacementState",
    "AppDemand",
    "distribute_load",
    "LoadDistributionResult",
    "PlacementConstraint",
    "PinToNodes",
    "AntiCollocation",
    "Collocation",
    "MaxInstancesPerNode",
    "ConstraintSet",
    "ApplicationPlacementController",
    "APCConfig",
    "APCResult",
]
