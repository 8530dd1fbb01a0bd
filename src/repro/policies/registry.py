"""The string-keyed placement-policy registry.

Every placement policy is registered under a stable name, so scenarios
and sweep specs can select one declaratively — ``policy="dfrs"`` in
plain JSON — instead of wiring Python objects.  A registry entry pairs
the policy class with an optional *builder* that assembles an instance
from a :class:`PolicyContext` (the object graph
:meth:`~repro.scenario.Simulation.from_scenario` has already built) plus
JSON-friendly parameters; entries without a builder (scripted and
partitioned policies, which need live objects a scenario cannot name)
are resolvable by name but must be constructed directly.

Stable names::

    apc                     the paper's controller
    fcfs                    First-Come First-Served (params: skip_blocked)
    edf                     Earliest Deadline First
    lrpf                    standalone LRPF greedy
    proportional_fairness   Bonald & Roberts water-filled equal shares
                            (params: ProportionalFairnessConfig fields)
    dfrs                    Stillwell et al. equal-yield fractional
                            scheduling (params: DFRSConfig fields)
    partitioned             static transactional/batch partition (no
                            scenario builder)
    scripted                scripted replay harness (no scenario builder)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.errors import ConfigurationError
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanProfiler
from repro.policies.builtin import (
    APCPolicy,
    EDFPolicy,
    FCFSPolicy,
    LRPFPolicy,
    PartitionedPolicy,
    ScriptedPolicy,
)
from repro.policies.rivals import (
    DFRSConfig,
    DFRSPolicy,
    ProportionalFairnessConfig,
    ProportionalFairnessPolicy,
)


@dataclass
class PolicyContext:
    """The live object graph a policy builder may draw from.

    Assembled by :meth:`~repro.scenario.Simulation.from_scenario` after
    the cluster, queue, and batch model exist but before the policy
    does.  The telemetry fields mirror ``from_scenario``'s opt-in knobs
    and may all be ``None``.
    """

    cluster: Cluster
    queue: JobQueue
    batch_model: BatchWorkloadModel
    apc_config: APCConfig
    profiler: Optional[SpanProfiler] = None
    registry: Optional[MetricRegistry] = None
    audit: Optional[DecisionAudit] = None
    #: Optional causal job tracer (``repro.obs.tracing.JobTracer``);
    #: APC-backed policies mirror admission verdicts onto it.
    tracer: Optional[object] = None


#: builder(context, **params) -> policy instance
PolicyBuilder = Callable[..., object]


class PolicyRegistry:
    """Maps stable string names to placement-policy classes/builders."""

    def __init__(self) -> None:
        self._classes: Dict[str, type] = {}
        self._builders: Dict[str, Optional[PolicyBuilder]] = {}

    def register(
        self,
        name: str,
        cls: type,
        builder: Optional[PolicyBuilder] = None,
        *,
        replace: bool = False,
    ) -> None:
        """Register ``cls`` under ``name``; ``builder`` (when given)
        makes the policy constructible from a scenario.  Duplicate names
        are rejected unless ``replace=True``."""
        if name in self._classes and not replace:
            raise ConfigurationError(
                f"policy name {name!r} is already registered "
                f"(to {self._classes[name].__name__}); pass replace=True "
                "to override"
            )
        self._classes[name] = cls
        self._builders[name] = builder

    def names(self) -> Tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._classes))

    def buildable_names(self) -> Tuple[str, ...]:
        """Names a :class:`~repro.scenario.Scenario` can select, sorted."""
        return tuple(
            sorted(n for n, b in self._builders.items() if b is not None)
        )

    def get(self, name: str) -> type:
        """The policy class registered under ``name``."""
        cls = self._classes.get(name)
        if cls is None:
            raise ConfigurationError(
                f"unknown policy {name!r}; expected one of {list(self.names())}"
            )
        return cls

    def create(self, name: str, context: PolicyContext, **params: object):
        """Build the policy ``name`` from ``context`` and JSON-friendly
        ``params``.  Raises :class:`~repro.errors.ConfigurationError`
        for unknown names and for policies without a scenario builder."""
        self.get(name)  # surface unknown names with the full list
        builder = self._builders.get(name)
        if builder is None:
            raise ConfigurationError(
                f"policy {name!r} cannot be built from a scenario (it "
                "needs live objects a scenario cannot describe); "
                f"construct {self._classes[name].__name__} directly"
            )
        return builder(context, **params)

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self):
        return iter(self.names())


def _reject_unknown(name: str, params: Dict[str, object]) -> None:
    if params:
        raise ConfigurationError(
            f"unknown policy params for {name!r}: {sorted(params)}"
        )


def _build_apc(context: PolicyContext, **params: object) -> APCPolicy:
    _reject_unknown("apc", params)
    controller = ApplicationPlacementController(
        context.cluster,
        context.apc_config,
        profiler=context.profiler,
        registry=context.registry,
        audit=context.audit,
        tracer=context.tracer,
    )
    return APCPolicy(controller, [context.batch_model])


def _build_fcfs(context: PolicyContext, **params: object) -> FCFSPolicy:
    skip_blocked = bool(params.pop("skip_blocked", False))
    _reject_unknown("fcfs", params)
    return FCFSPolicy(context.cluster, context.queue, skip_blocked=skip_blocked)


def _build_edf(context: PolicyContext, **params: object) -> EDFPolicy:
    _reject_unknown("edf", params)
    return EDFPolicy(context.cluster, context.queue)


def _build_lrpf(context: PolicyContext, **params: object) -> LRPFPolicy:
    _reject_unknown("lrpf", params)
    return LRPFPolicy(context.cluster, context.queue)


def _build_pf(
    context: PolicyContext, **params: object
) -> ProportionalFairnessPolicy:
    config = ProportionalFairnessConfig.from_dict(params)
    return ProportionalFairnessPolicy(
        context.cluster, context.queue, config=config
    )


def _build_dfrs(context: PolicyContext, **params: object) -> DFRSPolicy:
    config = DFRSConfig.from_dict(params)
    return DFRSPolicy(context.cluster, context.queue, config=config)


def _default_registry() -> PolicyRegistry:
    registry = PolicyRegistry()
    registry.register("apc", APCPolicy, _build_apc)
    registry.register("fcfs", FCFSPolicy, _build_fcfs)
    registry.register("edf", EDFPolicy, _build_edf)
    registry.register("lrpf", LRPFPolicy, _build_lrpf)
    registry.register(
        "proportional_fairness", ProportionalFairnessPolicy, _build_pf
    )
    registry.register("dfrs", DFRSPolicy, _build_dfrs)
    registry.register("partitioned", PartitionedPolicy)
    registry.register("scripted", ScriptedPolicy)
    return registry


#: The process-wide registry scenarios resolve against.
_DEFAULT: PolicyRegistry = _default_registry()


def default_policy_registry() -> PolicyRegistry:
    """The registry :class:`~repro.scenario.Scenario` resolves policy
    names against.  Extensions may :meth:`~PolicyRegistry.register`
    additional policies here (module-level, so sweep worker processes
    re-register them on import)."""
    return _DEFAULT
