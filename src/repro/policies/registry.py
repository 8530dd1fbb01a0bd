"""The table of placement policies a scenario can select by name.

Scenarios, sweep specs and arena entrants name their policy in plain
JSON — ``policy="dfrs"`` — instead of wiring Python objects.
:data:`POLICY_BUILDERS` maps each name to a builder that assembles the
policy from a :class:`PolicyContext` (the object graph
:meth:`~repro.scenario.Simulation.from_scenario` has already built) plus
JSON-friendly parameters; :func:`build_policy` is the one call that
uses it.  Partitioned and scripted policies need live objects a
scenario cannot name, so their callers construct them directly.

Names::

    apc                     the paper's controller
    fcfs                    First-Come First-Served
    edf                     Earliest Deadline First
    lrpf                    standalone LRPF greedy
    proportional_fairness   Bonald & Roberts water-filled equal shares
                            (params: ProportionalFairnessConfig fields)
    dfrs                    Stillwell et al. equal-yield fractional
                            scheduling (params: DFRSConfig fields)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.batch.model import BatchWorkloadModel
from repro.batch.queue import JobQueue
from repro.cluster import Cluster
from repro.core.apc import APCConfig, ApplicationPlacementController
from repro.errors import ConfigurationError
from repro.obs.audit import DecisionAudit
from repro.obs.registry import MetricRegistry
from repro.obs.spans import SpanProfiler
from repro.policies.builtin import APCPolicy, EDFPolicy, FCFSPolicy, LRPFPolicy
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
    _reject_unknown("fcfs", params)
    return FCFSPolicy(context.cluster, context.queue)


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


#: Every policy a scenario can name, with its builder.
POLICY_BUILDERS: Dict[str, PolicyBuilder] = {
    "apc": _build_apc,
    "fcfs": _build_fcfs,
    "edf": _build_edf,
    "lrpf": _build_lrpf,
    "proportional_fairness": _build_pf,
    "dfrs": _build_dfrs,
}


def check_policy_name(name: object) -> None:
    """Raise :class:`~repro.errors.ConfigurationError`, listing the
    names, unless :data:`POLICY_BUILDERS` holds ``name``."""
    if not (isinstance(name, str) and name in POLICY_BUILDERS):
        raise ConfigurationError(
            f"unknown policy {name!r}; expected one of "
            f"{sorted(POLICY_BUILDERS)}"
        )


def build_policy(name: str, context: PolicyContext, **params: object):
    """Build the policy ``name`` from ``context`` and JSON-friendly
    ``params``.  Raises :class:`~repro.errors.ConfigurationError` for an
    unknown name or a parameter the policy does not take."""
    check_policy_name(name)
    return POLICY_BUILDERS[name](context, **params)
