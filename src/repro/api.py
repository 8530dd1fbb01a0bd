"""The stable public API of :mod:`repro` — import from here.

Everything an application, example, or notebook needs lives in this one
module, re-exported from the implementation packages under a
compatibility promise: names in :data:`__all__` keep their import path
and signature across minor versions, while the implementation modules
(:mod:`repro.core`, :mod:`repro.batch`, ...) remain free to reorganize.
``docs/public-api.md`` carries the full catalogue and the migration
table from the old deep-import paths.

Usage::

    from repro.api import Scenario, Simulation

    scenario = Scenario(name="demo", nodes=10, workload="experiment2",
                        job_count=80, interarrival=200.0, seed=7)
    metrics = Simulation.from_scenario(scenario).run()
    print(metrics.deadline_satisfaction_rate())
"""

from __future__ import annotations

# --- cluster model -----------------------------------------------------
from repro.cluster import Cluster, Node, NodeSpec

# --- placement controller (the paper's APC) ----------------------------
from repro.core import (
    APCConfig,
    APCResult,
    AppDemand,
    ApplicationPlacementController,
    ConstraintSet,
    PlacementScore,
    PlacementState,
    UtilityVector,
    distribute_load,
    lex_explain,
)

# --- batch substrate ---------------------------------------------------
from repro.batch import (
    BatchWorkloadModel,
    HypotheticalRPF,
    Job,
    JobProfile,
    JobQueue,
    JobStage,
    JobStatus,
    PredictionMethod,
)

# --- transactional substrate -------------------------------------------
from repro.txn import (
    ConstantTrace,
    PiecewiseTrace,
    ProcessorSharingModel,
    RequestRouter,
    TransactionalApp,
    TransactionalRPF,
    TransactionalWorkloadModel,
    UtilizationSample,
    WorkProfiler,
)

# --- placement policies (the registry and every implementation) --------
from repro.policies import (
    AdmissionStrategy,
    APCPolicy,
    DFRSConfig,
    DFRSPolicy,
    EDFPolicy,
    FCFSAdmission,
    FCFSPolicy,
    LexMaxMinObjective,
    LRPFAdmission,
    LRPFPolicy,
    Objective,
    PartitionedPolicy,
    PlacementPolicy,
    PolicyContext,
    PolicyRegistry,
    ProportionalFairnessConfig,
    ProportionalFairnessPolicy,
    ScriptedPolicy,
    UtilitarianObjective,
    default_policy_registry,
    resolve_admission,
    resolve_objective,
)

# --- simulator, metrics, traces ----------------------------------------
from repro.sim import (
    MetricsRecorder,
    MixedWorkloadSimulator,
    NodeFailure,
    SNAPSHOT_SCHEMA_VERSION,
    SimulationConfig,
    SimulationTrace,
    TraceEventKind,
    sla_summary,
)

# --- virtualization costs and fallible actuation -----------------------
from repro.virt import (
    FREE_COST_MODEL,
    PAPER_COST_MODEL,
    ActionFaultModel,
    FaultSpec,
    RetryPolicy,
    VirtualizationCostModel,
)

# --- scenarios and the one-call simulation builder ---------------------
from repro.scenario import Scenario, Simulation

# --- parallel sweeps and the scaling benchmark -------------------------
from repro.experiments.benchmark import (
    bench_apc_scale,
    compare_bench_reports,
    profile_bench,
    validate_bench_report,
    write_bench_report,
)
from repro.experiments.arena import (
    ArenaEntrant,
    ArenaResult,
    render_arena_table,
    run_arena,
)
from repro.experiments.runner import RunSpec, SweepResult, known_kinds, run_sweep
from repro.experiments.watch import load_watch_state, render_watch

# --- experiment drivers ------------------------------------------------
from repro.experiments import (
    Scale,
    run_experiment_one,
    run_experiment_three,
    run_experiment_two,
    run_illustrative_example,
    scale_from_env,
)
from repro.experiments.common import SCALES, format_table
from repro.experiments.experiment2 import run_single

# --- capacity planning / workload analysis -----------------------------
from repro.analysis import (
    CapacityPlan,
    WorkloadProfile,
    minimum_nodes_for_batch,
    offered_load_series,
    profile_workload,
    transactional_capacity_required,
)

# --- workload generators -----------------------------------------------
from repro.workloads import (
    JobClass,
    MixedJobGenerator,
    experiment_one_jobs,
    experiment_two_jobs,
)

# --- observability -----------------------------------------------------
from repro.obs import (
    Alert,
    AlertConfig,
    AlertEngine,
    DecisionAudit,
    HealthLevel,
    HealthReport,
    JobTracer,
    JsonlSink,
    MetricRegistry,
    SpanProfiler,
    critical_path,
    explain_cycle,
    health_from_alerts,
    read_alert_records,
    read_audit_records,
    read_trace_records,
    render_profile,
    render_prometheus,
    render_report,
    render_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_report,
)

# --- misc --------------------------------------------------------------
from repro import __version__
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    PlacementError,
    ReproError,
    SimulationError,
)
from repro.units import HOUR, MINUTE

__all__ = [
    # cluster
    "Cluster",
    "Node",
    "NodeSpec",
    # placement controller
    "APCConfig",
    "APCResult",
    "AppDemand",
    "ApplicationPlacementController",
    "ConstraintSet",
    "PlacementScore",
    "PlacementState",
    "UtilityVector",
    "distribute_load",
    "lex_explain",
    # batch substrate
    "BatchWorkloadModel",
    "HypotheticalRPF",
    "Job",
    "JobProfile",
    "JobQueue",
    "JobStage",
    "JobStatus",
    "PredictionMethod",
    # transactional substrate
    "ConstantTrace",
    "PiecewiseTrace",
    "ProcessorSharingModel",
    "RequestRouter",
    "TransactionalApp",
    "TransactionalRPF",
    "TransactionalWorkloadModel",
    "UtilizationSample",
    "WorkProfiler",
    # placement policies
    "PlacementPolicy",
    "APCPolicy",
    "EDFPolicy",
    "FCFSPolicy",
    "LRPFPolicy",
    "ProportionalFairnessPolicy",
    "ProportionalFairnessConfig",
    "DFRSPolicy",
    "DFRSConfig",
    "PolicyContext",
    "PolicyRegistry",
    "default_policy_registry",
    "Objective",
    "LexMaxMinObjective",
    "UtilitarianObjective",
    "resolve_objective",
    "AdmissionStrategy",
    "LRPFAdmission",
    "FCFSAdmission",
    "resolve_admission",
    # simulator
    "MetricsRecorder",
    "MixedWorkloadSimulator",
    "NodeFailure",
    "PartitionedPolicy",
    "ScriptedPolicy",
    "SNAPSHOT_SCHEMA_VERSION",
    "SimulationConfig",
    "SimulationTrace",
    "TraceEventKind",
    "sla_summary",
    # virtualization
    "FREE_COST_MODEL",
    "PAPER_COST_MODEL",
    "ActionFaultModel",
    "FaultSpec",
    "RetryPolicy",
    "VirtualizationCostModel",
    # scenarios
    "Scenario",
    "Simulation",
    # sweeps and benchmark
    "RunSpec",
    "SweepResult",
    "known_kinds",
    "run_sweep",
    "ArenaEntrant",
    "ArenaResult",
    "run_arena",
    "render_arena_table",
    "bench_apc_scale",
    "compare_bench_reports",
    "profile_bench",
    "validate_bench_report",
    "write_bench_report",
    "load_watch_state",
    "render_watch",
    # experiments
    "Scale",
    "SCALES",
    "scale_from_env",
    "format_table",
    "run_illustrative_example",
    "run_experiment_one",
    "run_experiment_two",
    "run_experiment_three",
    "run_single",
    # analysis
    "CapacityPlan",
    "WorkloadProfile",
    "minimum_nodes_for_batch",
    "offered_load_series",
    "profile_workload",
    "transactional_capacity_required",
    # workloads
    "JobClass",
    "MixedJobGenerator",
    "experiment_one_jobs",
    "experiment_two_jobs",
    # observability
    "Alert",
    "AlertConfig",
    "AlertEngine",
    "DecisionAudit",
    "HealthLevel",
    "HealthReport",
    "JobTracer",
    "JsonlSink",
    "MetricRegistry",
    "SpanProfiler",
    "critical_path",
    "explain_cycle",
    "health_from_alerts",
    "read_alert_records",
    "read_audit_records",
    "read_trace_records",
    "render_profile",
    "render_prometheus",
    "render_report",
    "render_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_report",
    # misc
    "CheckpointError",
    "ConfigurationError",
    "PlacementError",
    "ReproError",
    "SimulationError",
    "HOUR",
    "MINUTE",
    "__version__",
]
