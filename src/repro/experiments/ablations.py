"""Ablation studies for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but each probes one of its design
decisions:

* **sampling resolution** — the paper uses a "small constant" R of
  target relative performance values; how much does prediction quality
  depend on the grid, and how far is the equation-(6) interpolation from
  the exact equalized-level solve?
* **control cycle length** — §3.1 argues for short cycles; sweep T;
* **placement-action costs** — Experiment Two ignored reconfiguration
  costs; quantify what the measured cost model changes;
* **prediction method** — the paper's interpolation versus this
  library's exact solver, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.hypothetical import DEFAULT_UTILITY_LEVELS, HypotheticalRPF
from repro.batch.rpf import JobAllocationRPF
from repro.core.apc import APCConfig
from repro.core.rpf import NEGATIVE_INFINITY_UTILITY
from repro.experiments.common import PAPER_CONTROL_CYCLE, Scale, scale_from_env
from repro.sim.metrics import MetricsRecorder
from repro.sim.simulator import SimulationConfig
from repro.virt.costs import (
    FREE_COST_MODEL,
    PAPER_COST_MODEL,
    VirtualizationCostModel,
)
from repro.workloads.generators import experiment_two_jobs


def sampling_levels(resolution: int) -> Tuple[float, ...]:
    """A level grid with ``resolution`` points between -2 and 1, plus the
    paper's ``u_1 = -inf`` floor."""
    body = np.linspace(-2.0, 1.0, resolution)
    return (NEGATIVE_INFINITY_UTILITY,) + tuple(float(x) for x in body)


@dataclass
class SamplingAblationRow:
    resolution: int
    max_interpolation_error: float
    mean_interpolation_error: float


def run_sampling_ablation(
    resolutions: Sequence[int] = (4, 8, 16, 32),
    job_count: int = 60,
    seed: int = 0,
) -> List[SamplingAblationRow]:
    """Interpolated (eq. 6) versus exact utilities across grid sizes."""
    jobs = experiment_two_jobs(count=job_count, mean_interarrival=50.0, seed=seed)
    rpfs = [JobAllocationRPF(j, now=0.0) for j in jobs]
    rows: List[SamplingAblationRow] = []
    reference = HypotheticalRPF(rpfs, levels=DEFAULT_UTILITY_LEVELS)
    aggregates = np.linspace(
        0.05 * reference.max_aggregate_demand,
        1.2 * reference.max_aggregate_demand,
        12,
    )
    for resolution in resolutions:
        hypo = HypotheticalRPF(rpfs, levels=sampling_levels(resolution))
        errors = []
        for aggregate in aggregates:
            exact = hypo.utilities_array(aggregate, method="exact")
            approx = hypo.utilities_array(aggregate, method="interpolate")
            errors.append(np.abs(exact - approx))
        stacked = np.concatenate(errors)
        rows.append(
            SamplingAblationRow(
                resolution=resolution,
                max_interpolation_error=float(stacked.max()),
                mean_interpolation_error=float(stacked.mean()),
            )
        )
    return rows


def _run_apc(
    scale: Scale,
    *,
    workload: str,
    interarrival: float,
    seed: int,
    cycle_length: float = PAPER_CONTROL_CYCLE,
    cost_model: VirtualizationCostModel = PAPER_COST_MODEL,
    prediction_method: str = "exact",
) -> MetricsRecorder:
    """Run the APC on one seeded stream at ``scale``; ``interarrival``
    is in paper terms."""
    # Deferred: repro.scenario imports repro.experiments.common, so a
    # module-level import here would cycle through the package init.
    from repro.scenario import Scenario, Simulation

    scenario = Scenario(
        name="ablation",
        nodes=scale.nodes,
        workload=workload,
        job_count=scale.job_count,
        interarrival=interarrival,
        seed=seed,
        queue_window=scale.queue_window,
        prediction_method=prediction_method,
        apc=APCConfig(cycle_length=cycle_length),
        sim=SimulationConfig(cycle_length=cycle_length, cost_model=cost_model),
    )
    return Simulation.from_scenario(scenario).run()


@dataclass
class CycleLengthRow:
    cycle_length: float
    deadline_satisfaction: float
    placement_changes: int
    mean_decision_seconds: float


def run_cycle_length_ablation(
    cycle_lengths: Sequence[float] = (300.0, 600.0, 1200.0, 2400.0),
    scale: Optional[Scale] = None,
    seed: int = 0,
) -> List[CycleLengthRow]:
    """Sweep the control cycle length on the Experiment One workload."""
    scale = scale or scale_from_env()
    rows: List[CycleLengthRow] = []
    for cycle in cycle_lengths:
        metrics = _run_apc(
            scale,
            workload="experiment1",
            interarrival=260.0,
            seed=seed,
            cycle_length=cycle,
        )
        rows.append(
            CycleLengthRow(
                cycle_length=cycle,
                deadline_satisfaction=metrics.deadline_satisfaction_rate(),
                placement_changes=metrics.total_placement_changes(),
                mean_decision_seconds=metrics.mean_decision_seconds(),
            )
        )
    return rows


@dataclass
class CostModelRow:
    cost_model: str
    deadline_satisfaction: float
    placement_changes: int
    mean_completion_time: float


def run_cost_model_ablation(
    scale: Optional[Scale] = None,
    paper_interarrival: float = 150.0,
    seed: int = 0,
) -> List[CostModelRow]:
    """Experiment Two's APC with and without reconfiguration costs."""
    scale = scale or scale_from_env()
    rows: List[CostModelRow] = []
    for name, costs in (("free", FREE_COST_MODEL), ("paper", PAPER_COST_MODEL)):
        metrics = _run_apc(
            scale,
            workload="experiment2",
            interarrival=paper_interarrival,
            seed=seed,
            cost_model=costs,
        )
        durations = [
            c.completion_time - c.submit_time for c in metrics.completions
        ]
        rows.append(
            CostModelRow(
                cost_model=name,
                deadline_satisfaction=metrics.deadline_satisfaction_rate(),
                placement_changes=metrics.total_placement_changes(),
                mean_completion_time=(
                    sum(durations) / len(durations) if durations else float("nan")
                ),
            )
        )
    return rows


@dataclass
class PredictionMethodRow:
    method: str
    deadline_satisfaction: float
    placement_changes: int


def run_prediction_method_ablation(
    scale: Optional[Scale] = None,
    paper_interarrival: float = 200.0,
    seed: int = 0,
) -> List[PredictionMethodRow]:
    """End-to-end APC with exact versus interpolated predictions."""
    scale = scale or scale_from_env()
    rows: List[PredictionMethodRow] = []
    for method in ("exact", "interpolate"):
        metrics = _run_apc(
            scale,
            workload="experiment2",
            interarrival=paper_interarrival,
            seed=seed,
            cost_model=FREE_COST_MODEL,
            prediction_method=method,
        )
        rows.append(
            PredictionMethodRow(
                method=method,
                deadline_satisfaction=metrics.deadline_satisfaction_rate(),
                placement_changes=metrics.total_placement_changes(),
            )
        )
    return rows
