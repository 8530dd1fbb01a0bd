"""Experiment Two (§5.2, Figures 3, 4, 5): APC versus FCFS and EDF.

Jobs with mixed profiles and goal factors are submitted at eight
inter-arrival times (400 s down to 50 s at paper scale).  The paper's
observations:

* **Figure 3** — all algorithms satisfy goals when underloaded
  (inter-arrival > 100 s); FCFS collapses under load (≤ ~50% at 100 s,
  ~40% at 50 s); EDF and APC stay high, EDF slightly (~10%) above APC at
  the heaviest load;
* **Figure 4** — FCFS makes no placement changes; EDF makes considerably
  more changes than APC once inter-arrival ≤ 150 s;
* **Figure 5** — at completion, APC's distance-to-deadline points
  cluster more tightly than EDF's (APC equalizes satisfaction), most
  visibly for the tight 1.3x goal factor.

Experiment Two "did not consider the cost of the various types of
placement changes", so the simulator runs with the zero-cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.apc import APCConfig
from repro.experiments.common import PAPER_CONTROL_CYCLE, Scale, scale_from_env
from repro.sim.metrics import MetricsRecorder
from repro.sim.simulator import SimulationConfig
from repro.virt.costs import FREE_COST_MODEL

#: The paper sweeps 400 s .. 50 s.
PAPER_INTERARRIVALS = (400.0, 350.0, 300.0, 250.0, 200.0, 150.0, 100.0, 50.0)

POLICIES = ("FCFS", "EDF", "APC")


@dataclass
class PolicyRunResult:
    """One (policy, inter-arrival) cell of Figures 3-5."""

    policy: str
    paper_interarrival: float
    metrics: MetricsRecorder
    deadline_satisfaction: float
    placement_changes: int
    #: goal factor -> list of deadline distances at completion (Figure 5).
    distances: Dict[float, List[float]] = field(default_factory=dict)


@dataclass
class ExperimentTwoResult:
    scale: Scale
    runs: List[PolicyRunResult] = field(default_factory=list)

    def cell(self, policy: str, paper_interarrival: float) -> PolicyRunResult:
        for run in self.runs:
            if run.policy == policy and run.paper_interarrival == paper_interarrival:
                return run
        raise KeyError((policy, paper_interarrival))

    def satisfaction_table(self) -> List[List[object]]:
        """Figure 3 as rows: inter-arrival, FCFS%, EDF%, APC%."""
        rows = []
        for ia in sorted({r.paper_interarrival for r in self.runs}, reverse=True):
            row: List[object] = [int(ia)]
            for policy in POLICIES:
                row.append(f"{100 * self.cell(policy, ia).deadline_satisfaction:.1f}%")
            rows.append(row)
        return rows

    def changes_table(self) -> List[List[object]]:
        """Figure 4 as rows: inter-arrival, FCFS, EDF, APC change counts."""
        rows = []
        for ia in sorted({r.paper_interarrival for r in self.runs}, reverse=True):
            row: List[object] = [int(ia)]
            for policy in POLICIES:
                row.append(self.cell(policy, ia).placement_changes)
            rows.append(row)
        return rows


def run_single(
    policy_name: str,
    paper_interarrival: float,
    scale: Scale,
    cycle_length: float = PAPER_CONTROL_CYCLE,
    seed: int = 0,
) -> PolicyRunResult:
    """Run one (policy, inter-arrival) cell.

    ``policy_name`` is any policy a :class:`~repro.scenario.Scenario`
    can name, in either case (``"APC"``, ``"dfrs"``); ``"LRPF"``, not in
    the paper's comparison, applies the paper's §1 ordering as a plain
    greedy policy, without the APC's utility-vector search.
    """
    # Deferred: repro.scenario imports repro.experiments.common, so a
    # module-level import here would cycle through the package init.
    from repro.scenario import Scenario, Simulation

    scenario = Scenario(
        name="experiment2",
        nodes=scale.nodes,
        workload="experiment2",
        job_count=scale.job_count,
        interarrival=paper_interarrival,
        seed=seed,
        queue_window=scale.queue_window,
        policy=policy_name.lower(),
        apc=APCConfig(cycle_length=cycle_length),
        sim=SimulationConfig(
            cycle_length=cycle_length, cost_model=FREE_COST_MODEL
        ),
    )
    metrics = Simulation.from_scenario(scenario).run()
    return PolicyRunResult(
        policy=policy_name,
        paper_interarrival=paper_interarrival,
        metrics=metrics,
        deadline_satisfaction=metrics.deadline_satisfaction_rate(),
        placement_changes=metrics.total_placement_changes(),
        distances=metrics.distances_by_goal_factor(),
    )


def run_experiment_two(
    scale: Optional[Scale] = None,
    interarrivals: Sequence[float] = PAPER_INTERARRIVALS,
    policies: Sequence[str] = POLICIES,
    cycle_length: float = PAPER_CONTROL_CYCLE,
    seed: int = 0,
) -> ExperimentTwoResult:
    """Sweep inter-arrival times for each policy (Figures 3-5)."""
    scale = scale or scale_from_env()
    result = ExperimentTwoResult(scale=scale)
    for ia in interarrivals:
        for policy in policies:
            result.runs.append(
                run_single(policy, ia, scale, cycle_length=cycle_length, seed=seed)
            )
    return result
