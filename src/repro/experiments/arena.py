"""Policy tournaments: N policies × M scenarios, ranked on SLA outcomes.

The arena crosses every entrant (a policy name plus optional params)
with every scenario, fans the cross product out through
:func:`~repro.experiments.runner.run_sweep` (inheriting its worker pool,
checkpointing, and retry machinery), and aggregates each entrant's
:func:`~repro.sim.metrics.sla_summary` into a deterministic ranking:
failed runs first (fewer is better), then worst-case SLA attainment,
breach count, churn, and migration volume as tie-breakers.  No
wall-clock field participates in the ranking, so equal inputs rank
equally on any machine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro._compat import keyword_only
from repro.errors import ConfigurationError
from repro.experiments.common import format_table
from repro.experiments.runner import RunSpec, SweepResult, run_sweep
from repro.policies import check_policy_name
from repro.scenario import Scenario

#: An entrant: a policy name, or a mapping with ``name`` plus optional
#: ``params`` (policy parameters) and ``label`` (display/ranking key).
EntrantLike = Union[str, Mapping[str, object]]

_ENTRANT_KEYS = {"name", "params", "label"}


@keyword_only
@dataclass
class ArenaEntrant:
    """One normalized tournament entrant."""

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        check_policy_name(self.name)
        self.params = dict(self.params)
        if not self.label:
            self.label = self.name

    @classmethod
    def coerce(cls, entrant: EntrantLike) -> "ArenaEntrant":
        if isinstance(entrant, ArenaEntrant):
            return entrant
        if isinstance(entrant, str):
            return cls(name=entrant)
        if isinstance(entrant, Mapping):
            unknown = set(entrant) - _ENTRANT_KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown arena entrant keys: {sorted(unknown)}"
                )
            if "name" not in entrant:
                raise ConfigurationError("arena entrants need a 'name'")
            return cls(**dict(entrant))
        raise ConfigurationError(
            f"cannot interpret {entrant!r} as an arena entrant"
        )


@keyword_only
@dataclass
class ArenaResult:
    """A finished tournament: the raw sweep plus the ranked standings.

    ``rankings`` is best-first; each row carries the entrant's label and
    policy name, aggregate SLA figures over its scenarios, and the
    per-scenario summaries (``runs``) behind them.
    """

    entrants: List[ArenaEntrant]
    scenarios: List[Scenario]
    sweep: SweepResult
    rankings: List[Dict[str, object]]

    def winner(self) -> Dict[str, object]:
        """The top-ranked row."""
        if not self.rankings:
            raise ConfigurationError("empty arena has no winner")
        return self.rankings[0]


def _rank_key(row: Mapping[str, object]):
    return (
        row["failures"],
        -row["attainment"],
        row["breaches"],
        row["churn_instances"],
        row["migration_distance_mb"],
        row["label"],
    )


def _aggregate(
    entrant: ArenaEntrant, runs: List[Dict[str, object]]
) -> Dict[str, object]:
    """Fold one entrant's per-scenario summaries into a ranking row.

    ``attainment`` is the mean over succeeded scenarios of the *minimum*
    per-application attainment (the maxmin lens the paper's controller
    optimizes); failed runs are excluded from the means but counted —
    and ranked — as failures.
    """
    ok_runs = [r for r in runs if r.get("ok")]
    minima: List[float] = []
    breaches = churn = 0
    migration = 0.0
    for run in ok_runs:
        sla = run.get("sla") or {}
        attainment = sla.get("attainment") or {}
        minima.append(min(attainment.values()) if attainment else 1.0)
        breaches += sum((sla.get("breaches") or {}).values())
        churn += int(sla.get("churn_instances", 0))
        migration += float(sla.get("migration_distance_mb", 0.0))
    return {
        "label": entrant.label,
        "policy": entrant.name,
        "params": dict(entrant.params),
        "scenarios": len(runs),
        "failures": len(runs) - len(ok_runs),
        "attainment": sum(minima) / len(minima) if minima else 0.0,
        "breaches": breaches,
        "churn_instances": churn,
        "migration_distance_mb": migration,
        "runs": runs,
    }


def run_arena(
    policies: Sequence[EntrantLike],
    scenarios: Sequence[Union[Scenario, Mapping[str, object]]],
    workers: Optional[int] = None,
    *,
    run_dir: Optional[str] = None,
    resume: bool = False,
    spec_timeout: Optional[float] = None,
    max_attempts: int = 2,
) -> ArenaResult:
    """Run every policy against every scenario and rank the standings.

    ``policies`` are policy names or ``{"name", "params", "label"}``
    mappings (labels must be unique — they key the ranking); each
    scenario is re-run once per entrant with the entrant's policy
    swapped in, so all entrants face identical seeded workloads, faults,
    and cluster shapes.  The crash-safety knobs (``run_dir``,
    ``resume``, ``spec_timeout``, ``max_attempts``) pass straight
    through to :func:`~repro.experiments.runner.run_sweep`.
    """
    entrants = [ArenaEntrant.coerce(p) for p in policies]
    if not entrants:
        raise ConfigurationError("arena needs at least one policy")
    labels = [e.label for e in entrants]
    if len(labels) != len(set(labels)):
        raise ConfigurationError(f"duplicate arena labels: {sorted(labels)}")
    scenario_objs = [
        s if isinstance(s, Scenario) else Scenario.from_dict(s)
        for s in scenarios
    ]
    if not scenario_objs:
        raise ConfigurationError("arena needs at least one scenario")

    specs: List[RunSpec] = []
    for entrant in entrants:
        for scenario in scenario_objs:
            contest = dataclasses.replace(
                scenario,
                name=f"{scenario.name}/{entrant.label}",
                policy=entrant.name,
                policy_params=dict(entrant.params),
            )
            specs.append(
                RunSpec(
                    kind="scenario",
                    name=contest.name,
                    seed=scenario.seed,
                    params={"scenario": contest.to_dict()},
                )
            )

    sweep = run_sweep(
        specs,
        workers,
        run_dir=run_dir,
        resume=resume,
        spec_timeout=spec_timeout,
        max_attempts=max_attempts,
    )

    per_entrant = len(scenario_objs)
    rows = [
        _aggregate(
            entrant, sweep.summaries[i * per_entrant : (i + 1) * per_entrant]
        )
        for i, entrant in enumerate(entrants)
    ]
    rows.sort(key=_rank_key)
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return ArenaResult(
        entrants=entrants,
        scenarios=scenario_objs,
        sweep=sweep,
        rankings=rows,
    )


def render_arena_table(result: ArenaResult) -> str:
    """The standings as a plain-text table (best first)."""
    headers = [
        "Rank",
        "Policy",
        "Attainment",
        "Breaches",
        "Churn",
        "Migration MB",
        "Failures",
    ]
    rows = [
        [
            row["rank"],
            row["label"],
            f"{100.0 * row['attainment']:.1f}%",
            row["breaches"],
            row["churn_instances"],
            f"{row['migration_distance_mb']:.0f}",
            row["failures"],
        ]
        for row in result.rankings
    ]
    return format_table(headers, rows)
