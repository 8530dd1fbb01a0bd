"""Shared infrastructure for the experiment harness.

The paper's experiments run on 25 nodes with 800 jobs; that is feasible
but slow on a laptop, so every experiment is parameterized by a
:class:`Scale`.  Scaling keeps the *per-node offered load* identical to
the paper's by stretching job inter-arrival times by ``25 / nodes``:
the queueing behaviour (and therefore every qualitative result) is
preserved while wall-clock cost shrinks with the node count and job
count.

``REPRO_BENCH_SCALE`` selects the scale for the benchmark suite:

* ``tiny``  — 4 nodes, 80 jobs (seconds per experiment; CI-friendly);
* ``small`` — 6 nodes, 160 jobs (default; a few minutes for the suite);
* ``half``  — 12 nodes, 400 jobs;
* ``paper`` — 25 nodes, 800 jobs (the full configuration).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.cluster import Cluster
from repro.errors import ConfigurationError

#: Paper constants (§5.1).
PAPER_NODES = 25
PAPER_JOB_COUNT = 800
PAPER_CPU_PER_PROCESSOR = 3900.0
PAPER_PROCESSORS_PER_NODE = 4
PAPER_MEMORY_PER_NODE = 16 * 1024.0
PAPER_CONTROL_CYCLE = 600.0


@dataclass(frozen=True)
class Scale:
    """One experiment scale: node count, job count, derived stretching."""

    name: str
    nodes: int
    job_count: int
    #: Cap on not-started jobs considered for placement per cycle, to
    #: bound the controller's per-cycle cost under deep backlogs (all
    #: jobs still participate in prediction).
    queue_window: int = 48

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.job_count < 1:
            raise ConfigurationError("scale needs >= 1 node and >= 1 job")

    @property
    def interarrival_multiplier(self) -> float:
        """Stretch factor keeping per-node load equal to the paper's."""
        return PAPER_NODES / self.nodes

    def interarrival(self, paper_interarrival: float) -> float:
        """Translate one of the paper's inter-arrival times to this scale."""
        return paper_interarrival * self.interarrival_multiplier

    def cluster(self) -> Cluster:
        """The Experiment One cluster at this scale."""
        return Cluster.homogeneous(
            self.nodes,
            cpu_capacity=PAPER_PROCESSORS_PER_NODE * PAPER_CPU_PER_PROCESSOR,
            memory_capacity=PAPER_MEMORY_PER_NODE,
            cpu_per_processor=PAPER_CPU_PER_PROCESSOR,
        )


SCALES: Dict[str, Scale] = {
    "tiny": Scale("tiny", nodes=4, job_count=80),
    "small": Scale("small", nodes=6, job_count=160),
    "half": Scale("half", nodes=12, job_count=400),
    "paper": Scale("paper", nodes=PAPER_NODES, job_count=PAPER_JOB_COUNT),
}


def scale_from_env(default: str = "small") -> Scale:
    """Resolve the experiment scale from ``REPRO_BENCH_SCALE``."""
    name = os.environ.get("REPRO_BENCH_SCALE", default).strip().lower()
    if name not in SCALES:
        raise ConfigurationError(
            f"unknown REPRO_BENCH_SCALE {name!r}; pick one of {sorted(SCALES)}"
        )
    return SCALES[name]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a plain-text table (the benches print paper-style rows)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out: List[str] = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def percent(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.1f}%"
