"""The paper's claims as executable checks, named by section.

Each test runs the experiment code the benchmarks use, at ``tiny``
(4 nodes, 80 jobs) or ``small`` scale (6 nodes, 160 jobs), over several
seeds, and pins only what reproduces there; EXPERIMENTS.md records what
does not.
"""

import math

import pytest

from repro.experiments.common import SCALES
from repro.experiments.experiment2 import run_single
from repro.experiments.experiment3 import (
    PAPER_TXN_MAX_UTILITY,
    run_experiment_three,
)

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("interarrival", [150.0, 100.0])
def test_section_5_2_figure_4_apc_changes_placement_far_less_than_edf(
    interarrival, seed
):
    """§5.2, Figure 4: once jobs arrive every 150 s or faster, EDF
    reconfigures "considerably more" than the APC, and FCFS, which never
    preempts, not at all.  At ``small`` scale EDF makes at least twice
    the APC's placement changes (63 vs 0 to 167 vs 69 over these
    seeds).  At 50 s the ordering does not hold on every seed, so it is
    not pinned (see EXPERIMENTS.md)."""
    scale = SCALES["small"]
    changes = {
        policy: run_single(policy, interarrival, scale, seed=seed).placement_changes
        for policy in ("APC", "EDF", "FCFS")
    }
    assert changes["EDF"] >= 2 * changes["APC"], changes
    assert changes["EDF"] > 0, changes
    assert changes["FCFS"] == 0, changes


@pytest.mark.parametrize("seed", SEEDS)
def test_section_5_3_figure_6_dynamic_sharing_equalizes_the_workloads(seed):
    """§5.3, Figure 6: sharing the cluster dynamically, the APC runs the
    transactional app at its 0.66 plateau when uncontended and pulls it
    below under batch pressure; the TX-satisfied static partition pins
    it there while its jobs miss far more deadlines; the TX-tight one
    holds it lower throughout; and the APC keeps the two workloads'
    relative performance closest.  At ``tiny`` scale the mean |TX−LR|
    gaps are 0.20–0.27 for the APC, 0.36–0.53 for TX6 and 2.19–2.53 for
    TX9 over these seeds, and the APC meets 96–100% of deadlines against
    TX9's 23–30%.  The same checks as
    ``benchmarks/bench_fig6_heterogeneous.py``."""
    result = run_experiment_three(scale=SCALES["tiny"], seed=seed)
    apc = result.configurations["APC"]
    tx9 = result.configurations["TX9"]
    tx6 = result.configurations["TX6"]
    assert apc.max_txn_utility() == pytest.approx(PAPER_TXN_MAX_UTILITY, abs=0.02)
    assert apc.min_txn_utility() < PAPER_TXN_MAX_UTILITY - 0.05
    assert tx9.min_txn_utility() == pytest.approx(PAPER_TXN_MAX_UTILITY, abs=0.02)
    assert tx9.deadline_satisfaction < apc.deadline_satisfaction - 0.1
    assert tx6.max_txn_utility() < PAPER_TXN_MAX_UTILITY - 0.1
    gaps = {k: c.mean_abs_utility_gap() for k, c in result.configurations.items()}
    assert not any(math.isnan(g) for g in gaps.values()), gaps
    assert gaps["APC"] == min(gaps.values()), gaps
