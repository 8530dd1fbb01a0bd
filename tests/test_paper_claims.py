"""The paper's claims as executable checks, named by section.

Each test runs the experiment code the benchmarks use, at ``small``
scale (6 nodes, 160 jobs), over several seeds, and pins only what
reproduces there; EXPERIMENTS.md records what does not.
"""

import pytest

from repro.experiments.common import SCALES
from repro.experiments.experiment2 import run_single

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
