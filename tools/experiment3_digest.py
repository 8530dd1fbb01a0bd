"""Print a digest of the paper-scale Experiment Three APC run for one
checkout.

Usage::

    python tools/experiment3_digest.py ROOT

Imports the program under ``ROOT/src`` and runs
``experiment3.run_configuration("APC", SCALES["paper"], seed=0)``: the
§5.3 transactional app sharing 25 nodes with 800 jobs, where each search
trial distributes load over the divisible transactional row and about 75
job links.  Prints, on standard output, a SHA-256 digest of the run's
transactional and batch utility series, its allocation series, its
deadline satisfaction and every job completion's
``(job_id, completion_time)``.  Nothing in it depends on timing, so two
checkouts that decide identically print identical text; CI compares the
base commit's output with the head's.  The run's process CPU seconds go
to standard error and gate nothing.

Exits with status 2, printing nothing, when ``ROOT/src`` holds no
program.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from pathlib import Path


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/experiment3_digest.py ROOT", file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"experiment3_digest: no program under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, as perfbench pins it before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    from repro.experiments import experiment3
    from repro.experiments.common import SCALES
    from repro.sim.simulator import MixedWorkloadSimulator

    # The completions are the simulator's metrics, which the
    # configuration's result does not carry.
    runs = []
    run = MixedWorkloadSimulator.run

    def recording_run(self, *args, **kwargs):
        metrics = run(self, *args, **kwargs)
        runs.append(metrics)
        return metrics

    MixedWorkloadSimulator.run = recording_run
    start = time.process_time()
    result = experiment3.run_configuration("APC", SCALES["paper"], seed=0)
    cpu_s = time.process_time() - start
    metrics, = runs

    digest = hashlib.sha256()
    for part in (
        result.txn_utility_series,
        result.batch_utility_series,
        result.allocation_series,
        result.deadline_satisfaction,
        [(c.job_id, c.completion_time) for c in metrics.completions],
    ):
        digest.update(repr(part).encode())
    print(
        f"paper-scale Experiment Three APC, seed 0: {len(metrics.completions)} "
        f"completions, sha256 {digest.hexdigest()}"
    )
    print(f"cpu_s {cpu_s:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
