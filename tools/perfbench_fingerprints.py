"""Print perfbench's simulated outcomes for one checkout, as JSON.

Usage::

    python tools/perfbench_fingerprints.py ROOT [SEED ...]

Imports ``ROOT/perfbench/workloads.py`` over ``ROOT/src``, as
``perfbench/run.py`` does, runs one timed window of each of the four
workloads at each seed (1, 2 and 3 when none is given), and prints one
JSON object: workload, then seed, then the window's fingerprint, its
outcome, its failed output checks and its observability stream counts.
Nothing in it depends on timing, so two checkouts that decide
identically print identical text; CI compares the base commit's output
with the head's at seeds 1-6.  A seed no test or CI run uses, such as 7,
checks that identity on held-out inputs.

Exits with status 2, printing nothing, when ``ROOT/src`` holds no program
or a seed is not a non-negative integer.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 2 or not all(arg.isdigit() for arg in argv[2:]):
        print(
            "usage: python tools/perfbench_fingerprints.py ROOT [SEED ...]",
            file=sys.stderr,
        )
        return 2
    root = Path(argv[1]).resolve()
    seeds = [int(arg) for arg in argv[2:]] or [1, 2, 3]
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench_fingerprints: no program under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, as perfbench pins it before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(src), str(root)]
    from perfbench import workloads

    out = {}
    for name in ("paper-steady", "overload", "share", "faulty-observed"):
        workload = workloads.WORKLOADS[name]
        out[name] = {}
        for seed in seeds:
            prep = workload.prepare(seed, workload.inputs(seed), False)
            result = workloads.run_window(prep)
            workloads.close_stream(prep, result)
            out[name][str(seed)] = {
                "fingerprint": result.fingerprint,
                "outcome": result.outcome,
                "problems": result.problems + workload.check(result),
                "sink_records": result.sink_records,
                "audit_records": result.audit_records,
                "tracer_events": result.tracer_events,
            }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
