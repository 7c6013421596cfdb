"""One set-up sample for run.py: from spawning this interpreter to its first op being ready.

    python3 benchmarks/setup_child.py WORKLOAD SEED SPAWNED_AT

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started this
interpreter; on Linux that clock (CLOCK_MONOTONIC) is shared by all
processes. The child samples its own speed from its first statement on, so
the sample is scaled by the speed of the core the set-up ran on, not by that
of the waiting parent. Prints the scaled and the wall seconds.
"""

import os
import shutil
import sys
import time

from speed import Speed


def main() -> int:
    workload, seed, spawned_at = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    with Speed() as speed:
        import run  # imports prodcolor

        workdir = os.path.join(run.OUT, f"work-{os.getpid()}")
        os.makedirs(workdir)
        try:
            run.load_reference()
            run.workloads.build(workload, seed, workdir)
            ready = time.perf_counter()
        finally:
            shutil.rmtree(workdir)
    print(speed.scaled(spawned_at, ready), ready - spawned_at)
    return 0


if __name__ == "__main__":
    sys.exit(main())
