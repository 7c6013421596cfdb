"""Write reference.json: the exact output summary of every op, from one pass.

    python3 benchmarks/record_reference.py

The summaries do not change under the seeded relabelling, so the file holds
for every seed. Re-record it only when a workload gains or changes an op,
and check each changed value by hand: the benchmark trusts this file.
"""

import json
import os
import shutil
import sys

import run
import workloads

SEED = 0  # any seed gives the same summaries


def main() -> int:
    reference = {}
    workdir = os.path.join(run.OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for workload in workloads.WORKLOADS:
            results = workloads.build(workload, SEED, workdir).run_pass(None)
            bad = [r.name for r in results if r.error or not r.witness_ok]
            if bad:
                print(f"{workload}: ops failed: {bad}", file=sys.stderr)
                return 1
            reference[workload] = {r.name: run._normal(r.summary) for r in results}
    finally:
        shutil.rmtree(workdir)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
