"""Run every workload, each in a fresh interpreter, and print all its metrics.

    python3 benchmarks/run_all.py [--seed N] [--seconds S] [--traced] [--out FILE]

Runs ``run.py`` once per workload with tracing off and, with ``--traced``,
once more with tracing on. ``--out`` writes every run's report to FILE, which
is how a point of the bench trajectory (``trajectory/``) is recorded.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--traced", action="store_true", help="also make the traced runs")
    parser.add_argument("--out", help="write the reports of all runs to this JSON file")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    args = parser.parse_args()

    reports = []
    correct = True
    for trace in (0, 1) if args.traced else (0,):
        for workload in run.workloads.WORKLOADS:
            print(f"== {workload} (trace {trace})", flush=True)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            for line in lines[:-2]:
                print(line)
            reports.append(json.loads(lines[-2]))
            correct &= json.loads(lines[-1])["correct"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "label": args.label,
                    "machine": {
                        "python": platform.python_version(),
                        "platform": platform.platform(),
                        "cpus": os.cpu_count(),
                    },
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "runs": reports,
                },
                f,
                indent=1,
            )
            f.write("\n")
    print("all outputs correct" if correct else "SOME OUTPUTS WERE WRONG")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
