"""prodcolor benchmark: run one workload, check every output, print its metrics.

    python3 benchmarks/run.py --workload {suite,search,expo,pipe} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead. Each output is compared with ``reference.json``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the details (pass and op times, the slowest op, fail ratio, raw wall
times). Times are scaled to the host's unloaded speed (``speed.py``).
NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import prodcolor  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

if not os.path.abspath(prodcolor.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"prodcolor was imported from {prodcolor.__file__}, not from {SRC}")

SETUP_RUNS = 9
CLI_PROBE_RUNS = 3
MIN_PASSES = 3  # untraced passes, so that every op's median has three samples
MB = 1024.0  # ru_maxrss is in KiB on Linux


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        return json.load(f)


def _normal(summary):
    return json.loads(json.dumps(summary))


class Measurement:
    """Pass times, op latencies and failures of one run.

    Times are kept as wall-clock blocks until ``scale`` turns them into times
    at the host's unloaded speed.
    """

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference[workload]
        self.passes: list[tuple[float, float]] = []  # untraced (start, end)
        self.traced: list[tuple[float, float, int, int]] = []  # (start, end, first span, end span)
        self.samples: list[tuple[str, float, float]] = []  # (op, start, wall latency)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # filled in by scale()
        self.untraced: list[float] = []
        self.traced_s: list[float] = []
        self.traced_factors: list[float] = []
        self.op_latencies: dict[str, list[float]] = {}

    def record(self, results: list[workloads.OpResult], untraced: bool) -> None:
        """Check each result against the reference; keep latencies of untraced passes."""
        seen = set()
        for r in results:
            seen.add(r.name)
            self.attempted += 1
            expected = self.reference.get(r.name)
            ok = r.error is None and r.witness_ok and _normal(r.summary) == expected
            if not ok:
                self.failed += 1
                self._note(f"{r.name}: {r.error or f'got {r.summary!r}, want {expected!r}'}")
            if r.latency is not None and untraced:
                self.samples.append((r.name, r.start, r.latency))
        for name in sorted(set(self.reference) - seen):
            self.attempted += 1
            self.failed += 1
            self._note(f"{name}: not run")

    def _note(self, message: str) -> None:
        if len(self.failures) < 10:
            self.failures.append(message)

    def scale(self, speed: Speed) -> None:
        """Pass and op times at the unloaded speed."""
        self.untraced = [speed.scaled(t0, t1) for t0, t1 in self.passes]
        self.traced_s = [speed.scaled(t0, t1) for t0, t1, _, _ in self.traced]
        self.traced_factors = [s / (t1 - t0) for s, (t0, t1, _, _) in zip(self.traced_s, self.traced)]
        for name, start, wall in self.samples:
            latency = speed.scaled(start, start + wall)
            self.op_latencies.setdefault(name, []).append(latency)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict,
    workdir: str,
    min_passes: int = MIN_PASSES,
) -> tuple[Measurement, tracing.Tracer | None]:
    """Closed loop: passes over the op list until ``seconds`` have elapsed.

    Untraced runs make at least ``min_passes`` passes. Traced runs alternate
    an untraced and a traced pass and make at least two of each, so that a
    slow first pass does not decide the tracing overhead.
    """
    runner = workloads.build(workload, seed, workdir)
    m = Measurement(workload, reference)
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        if trace and len(m.traced) < len(m.passes):
            lo = len(tracer.names)
            restore = tracing.install(tracer)
            try:
                t0 = time.perf_counter()
                results = runner.run_pass(tracer)
                t1 = time.perf_counter()
            finally:
                tracing.uninstall(restore)
            m.traced.append((t0, t1, lo, len(tracer.names)))
            m.record(results, untraced=False)
        else:
            t0 = time.perf_counter()
            results = runner.run_pass(None)
            m.passes.append((t0, time.perf_counter()))
            m.record(results, untraced=True)
        done = time.perf_counter() - start >= seconds
        if trace:
            if done and len(m.traced) >= 2 and len(m.traced) == len(m.passes):
                break
        elif done and len(m.passes) >= min_passes:
            break
    return m, tracer


# ---------------------------------------------------------------------------
# set-up time and CLI probes, each in a fresh interpreter


def setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(scaled, wall) seconds from spawning a fresh interpreter to its first op being ready."""
    samples = []
    for _ in range(SETUP_RUNS):
        spawned_at = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed),
             repr(spawned_at)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        scaled, wall = proc.stdout.split()
        samples.append((float(scaled), float(wall)))
    return samples


def cli_probe_blocks() -> dict[str, list[tuple[float, float, float]]]:
    """A bare interpreter, and the imports each timed inside a fresh interpreter.

    Each sample is (start, end, seconds): the child's own timing of the
    import, or the wall time of the bare interpreter.
    """
    timed = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    probes = {}
    for name, code, own in (
        ("cli.interp_s", "pass", False),
        ("cli.import_s", timed.format("prodcolor"), True),
        ("cli.numpy_import_s", timed.format("numpy"), True),
    ):
        probes[name] = []
        for _ in range(CLI_PROBE_RUNS):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=workloads.cli_env(), cwd=ROOT, timeout=60, check=True,
            )
            t1 = time.perf_counter()
            probes[name].append((t0, t1, float(proc.stdout) if own else t1 - t0))
    return probes


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    """The median; 0 when a run has no samples (its run_suite call raised)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail_percentile(latencies: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it, and its value."""
    if len(latencies) < 11:
        return None
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for p in range(99, 0, -1):
        if sum(1 for x in latencies if x > cuts[p - 1]) >= 10:
            return p, cuts[p - 1]
    return None


def end_to_end(
    m: Measurement, setup: list[float], setup_wall: list[float], peak_rss_mb: float
) -> tuple[dict, dict]:
    """The metrics at the unloaded speed; the report also gets the raw wall times."""
    op_median = {name: statistics.median(v) for name, v in m.op_latencies.items()}
    slowest = max(op_median, key=op_median.get, default=None)
    wall_latencies: dict[str, list[float]] = {}
    for name, _, wall in m.samples:
        wall_latencies.setdefault(name, []).append(wall)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(m.untraced), "s"),
        "op_p50_s": (_median(op_median.values()), "s"),
        "op_tail_s": (_median(m.op_latencies.get(slowest, [])), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    latencies = [x for v in m.op_latencies.values() for x in v]
    detail = {
        "op_tail_op": slowest,
        "op_tail_samples": len(m.op_latencies.get(slowest, [])),
        "op_samples": len(latencies),
        # not a bounded metric: it jumps between ops as the sample count changes
        "op_tail_percentile": tail_percentile(latencies),
        "passes": len(m.untraced),
        "wall_s": {
            "setup_s": statistics.median(setup_wall),
            "pass_s": statistics.median(t1 - t0 for t0, t1 in m.passes),
            "op_p50_s": _median(statistics.median(v) for v in wall_latencies.values()),
            "op_tail_s": _median(wall_latencies.get(slowest, [])),
        },
        "pass_times_s": m.untraced,
        "pass_wall_times_s": [t1 - t0 for t0, t1 in m.passes],
        "setup_times_s": setup,
        "op_latencies_s": m.op_latencies,
    }
    return metrics, detail


def per_layer(
    m: Measurement, tracer: tracing.Tracer, claim_ids: list[str], cli: dict[str, float]
) -> tuple[dict, dict]:
    """Every per-layer metric, as a mean per traced pass (NOTES.md lists them)."""
    n = len(m.traced)
    busy: dict[str, float] = {}
    calls: dict[str, float] = {}
    for (_, _, lo, hi), factor in zip(m.traced, m.traced_factors):
        b, c = tracing.self_times(tracer, lo, hi)
        for k, v in b.items():
            busy[k] = busy.get(k, 0.0) + v * factor / n
        for k, v in c.items():
            calls[k] = calls.get(k, 0.0) + v / n
    count = {k: v / n for k, v in tracer.counts.items()}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_calls(layer: str) -> float:
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    mt: dict[str, tuple[float, str]] = {"harness.busy_s": (busy.get("harness", 0.0), "s")}
    for cid in claim_ids:
        elapsed = m.op_latencies.get(cid) if m.workload == "suite" else None
        mt[f"harness.{cid}.s"] = (statistics.fmean(elapsed) if elapsed else 0.0, "s")
    mt["simplex.busy_s"] = (busy.get("simplex", 0.0), "s")
    mt["simplex.calls"] = (layer_calls("simplex"), "count")
    for k in ("pivots", "columns", "rows"):
        mt[f"simplex.{k}"] = (count.get(f"simplex.{k}", 0.0), "count")
    mt["fractional.busy_s"] = (busy.get("fractional", 0.0), "s")
    mt["fractional.calls"] = (layer_calls("fractional"), "count")
    mt["fractional.support_ratio"] = (
        ratio(count.get("fractional.witness_sets", 0.0), count.get("fractional.enumerated_sets", 0.0)),
        "ratio",
    )
    for fn in ("k_colorable", "chromatic_number", "independence_number",
               "find_homomorphism", "maximal_independent_sets"):
        mt[f"solvers.{fn}.busy_s"] = (busy.get(f"solvers.{fn}", 0.0), "s")
        mt[f"solvers.{fn}.calls"] = (calls.get(f"solvers.{fn}", 0.0), "count")
    mt["solvers.k_colorable.sat_ratio"] = (
        ratio(count.get("solvers.k_colorable.sat", 0.0), calls.get("solvers.k_colorable", 0.0)),
        "ratio",
    )
    mt["solvers.find_homomorphism.found_ratio"] = (
        ratio(count.get("solvers.find_homomorphism.found", 0.0),
              calls.get("solvers.find_homomorphism", 0.0)),
        "ratio",
    )
    mt["solvers.maximal_independent_sets.sets"] = (
        count.get("solvers.maximal_independent_sets.sets", 0.0), "count"
    )
    mt["solvers.busy_s"] = (busy.get("solvers", 0.0), "s")
    mt["exponential.materialize_exponential.busy_s"] = (
        busy.get("exponential.materialize_exponential", 0.0), "s"
    )
    mt["exponential.materialize_exponential.calls"] = (
        calls.get("exponential.materialize_exponential", 0.0), "count"
    )
    mt["exponential.maps"] = (count.get("exponential.maps", 0.0), "count")
    mt["exponential.edges"] = (count.get("exponential.edges", 0.0), "count")
    mt["exponential.bytes_computed"] = (count.get("exponential.bytes_computed", 0.0), "B")
    mt["exponential.verify_mu_clique.busy_s"] = (
        busy.get("exponential.verify_mu_clique", 0.0), "s"
    )
    mt["exponential.mu_pairs"] = (count.get("exponential.mu_pairs", 0.0), "count")
    mt["exponential.busy_s"] = (busy.get("exponential", 0.0), "s")
    mt["arcshift.arc_shift.busy_s"] = (busy.get("arcshift.arc_shift", 0.0), "s")
    mt["arcshift.arc_shift.calls"] = (calls.get("arcshift.arc_shift", 0.0), "count")
    mt["arcshift.shift_vertices"] = (count.get("arcshift.shift_vertices", 0.0), "count")
    mt["arcshift.busy_s"] = (busy.get("arcshift", 0.0), "s")
    mt["graphs.busy_s"] = (busy.get("graphs", 0.0), "s")
    mt["graphs.calls"] = (layer_calls("graphs"), "count")
    mt["graphs.edges_built"] = (count.get("graphs.edges_built", 0.0), "count")
    mt["serialize.busy_s"] = (busy.get("serialize", 0.0), "s")
    mt["serialize.bytes_in"] = (count.get("serialize.bytes_in", 0.0), "B")
    mt["serialize.bytes_out"] = (count.get("serialize.bytes_out", 0.0), "B")
    for k, v in cli.items():
        mt[k] = (v, "s")
    mt["cli.main.busy_s"] = (busy.get("cli.main", 0.0), "s")

    traced_pass = statistics.fmean(m.traced_s)
    attributed = sum(v for k, (v, _) in mt.items() if k.endswith("busy_s"))
    mt["trace.pass_s"] = (traced_pass, "s")
    mt["trace.unattributed_s"] = (traced_pass - attributed, "s")
    mt["trace.overhead_ratio"] = (traced_pass / statistics.fmean(m.untraced), "ratio")
    detail = {
        "traced_passes": n,
        "untraced_passes": len(m.untraced),
        "busy_s_sum": attributed,
    }
    return mt, detail


def write_spans(tracer: tracing.Tracer, workload: str, seed: int) -> str:
    """Write the run's spans out once it has ended."""
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    payload = tracer.payload()
    payload["ops"] = tracer.ops
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, separators=(",", ":"))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and every process it starts: the speed probes
    # then sample the CPU that the pipe stages and the set-up children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    reference = load_reference()
    with Speed() as speed:
        try:
            m, tracer = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), reference, workdir
            )
        finally:
            shutil.rmtree(workdir)
        # the pipe stages are the only children so far; set-up children come later
        who = resource.RUSAGE_CHILDREN if args.workload == "pipe" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / MB
        if args.trace:
            probes = cli_probe_blocks()
    m.scale(speed)
    if args.trace:
        claim_ids = sorted(k for k, v in reference["suite"].items() if v["passed"] is not None)
        cli = {
            name: statistics.median(t * speed.scaled(t0, t1) / (t1 - t0) for t0, t1, t in samples)
            for name, samples in probes.items()
        }
        metrics, detail = per_layer(m, tracer, claim_ids, cli)
    else:
        setup = setup_samples(args.workload, args.seed)
        metrics, detail = end_to_end(
            m, [scaled for scaled, _ in setup], [wall for _, wall in setup], peak_rss_mb
        )
    detail["mean_slowdown"] = speed.mean_slowdown()

    correct = m.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": m.attempted,
        "failed": m.failed,
        "fail_ratio": m.failed / m.attempted,
        "failures": m.failures,
    }
    if args.trace:
        if metrics["trace.unattributed_s"][0] < -1e-6:
            correct = False
            m.failures.append("layer self times exceed the traced pass time")
        detail["spans_file"] = os.path.relpath(write_spans(tracer, args.workload, args.seed), ROOT)
    report.update(detail)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':<46} {report['fail_ratio']:>14.6g} ratio ({m.failed}/{m.attempted})")
    if not args.trace:
        print(f"op_tail_s is the median of {detail['op_tail_samples']} samples of "
              f"{detail['op_tail_op']}, the op with the largest median")
        if detail["op_tail_percentile"]:
            p, value = detail["op_tail_percentile"]
            print(f"op latency p{p} (ten or more of {detail['op_samples']} samples beyond it) "
                  f"{value:.6g} s")
        for name, wall in detail["wall_s"].items():
            print(f"{name + ' (raw wall time)':<46} {wall:>14.6g} s")
    for line in m.failures:
        print(f"FAILED {line}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
