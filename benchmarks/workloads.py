"""The four benchmark workloads: their inputs, their ops and the checks on each op.

Every workload is a closed loop with one client: one process, no threads
(``jobs=1`` everywhere), and the next op starts only when the previous one has
finished. An op returns a summary that is compared with the exact value in
``reference.json`` and a flag saying whether its witness checked out.

Inputs come from the seed. Where an op's cost barely depends on vertex
labels, the seed relabels its graph at random; the values compared do not
change under relabelling, so one reference serves every seed. The
backtracking searches and the simplex are labelling-sensitive (see NOTES.md),
so those instances keep their canonical labels.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import prodcolor as pc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SHIM = os.path.join(HERE, "cli_shim.py")

WORKLOADS = ("suite", "search", "expo", "pipe")

# a pipe stage that runs longer than this counts as failed
STAGE_TIMEOUT_S = 60


@dataclass
class Op:
    name: str
    call: Callable[[Any], Any]  # takes the tracer (None when untraced)
    summarize: Callable[[Any], tuple[Any, bool]]  # -> (summary, witness ok)


@dataclass
class OpResult:
    name: str
    start: float  # perf_counter() when the op started
    latency: float | None  # None: not a latency sample (out-of-scope claim)
    summary: Any
    witness_ok: bool
    error: str | None = None


def relabel(g: pc.Graph, rng: random.Random) -> pc.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return pc.Graph.from_edges(
        g.n, [(perm[u], perm[v]) for u, v in g.edges], [perm[v] for v in g.loops]
    )


# ---------------------------------------------------------------------------
# suite: the paper's claims, through the harness


class Suite:
    """``run_suite("all")`` repeated; an op is one claim report."""

    def __init__(self, seed: int):
        self.config = pc.SuiteConfig(seed=seed)

    def run_pass(self, tracer) -> list[OpResult]:
        # one public call per pass, so its spans share the pass's op id
        if tracer is not None:
            tracer.op += 1
        start = perf_counter()
        try:
            reports = pc.run_suite("all", self.config, jobs=1)
        except Exception as exc:  # every claim of the pass then counts as not run
            return [OpResult("run_suite", start, None, None, False, repr(exc))]
        results = []
        # with jobs=1 the claims run one after another in claim-id order, the
        # order of the reports, so each claim starts where the previous ended
        for r in reports:
            latency = None if r.passed is None else r.elapsed
            summary = {"passed": r.passed, "status": r.status}
            results.append(OpResult(r.claim_id, start, latency, summary, True))
            start += r.elapsed
        return results


# ---------------------------------------------------------------------------
# workloads made of a list of independent ops


class OpList:
    def __init__(self, ops: list[Op]):
        self.ops = ops

    def run_pass(self, tracer) -> list[OpResult]:
        results = []
        for op in self.ops:
            if tracer is not None:
                tracer.op += 1
            start = perf_counter()
            try:
                raw = op.call(tracer)
                latency = perf_counter() - start
                summary, witness_ok = op.summarize(raw)
            except Exception as exc:  # a failed op is counted, the run goes on
                results.append(
                    OpResult(op.name, start, perf_counter() - start, None, False, repr(exc))
                )
                continue
            results.append(OpResult(op.name, start, latency, summary, witness_ok))
        return results


def _chi(name: str, g: pc.Graph) -> Op:
    return Op(name, lambda _t: pc.chromatic_number(g), lambda chi: ({"chi": chi}, True))


def _alpha(name: str, g: pc.Graph) -> Op:
    return Op(
        name, lambda _t: pc.independence_number(g), lambda alpha: ({"alpha": alpha}, True)
    )


def _hom(name: str, g: pc.Graph, h: pc.Graph) -> Op:
    def summarize(hom):
        ok = hom is None or pc.is_homomorphism(g, h, hom)
        return {"found": hom is not None}, ok

    return Op(name, lambda _t: pc.find_homomorphism(g, h), summarize)


def _mis(name: str, g: pc.Graph) -> Op:
    def summarize(sets):
        sizes = Counter(len(s) for s in sets)
        return {"sets": len(sets), "sizes": {str(k): sizes[k] for k in sorted(sizes)}}, True

    return Op(name, lambda _t: pc.maximal_independent_sets(g), summarize)


def _chif(name: str, g: pc.Graph, max_vertices: int) -> Op:
    def summarize(result):
        value, witness = result
        ok = witness.covers(g) and witness.value == value
        return {"chi_f": str(value)}, ok

    return Op(name, lambda _t: pc.fractional_chromatic(g, max_vertices), summarize)


def search_ops(seed: int) -> list[Op]:
    """Hard exact instances for the searches, plus one large covering LP."""
    rng = random.Random(f"search:{seed}")
    petersen, grotzsch, c5 = pc.named("petersen"), pc.named("grotzsch"), pc.cycle(5)
    c5_petersen = pc.tensor_product(c5, petersen)
    k3_k7 = pc.materialize_exponential(pc.ExpContext(pc.complete_graph(7), 3))
    return [
        _chi("chi-kneser-9-3", relabel(pc.kneser(9, 3), rng)),
        _chi("chi-exp-3-k7", k3_k7),
        _chi("chi-grotzsch2", relabel(pc.tensor_product(grotzsch, grotzsch), rng)),
        _alpha("alpha-petersen2", relabel(pc.tensor_product(petersen, petersen), rng)),
        _alpha("alpha-petersen-grotzsch", pc.tensor_product(petersen, grotzsch)),
        _alpha("alpha-kneser-9-3", relabel(pc.kneser(9, 3), rng)),
        _hom("hom-c5petersen-c5", c5_petersen, c5),
        _hom("hom-kneser-6-2-c5", pc.kneser(6, 2), c5),
        _mis("mis-c5petersen", relabel(c5_petersen, rng)),
        _mis("mis-kneser-8-3", relabel(pc.kneser(8, 3), rng)),
        # 35 vertices, above the default LP cap of 30
        _chif("chif-kneser-7-3", pc.kneser(7, 3), max_vertices=35),
    ]


def expo_ops(seed: int) -> list[Op]:
    """Exponential graphs K_c^G, the mu-clique check and the universal property."""
    rng = random.Random(f"expo:{seed}")
    ops = []
    bases = [
        ("k4", 3, pc.complete_graph(4)),
        ("k5", 3, pc.complete_graph(5)),
        ("w5", 3, relabel(pc.named("w5"), rng)),
        ("k7", 3, pc.complete_graph(7)),
        ("c8", 3, relabel(pc.cycle(8), rng)),
        ("w5", 4, relabel(pc.named("w5"), rng)),
    ]
    for label, c, base in bases:

        def build(_t, base=base, c=c):
            expo = pc.materialize_exponential(pc.ExpContext(base, c))
            # chi is defined on the loopless results only
            return expo, None if expo.loops else pc.chromatic_number(expo)

        def summarize(result):
            expo, chi = result
            return {
                "maps": expo.n,
                "edges": len(expo.edges),
                "loops": len(expo.loops),
                "chi": chi,
            }, True

        ops.append(Op(f"exp-{c}-{label}", build, summarize))
    heawood = relabel(pc.named("heawood"), rng)
    for q in range(1, 9):
        ops.append(
            Op(
                f"mu-clique-heawood-q{q}",
                lambda _t, q=q: pc.verify_mu_clique(heawood, 0, q, jobs=1),
                lambda r: ({"passed": r.passed, "pairs": r.pairs_checked}, True),
            )
        )
    for label, g, h, c in (
        ("k2-k3", pc.complete_graph(2), pc.complete_graph(3), 2),
        ("c5-c5", relabel(pc.cycle(5), rng), relabel(pc.cycle(5), rng), 3),
    ):
        ops.append(
            Op(
                f"univ-{label}",
                lambda _t, g=g, h=h, c=c: pc.universal_property_check(g, h, c),
                lambda holds: ({"holds": holds}, True),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# pipe: cold `python -m prodcolor` stages fed text made from the seed


def graph_text(g: pc.Graph) -> str:
    """The CLI's edge-list format: header ``n m [loops: ...]``, then ``u v`` lines."""
    head = f"{g.n} {len(g.edges)}"
    if g.loops:
        head += " loops: " + " ".join(str(v) for v in sorted(g.loops))
    return "\n".join([head] + [f"{u} {v}" for u, v in sorted(g.edges)]) + "\n"


def digraph_text(n: int, arcs: list[tuple[int, int]]) -> str:
    return "\n".join([f"{n} {len(arcs)}"] + [f"{x} -> {y}" for x, y in sorted(arcs)]) + "\n"


def _header(stdout: str) -> dict:
    """Vertex, edge and loop counts from edge-list text, checked against its body."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    parts = lines[0].split()
    loops = len(parts) - 3 if len(parts) > 2 else 0
    if int(parts[1]) != len(lines) - 1:
        raise ValueError("edge count in the header does not match the body")
    return {"n": int(parts[0]), "edges": int(parts[1]), "loops": loops}


# a fixed digraph on 6 vertices: a directed 6-cycle with chords and two 2-cycles
_DIGRAPH_ARCS = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (3, 0), (1, 4), (2, 5), (5, 2)]


class Pipe(OpList):
    """One op is one cold CLI process; stage 7 reads stage 6's output."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"pipe:{seed}")
        self.workdir = workdir
        self.outputs: dict[str, str] = {}
        petersen = relabel(pc.named("petersen"), rng)
        w5 = relabel(pc.named("w5"), rng)
        perm = list(range(6))
        rng.shuffle(perm)
        digraph = digraph_text(6, [(perm[x], perm[y]) for x, y in _DIGRAPH_ARCS])
        k3 = pc.complete_graph(3)
        g_path = os.path.join(workdir, "petersen.txt")
        h_path = os.path.join(workdir, "k3.txt")
        with open(g_path, "w", encoding="utf-8") as f:
            f.write(graph_text(petersen))
        with open(h_path, "w", encoding="utf-8") as f:
            f.write(graph_text(k3))

        def text(stdout: str) -> tuple[dict, bool]:
            return {"stdout": stdout}, True

        def hom_check(stdout: str) -> tuple[dict, bool]:
            mapping = tuple(int(w) for w in stdout.split())
            return {"found": True}, pc.is_homomorphism(petersen, k3, pc.HomMap(mapping))

        p_text = graph_text(petersen)
        stages = [
            ("gen-petersen", ["gen", "named", "petersen"], None, text),
            ("chi-petersen", ["invariant", "chi"], p_text, text),
            ("alpha-petersen", ["invariant", "alpha"], p_text, text),
            ("chif-petersen", ["invariant", "chif"], p_text, text),
            ("girth-petersen", ["invariant", "girth"], p_text, text),
            ("exp-3-w5", ["exp", "materialize", "-c", "3"], graph_text(w5),
             lambda out: (_header(out), True)),
            ("chi-exp-3-w5", ["invariant", "chi"], "exp-3-w5", text),
            ("shift-build", ["shift", "build"], digraph, lambda out: (_header(out), True)),
            ("hom-petersen-k3", ["hom", g_path, h_path], None, hom_check),
        ]
        super().__init__([self._stage(*s) for s in stages])

    def _stage(self, name, args, stdin, check) -> Op:
        def call(tracer):
            feed = self.outputs.get(stdin, stdin)
            self.outputs[name] = ""
            proc = run_cli(args, feed, self.workdir, tracer)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            self.outputs[name] = proc.stdout
            return proc.stdout

        return Op(name, call, check)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], stdin: str | None, workdir: str, tracer) -> subprocess.CompletedProcess:
    """One cold CLI process; traced runs go through the shim and merge its spans."""
    if tracer is None:
        argv = [sys.executable, "-m", "prodcolor", *args]
    else:
        spans_path = os.path.join(workdir, "spans.json")
        argv = [sys.executable, SHIM, spans_path, *args]
    proc = subprocess.run(
        argv,
        input=stdin or "",
        capture_output=True,
        text=True,
        cwd=workdir,
        env=cli_env(),
        timeout=STAGE_TIMEOUT_S,
    )
    if tracer is not None:
        tracer.merge_file(spans_path)
    return proc


def build(workload: str, seed: int, workdir: str):
    """The workload's runner, with every input made from the seed; files go to workdir."""
    if workload == "suite":
        return Suite(seed)
    if workload == "search":
        return OpList(search_ops(seed))
    if workload == "expo":
        return OpList(expo_ops(seed))
    if workload == "pipe":
        return Pipe(seed, workdir)
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
