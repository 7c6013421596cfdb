"""Spans around prodcolor's public functions, recorded from outside the package.

``install`` wraps every public function of each layer module and rebinds
every name that refers to it in any ``prodcolor`` module, so calls made
through ``from .solvers import ...`` bindings are traced too. Each call
records one span: name, start, end, parent span and op id. Spans stay in
memory until the run ends. A span's self time is its duration minus the
time its child spans cover, so the self times of one pass add up to the
time spent inside prodcolor.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "harness", "simplex", "fractional", "solvers", "exponential",
    "arcshift", "graphs", "serialize", "cli",
)

# helpers that compute one index or one map; their time counts to the caller
UNWRAPPED = {"graphs.pair_index", "exponential.index_to_map", "exponential.secondary_block"}

# functions whose self time is reported on its own; the rest of a layer's
# self time is reported as <layer>.busy_s
BROKEN_OUT = (
    "solvers.k_colorable",
    "solvers.chromatic_number",
    "solvers.independence_number",
    "solvers.find_homomorphism",
    "solvers.maximal_independent_sets",
    "exponential.materialize_exponential",
    "exponential.verify_mu_clique",
    "arcshift.arc_shift",
    "cli.main",
)


class Tracer:
    """Spans in parallel lists, plus work counters filled in when a span closes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def payload(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counts": dict(self.counts),
        }

    def merge_file(self, path: str) -> None:
        """Append the spans another process wrote, under the current op id."""
        with open(path, encoding="utf-8") as f:
            other = json.load(f)
        base = len(self.names)
        self.names += other["names"]
        self.starts += other["starts"]
        self.ends += other["ends"]
        self.parents += [p + base if p >= 0 else -1 for p in other["parents"]]
        self.ops += [self.op] * len(other["names"])
        self.counts.update(other["counts"])


# ---------------------------------------------------------------------------
# work counters, taken from arguments and results at the layer boundary


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _simplex(tracer, args, kwargs, result) -> None:
    tracer.counts["simplex.pivots"] += result.iterations
    tracer.counts["simplex.columns"] += len(_arg(args, kwargs, 1, "columns"))
    tracer.counts["simplex.rows"] += _arg(args, kwargs, 0, "num_rows")


def _fractional(tracer, args, kwargs, result) -> None:
    tracer.counts["fractional.witness_sets"] += len(result[1].sets)


def _mis(tracer, args, kwargs, result) -> None:
    tracer.counts["solvers.maximal_independent_sets.sets"] += len(result)
    if tracer.parent_name() == "fractional.fractional_chromatic":
        tracer.counts["fractional.enumerated_sets"] += len(result)


def _k_colorable(tracer, args, kwargs, result) -> None:
    tracer.counts["solvers.k_colorable.sat"] += result is not None


def _find_hom(tracer, args, kwargs, result) -> None:
    tracer.counts["solvers.find_homomorphism.found"] += result is not None


def _materialize(tracer, args, kwargs, result) -> None:
    ctx = _arg(args, kwargs, 0, "ctx")
    tracer.counts["exponential.maps"] += result.n
    tracer.counts["exponential.edges"] += len(result.edges)
    # one n_maps x n_maps boolean array per directed check
    tracer.counts["exponential.bytes_computed"] += result.n**2 * len(ctx.directed_checks)


def _mu_clique(tracer, args, kwargs, result) -> None:
    tracer.counts["exponential.mu_pairs"] += result.pairs_checked


def _arc_shift(tracer, args, kwargs, result) -> None:
    tracer.counts["arcshift.shift_vertices"] += result[0].n


def _graph_built(tracer, args, kwargs, result) -> None:
    if hasattr(result, "arcs"):
        tracer.counts["graphs.edges_built"] += len(result.arcs)
    elif hasattr(result, "edges"):
        tracer.counts["graphs.edges_built"] += len(result.edges) + len(result.loops)


def _parsed(tracer, args, kwargs, result) -> None:
    tracer.counts["serialize.bytes_in"] += len(_arg(args, kwargs, 0, "text").encode())


def _serialized(tracer, args, kwargs, result) -> None:
    tracer.counts["serialize.bytes_out"] += len(result.encode())


HOOKS = {
    "simplex.solve_covering_lp": _simplex,
    "fractional.fractional_chromatic": _fractional,
    "solvers.maximal_independent_sets": _mis,
    "solvers.k_colorable": _k_colorable,
    "solvers.find_homomorphism": _find_hom,
    "exponential.materialize_exponential": _materialize,
    "exponential.verify_mu_clique": _mu_clique,
    "arcshift.arc_shift": _arc_shift,
    "serialize.parse_graph": _parsed,
    "serialize.parse_digraph": _parsed,
    "serialize.serialize_graph": _serialized,
    "serialize.serialize_digraph": _serialized,
    "serialize.graph_to_dot": _serialized,
    "serialize.digraph_to_dot": _serialized,
}


def _wrap(fn, name: str, tracer: Tracer):
    hook = HOOKS.get(name)
    if hook is None and name.startswith("graphs."):
        hook = _graph_built

    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the public functions of every layer; returns what ``uninstall`` restores."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"prodcolor.{layer}")
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNWRAPPED
            ):
                wrappers[fn] = _wrap(fn, name, tracer)
    restore = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "prodcolor" and not mod_name.startswith("prodcolor."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for module, attr, value in restore:
        setattr(module, attr, value)


# ---------------------------------------------------------------------------
# per-layer aggregation


def busy_key(name: str) -> str:
    """The busy_s metric a span's self time counts towards."""
    return name if name in BROKEN_OUT else name.split(".", 1)[0]


def self_times(tracer: Tracer, lo: int, hi: int) -> tuple[dict[str, float], Counter]:
    """Self time per busy_s key and call count per function, over spans [lo, hi)."""
    covered = defaultdict(float)
    for i in range(lo, hi):
        parent = tracer.parents[i]
        if parent >= 0:
            covered[parent] += tracer.ends[i] - tracer.starts[i]
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i in range(lo, hi):
        name = tracer.names[i]
        busy[busy_key(name)] += tracer.ends[i] - tracer.starts[i] - covered[i]
        calls[name] += 1
    return busy, calls
