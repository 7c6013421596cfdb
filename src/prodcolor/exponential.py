"""Exponential graphs: maps V(G) -> palette with the conflict-free adjacency.

Two maps f, g are adjacent iff for every edge xy of the base (and every loop
x, taken as the edge xx), f(x) != g(y) and g(x) != f(y). Evaluating the
predicate at f = g decides whether the map carries a loop, which happens
exactly when the map is a proper coloring of a loopless base.

Materialization enumerates all c^|V| maps: map index t assigns vertex v the
base-c digit (t // c**v) % c, least-significant digit first. Hard size caps
make the astronomically large instances fail loudly instead of running
forever.

The blow-up machinery hosts the two special map families used to analyze
K_c^{G[K_q]} with palette c = 4q+2: the radial maps mu_t (value i, q+i, or t
by distance from a center vertex) and the two-valued simple maps theta.
Palette bookkeeping is 0-based: the "first block" is {0..2q-1} and the
"secondary block" is {2q..4q+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import CapExceeded
from .graphs import Graph, blowup, distances
from .solvers import Coloring, is_proper_coloring

DEFAULT_MAX_EXP_VERTICES = 200_000
DEFAULT_MAX_EXP_PAIRS = 25_000_000


class NormalizationError(ValueError):
    """A precondition on the supplied coloring failed (not a claim failure)."""


@dataclass(frozen=True)
class ExpContext:
    """Base graph (loops permitted) and palette size for an exponential graph."""

    base: Graph
    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"palette size must be >= 1, got {self.c}")

    @cached_property
    def directed_checks(self) -> tuple[tuple[int, int], ...]:
        """Ordered vertex pairs (a, b) over which adjacency demands f(a) != g(b)."""
        checks = []
        for x, y in self.base.sorted_edges:
            checks.append((x, y))
            checks.append((y, x))
        for x in sorted(self.base.loops):
            checks.append((x, x))
        return tuple(checks)

    @property
    def num_maps(self) -> int:
        return self.c ** self.base.n


@dataclass(frozen=True)
class ExpMap:
    """A vertex of an exponential graph: a total map V(base) -> {0..c-1}."""

    ctx: ExpContext
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.ctx.base.n:
            raise ValueError(
                f"map covers {len(self.values)} vertices, base has {self.ctx.base.n}"
            )
        for v, val in enumerate(self.values):
            if not (0 <= val < self.ctx.c):
                raise ValueError(f"value {val} at vertex {v} outside palette {self.ctx.c}")

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.values)

    def index(self) -> int:
        """Position of this map in the materialized vertex order."""
        c = self.ctx.c
        t = 0
        for v in reversed(range(len(self.values))):
            t = t * c + self.values[v]
        return t


@dataclass(frozen=True)
class BlowupExpMap:
    """A map on blowup(base, q) with fiber indexing (x, i) -> x*q + i."""

    base: Graph
    q: int
    exp: ExpMap

    @property
    def ctx(self) -> ExpContext:
        return self.exp.ctx

    def value(self, x: int, i: int) -> int:
        return self.exp.values[x * self.q + i]

    @cached_property
    def simple(self) -> bool:
        """True iff the map is constant on every fiber clique."""
        vals = self.exp.values
        return all(
            vals[x * self.q] == vals[x * self.q + i]
            for x in range(self.base.n)
            for i in range(1, self.q)
        )


def _unwrap(m: ExpMap | BlowupExpMap) -> ExpMap:
    return m.exp if isinstance(m, BlowupExpMap) else m


def exp_adjacent(f: ExpMap | BlowupExpMap, g: ExpMap | BlowupExpMap) -> bool:
    """Adjacency of two maps in the same exponential graph (f = g decides the loop)."""
    fm, gm = _unwrap(f), _unwrap(g)
    if fm.ctx != gm.ctx:
        raise ValueError("maps belong to different exponential graphs")
    fv, gv = fm.values, gm.values
    return all(fv[a] != gv[b] and gv[a] != fv[b] for a, b in fm.ctx.directed_checks)


def index_to_map(ctx: ExpContext, t: int) -> ExpMap:
    """The map at position t of the materialized vertex order."""
    if not (0 <= t < ctx.num_maps):
        raise ValueError(f"map index {t} out of range [0, {ctx.num_maps})")
    c = ctx.c
    values = []
    for _ in range(ctx.base.n):
        values.append(t % c)
        t //= c
    return ExpMap(ctx, tuple(values))


def constant_map(ctx: ExpContext, i: int) -> ExpMap:
    """The all-i map."""
    if not (0 <= i < ctx.c):
        raise ValueError(f"color {i} outside palette of size {ctx.c}")
    return ExpMap(ctx, (i,) * ctx.base.n)


def materialize_exponential(
    ctx: ExpContext,
    max_vertices: int = DEFAULT_MAX_EXP_VERTICES,
    max_pairs: int = DEFAULT_MAX_EXP_PAIRS,
) -> Graph:
    """The exponential graph as a concrete Graph, within hard size caps.

    Vertex t is the map whose value at base vertex v is digit v of t in base
    c. Loops mark the maps adjacent to themselves (proper colorings of a
    loopless base).
    """
    n_maps = ctx.num_maps
    if n_maps > max_vertices:
        raise CapExceeded(
            f"{n_maps} maps exceed the max_vertices cap of {max_vertices}"
        )
    pairs = n_maps * (n_maps + 1) // 2
    if pairs > max_pairs:
        raise CapExceeded(
            f"{pairs} map pairs exceed the max_pairs cap of {max_pairs}"
        )
    nb = ctx.base.n
    c = ctx.c
    t = np.arange(n_maps)
    dtype = np.int16 if c <= 2**15 - 1 else np.int64
    digits = np.empty((n_maps, nb), dtype=dtype)
    for v in range(nb):
        digits[:, v] = (t // c**v) % c
    conflict = np.zeros((n_maps, n_maps), dtype=bool)
    for a, b in ctx.directed_checks:
        conflict |= np.equal.outer(digits[:, a], digits[:, b])
    adjacency = ~conflict
    loops = frozenset(int(v) for v in np.nonzero(adjacency.diagonal())[0])
    fs, gs = np.nonzero(np.triu(adjacency, 1))
    edges = frozenset(zip(fs.tolist(), gs.tolist()))
    return Graph(n_maps, edges, loops)


def universal_property_check(
    g: Graph,
    h: Graph,
    c: int,
    max_vertices: int = DEFAULT_MAX_EXP_VERTICES,
    max_pairs: int = DEFAULT_MAX_EXP_PAIRS,
) -> bool:
    """Verify the exponential graph's defining property on concrete instances.

    A proper c-coloring Psi of g x h is computed first (its existence is a
    precondition). The check then confirms that u -> f_u with
    f_u(v) = Psi(v, u) is a homomorphism from h into the materialized
    exponential graph, and that the evaluation coloring (x, f) -> f(x) is a
    proper coloring of the product of g with that graph.
    """
    from .graphs import tensor_product
    from .solvers import k_colorable

    product = tensor_product(g, h)
    coloring = k_colorable(product, c)
    if coloring is None:
        raise ValueError(f"product is not {c}-colorable; precondition fails")
    ctx = ExpContext(g, c)
    expo = materialize_exponential(ctx, max_vertices, max_pairs)

    # h -> K_c^g via u -> f_u
    maps = []
    for u in range(h.n):
        values = tuple(coloring.colors[x * h.n + u] for x in range(g.n))
        maps.append(ExpMap(ctx, values).index())
    for u, up in h.edges:
        if not expo.adjacent_or_loop(maps[u], maps[up]):
            return False
    for u in h.loops:
        if maps[u] not in expo.loops:
            return False

    # evaluation map is a proper coloring of g x K_c^g
    eval_product = tensor_product(g, expo)
    eval_colors = tuple(
        index_to_map(ctx, t).values[x] for x in range(g.n) for t in range(expo.n)
    )
    return is_proper_coloring(eval_product, Coloring(eval_colors, c))


# ---------------------------------------------------------------------------
# the mu/theta construction over blow-ups (palette c = 4q+2, 0-based blocks)


def secondary_block(q: int) -> range:
    """The secondary half of the palette {2q..4q+1} (0-based)."""
    return range(2 * q, 4 * q + 2)


def shitov_mu(g: Graph, v: int, q: int, t: int) -> BlowupExpMap:
    """The radial map mu_{v,t} on blowup(g, q) with palette 4q+2.

    Value at fiber vertex (x, i): i if dist(x, v) is 0 or 2; q+i if
    dist(x, v) = 1; t if dist(x, v) >= 3 (unreachable vertices included).
    """
    if g.loops:
        raise ValueError("mu is defined over loopless base graphs")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not (0 <= v < g.n):
        raise ValueError(f"center vertex {v} out of range")
    c = 4 * q + 2
    if t not in secondary_block(q):
        raise ValueError(
            f"t={t} outside the secondary block {2 * q}..{4 * q + 1} for q={q}"
        )
    dist = distances(g, v)
    values = []
    for x in range(g.n):
        for i in range(q):
            d = dist[x]
            if d == 0 or d == 2:
                values.append(i)
            elif d == 1:
                values.append(q + i)
            else:
                values.append(t)
    ctx = ExpContext(blowup(g, q), c)
    return BlowupExpMap(g, q, ExpMap(ctx, tuple(values)))


def shitov_theta(
    g: Graph, v: int, q: int, b: int | None = None, t: int | None = None
) -> BlowupExpMap:
    """The simple two-valued map theta: t inside the radius-1 ball of v, b outside.

    b and t must be distinct colors from the secondary block; the defaults
    are b = 2q+1 and t = 2q.
    """
    if g.loops:
        raise ValueError("theta is defined over loopless base graphs")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not (0 <= v < g.n):
        raise ValueError(f"center vertex {v} out of range")
    if t is None:
        t = 2 * q
    if b is None:
        b = 2 * q + 1 if t != 2 * q + 1 else 2 * q
    if b == t:
        raise ValueError(f"b and t must differ, both are {b}")
    for name, color in (("b", b), ("t", t)):
        if color not in secondary_block(q):
            raise ValueError(
                f"{name}={color} outside the secondary block {2 * q}..{4 * q + 1}"
            )
    dist = distances(g, v)
    values = []
    for x in range(g.n):
        val = t if dist[x] <= 1 else b
        values.extend([val] * q)
    ctx = ExpContext(blowup(g, q), 4 * q + 2)
    return BlowupExpMap(g, q, ExpMap(ctx, tuple(values)))


@dataclass(frozen=True)
class MuCliqueReport:
    """Outcome of the pairwise mu-map adjacency check."""

    passed: bool
    pairs_checked: int
    # (t, t', ((x, i), (y, j)), shared value) per violating pair
    violations: tuple[tuple[int, int, tuple[tuple[int, int], tuple[int, int]], int], ...]


def verify_mu_clique(g: Graph, v: int, q: int, *, jobs: int = 1) -> MuCliqueReport:
    """Check that all mu_t for t in the secondary block are pairwise adjacent.

    On a base of girth >= 6 this must pass; on smaller girth the report
    carries, per violating pair, a witnessing blow-up edge on which the two
    maps share a value. Pairs are checked in lexicographic order.

    ``jobs`` accepts only 1. It remains so that callers still passing
    ``jobs=1`` (benchmarks/workloads.py) keep working; any other value raises
    ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    mus = {t: shitov_mu(g, v, q, t) for t in secondary_block(q)}
    blown = blowup(g, q)
    pair_list = list(combinations(sorted(mus), 2))

    def check(pair: tuple[int, int]):
        t, tp = pair
        if exp_adjacent(mus[t], mus[tp]):
            return None
        for x, y in blown.sorted_edges:
            for a, bb in ((x, y), (y, x)):
                if mus[t].exp.values[a] == mus[tp].exp.values[bb]:
                    return (
                        t,
                        tp,
                        ((a // q, a % q), (bb // q, bb % q)),
                        mus[t].exp.values[a],
                    )
        raise AssertionError("non-adjacent pair must have a witnessing edge")

    results = [check(p) for p in pair_list]
    violations = tuple(r for r in results if r is not None)
    return MuCliqueReport(not violations, len(pair_list), violations)


def observation_image_check(
    ctx: ExpContext,
    coloring: Coloring,
    max_vertices: int = DEFAULT_MAX_EXP_VERTICES,
    max_pairs: int = DEFAULT_MAX_EXP_PAIRS,
) -> bool:
    """Does every map's color lie in the map's image?

    The caller supplies a proper coloring of the materialized exponential
    graph in which each constant map g_i is colored i. Totality, palette, and
    the constant-map normalization are enforced here (violations raise
    NormalizationError: they are precondition failures, not claim failures).
    Properness itself is the caller's contract and is not re-verified: any
    proper normalized coloring satisfies this check by construction, so
    re-checking properness would make a corrupted-input negative control
    unreachable.
    """
    n_maps = ctx.num_maps
    if n_maps > max_vertices:
        raise CapExceeded(f"{n_maps} maps exceed the max_vertices cap of {max_vertices}")
    if n_maps * (n_maps + 1) // 2 > max_pairs:
        raise CapExceeded(f"map pair count exceeds the max_pairs cap of {max_pairs}")
    if len(coloring.colors) != n_maps:
        raise NormalizationError(
            f"coloring covers {len(coloring.colors)} maps, graph has {n_maps}"
        )
    if coloring.k != ctx.c:
        raise NormalizationError(f"palette is {coloring.k}, expected {ctx.c}")
    for i in range(ctx.c):
        idx = constant_map(ctx, i).index()
        if coloring.colors[idx] != i:
            raise NormalizationError(
                f"constant map {i} is colored {coloring.colors[idx]}, expected {i}"
            )
    c = ctx.c
    for t in range(n_maps):
        rem, image = t, set()
        for _ in range(ctx.base.n):
            image.add(rem % c)
            rem //= c
        if coloring.colors[t] not in image:
            return False
    return True


def normalize_on_constants(ctx: ExpContext, coloring: Coloring) -> Coloring:
    """Permute colors so that each constant map g_i receives color i.

    Possible for any proper coloring with k = c: the constant maps form a
    c-clique, so their colors are pairwise distinct.
    """
    if coloring.k != ctx.c:
        raise ValueError(f"need palette {ctx.c}, coloring has {coloring.k}")
    perm = [-1] * ctx.c
    for i in range(ctx.c):
        current = coloring.colors[constant_map(ctx, i).index()]
        perm[current] = i
    unassigned = [i for i, p in enumerate(perm) if p == -1]
    targets = sorted(set(range(ctx.c)) - set(p for p in perm if p != -1))
    for src, dst in zip(unassigned, targets):
        perm[src] = dst
    return Coloring(tuple(perm[c] for c in coloring.colors), coloring.k)


def simple_maps_adjacent(
    g: Graph, phi: BlowupExpMap, psi: BlowupExpMap
) -> bool:
    """The simple-map adjacency characterization over the original base.

    For simple maps over blowup(g, q) with q >= 2 this equals exp_adjacent:
    per base edge xy both cross conditions, plus phi(x) != psi(x) at every
    vertex (from the intra-fiber edges).
    """
    if not (phi.simple and psi.simple):
        raise ValueError("characterization applies to simple maps only")
    q = phi.q
    pv = tuple(phi.exp.values[x * q] for x in range(g.n))
    sv = tuple(psi.exp.values[x * q] for x in range(g.n))
    for x, y in g.edges:
        if pv[x] == sv[y] or sv[x] == pv[y]:
            return False
    return all(pv[x] != sv[x] for x in range(g.n))
