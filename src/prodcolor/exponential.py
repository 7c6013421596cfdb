"""Exponential graphs: maps V(G) -> palette with the conflict-free adjacency.

Two maps f, g are adjacent iff for every edge xy of the base (and every loop
x, taken as the edge xx), f(x) != g(y) and g(x) != f(y). The directed
checks list both orders of every edge and each loop once, so the rule reads
f(a) != g(b) over the checks (a, b). Evaluating the predicate at f = g
decides whether the map carries a loop, which happens exactly when the map
is a proper coloring of a loopless base.

Map index t assigns vertex v the base-c digit (t // c**v) % c,
least-significant digit first. Materialization splits the base vertices into
two halves at h = n // 2 and tabulates, per assignment of one half's digits,
the colours those digits take on each neighbourhood; a half that already
fills a neighbourhood is dropped, and each remaining pair of halves gives a
map's free colours by one OR per half. Only the maps with a neighbour are
kept, the others being isolated vertices. Their edges are counted from the
free masks; then one table per half maps each distinct free mask to its
sorted index sums, built from the top field down, and each map reads its two
entries for its neighbours above itself. So the work follows the half
tables, the pairs of kept halves and the edges, not the map pairs. Hard caps
on the map and edge counts make the astronomically large instances fail
loudly instead of running forever. The solvers are imported only by the two
functions that search or recolour, and the constructions of ``graphs`` only
by the functions that build a product, a blow-up or a distance table, so
materializing loads none of them.

The two special map families used to analyze K_c^{G[K_q]} with palette
c = 4q+2, the radial maps mu_t (value i, q+i, or t by distance from a
center vertex) and the two-valued simple maps theta, are plain ExpMaps on
ExpContext(blowup(G, q), 4q+2), with fiber vertex (x, i) at x*q + i;
is_simple(m, q) tells whether a map is constant on every fiber. Palette
bookkeeping is 0-based: the "first block" is {0..2q-1} and the "secondary
block" is {2q..4q+1}.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, combinations, compress, repeat
from math import prod
from operator import and_, lshift, mul, or_
from typing import TYPE_CHECKING

from ._graph import Graph
from ._record import Record
from .errors import DEFAULT_MAX_EXP_EDGES, DEFAULT_MAX_EXP_VERTICES, CapExceeded

if TYPE_CHECKING:
    from .solvers import Coloring


class NormalizationError(ValueError):
    """A precondition on the supplied coloring failed (not a claim failure)."""


class ExpContext(Record):
    """Base graph (loops permitted) and palette size for an exponential graph."""

    base: Graph
    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"palette size must be >= 1, got {self.c}")

    @cached_property
    def directed_checks(self) -> tuple[tuple[int, int], ...]:
        """Ordered vertex pairs (a, b) over which adjacency demands f(a) != g(b):
        both orders of every edge, and each loop once."""
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


class ExpMap(Record):
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


def is_simple(m: ExpMap, q: int) -> bool:
    """True iff m is constant on every fiber of a blow-up by q, that is on
    each run of q consecutive vertices (fiber vertex (x, i) is x*q + i)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    vals = m.values
    return all(vals[a] == vals[a - a % q] for a in range(len(vals)))


def exp_adjacent(f: ExpMap, g: ExpMap) -> bool:
    """Adjacency of two maps in the same exponential graph (f = g decides the loop)."""
    if f.ctx != g.ctx:
        raise ValueError("maps belong to different exponential graphs")
    fv, gv = f.values, g.values
    return all(fv[a] != gv[b] for a, b in f.ctx.directed_checks)


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


def _half_tables(ctx: ExpContext, start: int, stop: int) -> tuple[list[int], ...]:
    """One half of the maps' digits, the base vertices start..stop-1, as four
    columns over its digit assignments s that fill no N(b), in index order.

    N(b) is as in _neighbour_columns. With h = n // 2, the columns are s
    itself; the colours the digits of s take on N(b) at each low base
    vertex b < h, packed into one int with b at bit c*b; the same at each
    high base vertex h + i, packed with it at bit c*i; and the one-hot
    digits of s, packed as their own half is. Digit i of s, the value at
    base vertex start + i, cycles with period c**(i+1).
    """
    nb, c = ctx.base.n, ctx.c
    k, h, full = stop - start, nb // 2, (1 << c) - 1
    # per base vertex b, the digits of s at the vertices of N(b) in the half
    inside: list[list[int]] = [[] for _ in range(nb)]
    for a, b in ctx.directed_checks:
        if start <= a < stop:
            inside[b].append(a - start)
    onehot = [[1 << d for d in range(c) for _ in range(c**i)] * c ** (k - 1 - i) for i in range(k)]
    zero = [0] * c**k
    taken = [reduce(lambda acc, i: list(map(or_, acc, onehot[i])), ins, zero) for ins in inside]
    # the half's own digits fill N(b) only if c of its vertices lie in it
    fillable = (col for col, ins in zip(taken, inside) if len(ins) >= c)
    keep = reduce(
        lambda acc, col: list(map(and_, acc, map(full.__ne__, col))), fillable, [True] * len(zero)
    )
    # Horner's rule from the last field down to the first
    pack = lambda cols: reduce(
        lambda acc, col: list(map(or_, map(lshift, acc, repeat(c)), col)), reversed(cols), zero
    )
    columns = (range(len(zero)), pack(taken[:h]), pack(taken[h:]), pack(onehot))
    return tuple(list(compress(col, keep)) for col in columns)


def _free_counts(masks: set[int], n: int, c: int) -> dict[int, int]:
    """Per packed mask in masks, the product of the popcounts of its n c-bit
    fields, taken from the top field down once per distinct prefix."""
    full, counts = (1 << c) - 1, {0: 1}
    for i in reversed(range(n)):
        counts = {p: counts[p >> c] * (p & full).bit_count() for p in {m >> c * i for m in masks}}
    return counts


def _neighbour_columns(ctx: ExpContext) -> tuple[list[int], ...]:
    """The maps with a neighbour, in index order, and per such map the palette
    masks it leaves free for a neighbour, packed per half.

    A map g is adjacent to f iff g(b) lies outside f(N(b)) at every base
    vertex b, where N(b) holds the vertices a with (a, b) a directed check
    (b itself when b carries a loop), so f has a neighbour iff no f(N(b)) is
    the whole palette. With h = n // 2, map index t splits as
    t_hi * c**h + t_lo: t_lo holds the digits at the low base vertices
    0..h-1 and t_hi those at the high ones h..n-1. The colours f takes on
    N(b) are those its low digits take there joined with those its high
    digits take, so per half one table indexed by t_lo and one by t_hi (see
    _half_tables) give f's free masks by one OR each: at the low base
    vertices packed into one int, vertex i at bit c*i, and at the high ones
    into another, vertex h+i at bit c*i. A t_lo or t_hi whose own digits
    already fill some N(b) is dropped before the halves are combined, since
    no map holding it has a neighbour.

    Besides the maps and the packed masks, this returns each map's neighbour
    count with itself included (the product of the free-set sizes, see
    _free_counts) and the maps that are their own
    neighbours (each digit free at its own vertex). The work is
    O(checks * c**(n-h)) for the tables and O(1) per pair of kept halves.
    """
    nb, c = ctx.base.n, ctx.c
    h = nb // 2
    low_half = list(zip(*_half_tables(ctx, 0, h)))
    full_low, full_high, step = (1 << c * h) - 1, (1 << c * (nb - h)) - 1, c**h
    # a packed mask x has an empty field iff (x - ones) & ~x & tops is not 0:
    # the subtraction borrows through a field only out of an empty one
    ones_low, ones_high = sum(1 << c * i for i in range(h)), sum(1 << c * i for i in range(nb - h))
    tops_low, tops_high = ones_low << c - 1, ones_high << c - 1
    maps, low, high, loops = [], [], [], []
    for t_hi, b_low, b_high, b_own in zip(*_half_tables(ctx, h, nb)):
        for t_lo, a_low, a_high, a_own in low_half:
            x, y = full_low ^ (a_low | b_low), full_high ^ (a_high | b_high)
            if (x - ones_low) & ~x & tops_low or (y - ones_high) & ~y & tops_high:
                continue
            t = t_hi * step + t_lo
            maps.append(t)
            low.append(x)
            high.append(y)
            if x & a_own == a_own and y & b_own == b_own:
                loops.append(t)
    low_count, high_count = _free_counts(set(low), h, c), _free_counts(set(high), nb - h, c)
    sizes = list(map(mul, map(low_count.__getitem__, low), map(high_count.__getitem__, high)))
    return maps, low, high, sizes, loops


def _index_sums(masks: set[int], n: int, c: int, weight: int) -> dict[int, list[int]]:
    """Per packed mask in masks, the sorted sums of d_i * c**i * weight over
    i < n and the set bits d_i of field i, at bit c*i, of the mask.

    The fields are read from the top one down, and each level expands every
    distinct prefix of the masks once, so masks with equal top fields share
    that work. Each lower digit refines within the block of the digits above
    it, so every list comes out sorted.
    """
    sums = {0: [0]}
    for i in reversed(range(n)):
        w = c**i * weight
        tops = {m >> c * i for m in masks}
        sums = {p: [s + d * w for s in sums[p >> c] for d in range(c) if p >> d & 1] for p in tops}
    return sums


def materialize_exponential(
    ctx: ExpContext,
    max_vertices: int = DEFAULT_MAX_EXP_VERTICES,
    max_edges: int = DEFAULT_MAX_EXP_EDGES,
) -> Graph:
    """The exponential graph as a concrete Graph, within hard size caps.

    Vertex t is the map whose value at base vertex v is digit v of t in base
    c. Loops mark the maps adjacent to themselves (proper colorings of a
    loopless base).

    The construction is output-sensitive: the neighbours of a map f are the
    maps g with g(b) outside f(N(b)) at every base vertex b, so each
    neighbourhood is the product of the free digits at each b. Only the maps
    with a neighbour are kept, with their free masks packed per half of the
    base vertices, split at h = n // 2 (see _neighbour_columns); the rest
    are isolated. After the vertex cap, a lower bound on the edges, from the
    at least c - |N(b)| colours every map leaves free at each b, refuses a
    palette far over the cap before any table whose masks take c bits. The
    exact edge count, half of the sum over maps of the free-set sizes'
    product less the loops, is then checked against max_edges before any
    index sum or edge is built.

    A neighbour's index is a block base, its high digits' sum, plus a low
    sum below c**h. One table per half maps each distinct free mask to its
    sorted sums, the high ones as block bases (see _index_sums); no entry is
    longer than the neighbourhood of a map that needs it. Each map reads its
    two entries, skips the blocks below its own and streams its neighbours
    above itself into the edge set, with no intermediate list, and the graph
    takes the trusted build path. Time and memory are O(checks * c**(n-h))
    for the half tables, O(1) per pair of kept halves, and O(1) per edge.
    """
    n_maps = ctx.num_maps
    if n_maps > max_vertices:
        raise CapExceeded(
            f"{n_maps} maps exceed the max_vertices cap of {max_vertices}"
        )
    # every map leaves at least c - |N(b)| colours free at each base vertex
    # b, so this bounds the edges from below before any table grows with c
    base, c = ctx.base, ctx.c
    free = prod(max(0, c - base.degree(b) - (b in base.loops)) for b in range(base.n))
    if (least := (n_maps * free - n_maps) // 2) > max_edges:
        raise CapExceeded(f"at least {least} edges exceed the max_edges cap of {max_edges}")
    maps, low, high, sizes, loops = _neighbour_columns(ctx)
    n_edges = (sum(sizes) - len(loops)) // 2
    if n_edges > max_edges:
        raise CapExceeded(
            f"{n_edges} edges exceed the max_edges cap of {max_edges}"
        )
    h = base.n // 2
    step = c**h
    # both tables are complete before the edge set starts to grow
    lo_sums, hi_sums = _index_sums(set(low), h, c, 1), _index_sums(set(high), base.n - h, c, step)
    # a low sum stays inside its block, and a block inside the maps
    if any(s[-1] >= step for s in lo_sums.values()) or any(
        s[-1] + step > n_maps for s in hi_sums.values()
    ):
        raise RuntimeError(f"an index table reaches beyond the {n_maps} maps")
    # from t's own block b on, only the neighbours above t
    edges = frozenset(
        (t, b + lo)
        for t, lows, blocks in zip(maps, map(lo_sums.get, low), map(hi_sums.get, high))
        for b in blocks
        if b > t - step
        for lo in lows
        if b + lo > t
    )
    if len(edges) != n_edges:
        raise RuntimeError(f"{len(edges)} edges built, {n_edges} counted")
    return Graph._built(n_maps, edges, frozenset(loops))


def universal_property_check(g: Graph, h: Graph, c: int) -> bool:
    """Verify the exponential graph's defining property on concrete instances.

    A proper c-coloring Psi of g x h is computed first (its existence is a
    precondition). The check then confirms that u -> f_u with
    f_u(v) = Psi(v, u) is a homomorphism from h into the materialized
    exponential graph, and that the evaluation coloring (x, f) -> f(x) is a
    proper coloring of the product of g with that graph, without building
    it: f(a) != f'(b) for each edge or loop ff' of the exponential graph
    and each directed check (a, b) of g, which are the product's edges.
    """
    from .graphs import tensor_product
    from .solvers import HomMap, is_homomorphism, k_colorable

    product = tensor_product(g, h)
    coloring = k_colorable(product, c)
    if coloring is None:
        raise ValueError(f"product is not {c}-colorable; precondition fails")
    ctx = ExpContext(g, c)
    expo = materialize_exponential(ctx)

    # h -> K_c^g via u -> f_u
    maps = []
    for u in range(h.n):
        values = tuple(coloring.colors[x * h.n + u] for x in range(g.n))
        maps.append(ExpMap(ctx, values).index())
    if not is_homomorphism(h, expo, HomMap(tuple(maps))):
        return False

    # the evaluation map is a proper coloring of g x K_c^g
    expo_pairs = [*expo.edges, *((f, f) for f in expo.loops)]
    value = {t: index_to_map(ctx, t).values for t in set(chain.from_iterable(expo_pairs))}
    return all(
        value[f][a] != value[fp][b] for f, fp in expo_pairs for a, b in ctx.directed_checks
    )


# ---------------------------------------------------------------------------
# the mu/theta construction over blow-ups (palette c = 4q+2, 0-based blocks)


def secondary_block(q: int) -> range:
    """The secondary half of the palette {2q..4q+1} (0-based)."""
    return range(2 * q, 4 * q + 2)


def _mu_base(g: Graph, v: int, q: int) -> tuple[list[int | float], ExpContext]:
    """Check the arguments shared by mu_{v,t} and theta, and return the
    distances from v and ExpContext(blowup(g, q), 4q+2), which both maps are on."""
    from .graphs import blowup, distances

    if g.loops:
        raise ValueError("Shitov's maps mu and theta are defined over loopless base graphs")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not (0 <= v < g.n):
        raise ValueError(f"center vertex {v} out of range")
    return distances(g, v), ExpContext(blowup(g, q), 4 * q + 2)


def _mu_values(dist: list[int | float], q: int, t: int) -> tuple[int, ...]:
    """The values of mu_{v,t} on the blow-up, in fiber order, from the distances to v."""
    values: list[int] = []
    for d in dist:
        if d == 0 or d == 2:
            values += range(q)
        elif d == 1:
            values += range(q, 2 * q)
        else:
            values += [t] * q
    return tuple(values)


def shitov_mu(g: Graph, v: int, q: int, t: int) -> ExpMap:
    """The radial map mu_{v,t}: an ExpMap on ExpContext(blowup(g, q), 4q+2).

    Value at fiber vertex (x, i): i if dist(x, v) is 0 or 2; q+i if
    dist(x, v) = 1; t if dist(x, v) >= 3 (unreachable vertices included).
    """
    dist, ctx = _mu_base(g, v, q)
    if t not in secondary_block(q):
        raise ValueError(
            f"t={t} outside the secondary block {2 * q}..{4 * q + 1} for q={q}"
        )
    return ExpMap(ctx, _mu_values(dist, q, t))


def shitov_theta(
    g: Graph, v: int, q: int, b: int | None = None, t: int | None = None
) -> ExpMap:
    """The simple two-valued map theta: t inside the radius-1 ball of v, b outside.

    An ExpMap on ExpContext(blowup(g, q), 4q+2) that is constant on every
    fiber, so is_simple(theta, q) holds. b and t must be distinct colors
    from the secondary block; the defaults are b = 2q+1 and t = 2q.
    """
    dist, ctx = _mu_base(g, v, q)
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
    values = tuple(t if d <= 1 else b for d in dist for _ in range(q))
    return ExpMap(ctx, values)


class MuCliqueReport(Record):
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

    One blow-up serves every mu_t. A pair (t, t') is tested per shared value
    x: the neighbours of the vertices where mu_t is x against the vertices
    where mu_t' is x. Only a violating pair is scanned for its witness, the
    first directed check of the exponential graph on which the values agree.

    ``jobs`` accepts only 1. It remains so that callers still passing
    ``jobs=1`` (benchmarks/workloads.py) keep working; any other value raises
    ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    # all mu_t share one exponential graph over the blow-up, which has no loops
    dist, ctx = _mu_base(g, v, q)
    adj = ctx.base.neighbor_masks
    mus, holding, beside = {}, {}, {}
    for t in secondary_block(q):
        f = mus[t] = _mu_values(dist, q, t)
        # per value, the blow-up vertices holding it and all their neighbours
        hold: dict[int, int] = {}
        near: dict[int, int] = {}
        for a, x in enumerate(f):
            hold[x] = hold.get(x, 0) | 1 << a
            near[x] = near.get(x, 0) | adj[a]
        holding[t], beside[t] = hold, near
    pairs = list(combinations(mus, 2))
    violations = []
    for t, tp in pairs:
        # adjacent iff no blow-up edge ab has mu_t(a) == mu_tp(b)
        if any(m & holding[tp].get(x, 0) for x, m in beside[t].items()):
            f, fp = mus[t], mus[tp]
            # the checks list each blow-up edge as (x, y) and then (y, x)
            a, b = next((a, b) for a, b in ctx.directed_checks if f[a] == fp[b])
            violations.append((t, tp, ((a // q, a % q), (b // q, b % q)), f[a]))
    return MuCliqueReport(not violations, len(pairs), tuple(violations))


def observation_image_check(ctx: ExpContext, coloring: Coloring) -> bool:
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
    c-clique, so their colors are pairwise distinct. Two constant maps that
    share a color raise NormalizationError.
    """
    from .solvers import Coloring

    if coloring.k != ctx.c:
        raise ValueError(f"need palette {ctx.c}, coloring has {coloring.k}")
    perm = [-1] * ctx.c
    for i in range(ctx.c):
        current = coloring.colors[constant_map(ctx, i).index()]
        if perm[current] >= 0:
            raise NormalizationError(
                f"constant maps {perm[current]} and {i} share color {current}"
            )
        perm[current] = i
    return Coloring(tuple(perm[c] for c in coloring.colors), coloring.k)

