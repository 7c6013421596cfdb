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
fills a neighbourhood is dropped, and each remaining pair of halves gives
the colours a map takes on every neighbourhood by one OR, its free colours
being their complement. Only the maps with a neighbour are
kept, the others being isolated vertices. Their edges are counted from the
free masks; then one table per half maps each distinct free mask to its
sorted index sums, built from the top field down, and each map reads its two
entries for its neighbours above itself. So the work follows the half
tables, the pairs of kept halves and the edges, not the map pairs. Hard caps
on the map and edge counts make the astronomically large instances fail
loudly instead of running forever. The solvers are imported only by
universal_property_check, the one function that searches, and the
constructions of ``graphs`` only by the functions that build a product, a
blow-up or a distance table, so materializing loads none of them.

Most questions about K_c^G need not visit its c**n maps. The neighbours of
a map f form a box, the product over the base vertices b of the colours
outside f(N(b)), and where one map's box holds another's, sending the
second map to the first is a homomorphism (folding). maximal_boxes finds
the maximal boxes from the half tables alone, by pairing the minimal
halves, and retract returns R, the subgraph induced on one map per maximal
box, with a lift of every map onto R: chi, and whether a graph maps into
K_c^G, are the same on R as on K_c^G, and a colouring of R lifts.

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
from typing import Callable, Iterable

from ._graph import Coloring, Graph, HomMap
from ._record import Record
from .errors import DEFAULT_MAX_EXP_EDGES, DEFAULT_MAX_EXP_VERTICES, CapExceeded


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
    """One half of the maps' digits, the base vertices start..stop-1, as three
    columns over its digit assignments s that fill no N(b), in index order.

    N(b) is as in _neighbour_columns. The columns are s itself; the colours
    the digits of s take on N(b) at every base vertex b, packed into one int
    with b at bit c*b; and the one-hot digits of s, packed likewise, base
    vertex start + i at bit c*(start + i). Digit i of s, the value at base
    vertex start + i, cycles with period c**(i+1).
    """
    nb, c = ctx.base.n, ctx.c
    k, full = stop - start, (1 << c) - 1
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
    columns = (range(len(zero)), pack(taken), pack([zero] * start + onehot))
    return tuple(list(compress(col, keep)) for col in columns)


def _nonempty_fields(masks: list[int], n: int, c: int) -> list[bool]:
    """Per packed mask, whether every one of its n c-bit fields has a set bit.

    A mask x has an empty field iff (x - ones) & ~x & tops is not 0, ones and
    tops holding the lowest and the highest bit of every field: the
    subtraction borrows through a field only out of an empty one.
    """
    ones = ((1 << c * n) - 1) // ((1 << c) - 1)
    tops = ones << c - 1
    return [not (x - ones) & ~x & tops for x in masks]


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
    digits take, so one table indexed by t_lo and one by t_hi (see
    _half_tables) give them by one OR, packed over every base vertex b at
    bit c*b. f's free masks are the complement, split per half: at the low
    base vertices packed into one int, vertex i at bit c*i, and at the high
    ones into another, vertex h+i at bit c*i. A t_lo or t_hi whose own
    digits already fill some N(b) is dropped before the halves are combined,
    since no map holding it has a neighbour.

    Besides the maps and the packed masks, this returns each map's neighbour
    count with itself included (the product of the free-set sizes, see
    _free_counts) and the maps that are their own
    neighbours (each digit free at its own vertex). The work is
    O(checks * c**(n-h)) for the tables and O(1) per pair of kept halves.
    """
    nb, c = ctx.base.n, ctx.c
    h = nb // 2
    t_los, a_useds, a_owns = _half_tables(ctx, 0, h)
    shift, step = c * h, c**h
    full, full_low = (1 << c * nb) - 1, (1 << shift) - 1
    maps, low, high, loops = [], [], [], []
    for t_hi, b_used, b_own in zip(*_half_tables(ctx, h, nb)):
        block = t_hi * step
        frees = [full ^ (a | b_used) for a in a_useds]
        kept = _nonempty_fields(frees, nb, c)
        for t_lo, free, a_own in compress(zip(t_los, frees, a_owns), kept):
            t = block + t_lo
            maps.append(t)
            low.append(free & full_low)
            high.append(free >> shift)
            if free & (own := a_own | b_own) == own:
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


def _minimal(masks: Iterable[int]) -> list[int]:
    """The distinct masks with no other mask among masks as a bit subset,
    by popcount and then by value."""
    kept: list[int] = []
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        # a kept mask has no more bits than m, so it can only lie within m
        if all(map((~m).__and__, kept)):
            kept.append(m)
    return kept


def _used_vectors(ctx: ExpContext) -> tuple[list[tuple[int, int]], dict[int, int], dict[int, int]]:
    """The minimal used vectors of maximal_boxes, each after its least map
    index, and per half the used vector of each digit assignment that fills
    no N(b), keyed by the assignment (see _half_tables)."""
    nb, c = ctx.base.n, ctx.c
    h = nb // 2
    if (rows := c ** (nb - h)) > DEFAULT_MAX_EXP_VERTICES:
        raise CapExceeded(
            f"a half table of {rows} digit assignments exceeds the max_vertices cap"
            f" of {DEFAULT_MAX_EXP_VERTICES}"
        )
    lows, highs = (dict(zip(*_half_tables(ctx, *half)[:2])) for half in ((0, h), (h, nb)))
    # the least assignment per used vector of each half; the tables are in index order
    first_low, first_high = ({u: s for s, u in reversed(d.items())} for d in (lows, highs))
    # x' within x gives x'|y within x|y, so the minimal ORs pair minimal halves
    min_high = _minimal(first_high)
    ors = [*{x | y for x in _minimal(first_low) for y in min_high}]
    full = (1 << c * nb) - 1
    boxes = []
    for v in _minimal(compress(ors, _nonempty_fields([full ^ v for v in ors], nb, c))):
        # every half within v ORs to exactly v, as v is minimal
        t_lo = min(s for u, s in first_low.items() if not u & ~v)
        t_hi = min(s for u, s in first_high.items() if not u & ~v)
        boxes.append((t_hi * c**h + t_lo, v))
    return sorted(boxes), lows, highs


def maximal_boxes(ctx: ExpContext) -> tuple[tuple[int, int], ...]:
    """The ⊆-maximal neighbourhood boxes of K_c^G, as (t, used) pairs in
    increasing order of t.

    The neighbours of a map f are the maps g with g(b) outside f(N(b)) at
    every base vertex b, so N(f) is the box of those choices. f's used
    vector holds the colours f(N(b)), packed over every b at bit c*b: the
    complement of the box. Each pair holds one ⊆-minimal used vector among
    the maps with a neighbour (no f(N(b)) the whole palette), after t, the
    least map index that attains it. The empty tuple means that no map has
    a neighbour.

    A used vector is the OR of the two half vectors of _half_tables, and
    x' ⊆ x gives x'|y ⊆ x|y, so the minimal vectors come from pairs of
    minimal half vectors: the work follows the half tables, about c**(n/2)
    rows each, and not the c**n maps. A half table of more rows than the
    default max_vertices cap raises CapExceeded before it is built.
    """
    return tuple(_used_vectors(ctx)[0])


def retract(ctx: ExpContext) -> tuple[Graph, tuple[int, ...], Callable[[int], int]]:
    """K_c^G folded onto R, the induced subgraph on one map per maximal box.

    Returns R, its vertices' map indices (the t of maximal_boxes, in that
    order), and a lift that sends any map index to the vertex of R whose box
    contains its own. If N(f) ⊆ N(g), sending f to g is a homomorphism, so
    the lift is a retraction of K_c^G onto R (folding; Hell–Nešetřil,
    Graphs and Homomorphisms, 2004). Every hom-monotone question, such as chi
    or H -> K_c^G, has the same answer on R, and a colouring of R lifts to
    one of K_c^G. In R, g is adjacent to f iff g's one-hot digits miss
    used(f), with a loop where a representative is adjacent to itself. When
    no map has a neighbour, K_c^G is edgeless and R is map 0 alone. The
    cap is that of maximal_boxes.
    """
    nb, c, n_maps = ctx.base.n, ctx.c, ctx.num_maps
    boxes, lows, highs = _used_vectors(ctx)
    reps = tuple(t for t, _ in boxes) or (0,)
    used = [v for _, v in boxes]
    own = [sum(1 << c * b + t // c**b % c for b in range(nb)) for t in reps]
    edges = frozenset(
        (i, j) for i, j in combinations(range(len(used)), 2) if not own[j] & used[i]
    )
    loops = frozenset(i for i, v in enumerate(used) if not own[i] & v)
    step, found = c ** (nb // 2), {}

    def lift(t: int) -> int:
        if not (0 <= t < n_maps):
            raise ValueError(f"map index {t} out of range [0, {n_maps})")
        low, high = lows.get(t % step), highs.get(t // step)
        if low is None or high is None:
            return 0  # a half fills some N(b), so t has no neighbour
        x = low | high
        if x not in found:
            # a map with no neighbour has an empty box, inside any other
            found[x] = next((i for i, v in enumerate(used) if not v & ~x), 0)
        return found[x]

    return Graph._built(len(reps), edges, loops), reps, lift


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
    from .solvers import is_homomorphism, k_colorable

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

