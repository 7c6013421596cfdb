"""Exact graph invariants: coloring, independence, girth, and homomorphisms.

All solvers are deterministic pure functions of their (immutable) inputs:
fixed branching orders, no randomness. They are sized for desk-scale
instances (hundreds of vertices), not for competitive benchmarks.

One homomorphism search serves k_colorable (maps into K_k) and
find_homomorphism. Its domains are value-major (one vertex mask per target
value), so a node costs O(t log t) big-int operations for t target values,
plus one per placed vertex and one per value a placed value excludes, and
no scan of the vertices. The independent-set searches live in the private
``_independent_sets``, which the functions that need them import on their
first call. Every search runs on an explicit stack, so no input is too deep
for it and no process-wide state, such as the recursion limit, is touched.

Coloring-type invariants are undefined on graphs with loops and reject them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import Record
from .graphs import Graph


class Coloring(Record):
    """Total assignment of colors 0..k-1 to vertices 0..len(colors)-1."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"palette size must be nonnegative, got {self.k}")
        for v, c in enumerate(self.colors):
            if not (0 <= c < self.k):
                raise ValueError(f"vertex {v} has color {c} outside palette of size {self.k}")

    def colors_used(self) -> int:
        return len(set(self.colors))


class HomMap(Record):
    """A vertex map witnessing a homomorphism (edges map to edges-or-loops)."""

    mapping: tuple[int, ...]


def _require_loopless(g: Graph, what: str) -> None:
    if g.loops:
        raise ValueError(f"{what} is undefined on graphs with loops")


def is_proper_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge of g is monochromatic. The coloring must be total."""
    _require_loopless(g, "proper coloring")
    if len(coloring.colors) != g.n:
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, graph has {g.n}"
        )
    cols = coloring.colors
    return all(cols[u] != cols[v] for u, v in g.edges)


def greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique: scan vertices by descending degree, keep compatibles."""
    masks = g.neighbor_masks
    order = sorted(range(g.n), key=lambda v: (-masks[v].bit_count(), v))
    clique: list[int] = []
    cmask = 0
    for v in order:
        if cmask & ~masks[v] == 0:
            clique.append(v)
            cmask |= 1 << v
    return clique


@lru_cache(maxsize=64)
def _twins(values: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The twin classes of a target's values, and the mask of the untwinned ones:
    x, w are twins when (values[x] ^ values[w]) & ~(bit x | bit w) == 0, both or neither looped."""
    groups: dict[tuple[int, int], int] = {}
    for w, vw in enumerate(values):
        bit, loop = 1 << w, vw >> w & 1
        for key in ((vw & ~bit, loop), (vw | bit, loop)):
            groups[key] = groups.get(key, 0) | bit
    twin_classes = tuple(m for m in groups.values() if m & (m - 1))
    return twin_classes, (1 << len(values)) - 1 - sum(twin_classes)


def _hom_search(nbrs: tuple[int, ...], values: list[int], holders: list[int]) -> list[int] | None:
    """A map v -> image[v], with v in holders[image[v]], sending each edge uv
    to values c, d with d in values[c], or None if there is none.

    nbrs are the source's neighbour masks; values[c] holds c's neighbours in
    the target, plus c itself when c has a loop; holders[c] masks the vertices
    that may still take c (updated in place), and a placed vertex keeps only
    its value. Depth-first in DSATUR order (fewest values, then higher degree,
    then lower index), values lowest first, with forward checking: the
    unplaced vertices left with one value are placed as a batch, whose
    vertices on c leave holders[d] for each d outside values[c]. Swapping twin
    values is an automorphism of the target, so a branch tries the used values
    and only the lowest unused value of each twin class: complete only if each
    initial domain that is not a single value is a union of whole twin classes.
    """
    twin_classes, untwinned = _twins(tuple(values))
    full = left = (1 << len(nbrs)) - 1  # left: the unplaced vertices
    image = [0] * len(nbrs)
    trail: list[tuple[int, int]] = []  # (c, vertices that left holders[c]), or (-1, a batch placed)
    stack: list[tuple[int, int, int, int]] = []  # (vertex, value to try, trail length, used)
    by_degree: dict[int, int] = {}  # vertex masks by degree, highest first, from the first branch
    used = batch = 0
    while True:
        for c, h in enumerate(holders):  # place the batch
            if on_c := h & batch:
                used |= 1 << c
                reach = 0
                while on_c:
                    v = on_c.bit_length() - 1
                    on_c ^= 1 << v
                    reach |= nbrs[v]
                    image[v] = c
                excluded = ~values[c] & ((1 << len(values)) - 1)
                while excluded:
                    d = excluded.bit_length() - 1
                    excluded ^= 1 << d
                    if gone := holders[d] & reach:
                        holders[d] ^= gone
                        trail.append((d, gone))
        one = two = 0  # the vertices with at least one, at least two values left
        for h in holders:
            two |= one & h
            one |= h
        if one == full:  # no dead end
            left ^= batch
            trail.append((-1, batch))
            batch = one & ~two & left
            if batch:
                continue
            if not left:
                return image
            planes: list[int] = []  # planes[i]: the vertices whose number of values has bit i set
            for carry in holders:
                for i, plane in enumerate(planes):
                    planes[i], carry = plane ^ carry, plane & carry
                    if not carry:
                        break
                if carry:
                    planes.append(carry)
            fewest = left
            for plane in reversed(planes):
                if fewest & ~plane:
                    fewest &= ~plane
            if not by_degree:
                for v, m in sorted(enumerate(nbrs), key=lambda vm: -vm[1].bit_count()):
                    by_degree[m.bit_count()] = by_degree.get(m.bit_count(), 0) | 1 << v
            fewest &= next(m for m in by_degree.values() if fewest & m)
            v = (fewest & -fewest).bit_length() - 1
            allow = untwinned | used
            for m in twin_classes:
                m &= ~used
                allow |= m & -m
            for c in reversed(range(len(holders))):  # the lowest value is popped first
                if allow >> c & 1 and holders[c] >> v & 1:
                    stack.append((v, c, len(trail), used))
        if not stack:
            return None
        v, c, mark, used = stack.pop()  # undo to the branch on v, then try v on c
        while len(trail) > mark:
            d, m = trail.pop()
            if d < 0:
                left |= m
            else:
                holders[d] |= m
        batch = 1 << v
        for d, h in enumerate(holders):
            if d != c and h & batch:
                holders[d] = h ^ batch
                trail.append((d, batch))


def k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper k-coloring of g if one exists, else None.

    A homomorphism search into K_k: the greedy clique's vertices are fixed to
    colors 0, 1, ... (and give a lower bound), and since all colors of K_k are
    twins, a branch opens at most one new color, the next unused one. The
    returned witness is a deterministic function of the input.
    """
    _require_loopless(g, "k-colorability")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    clique = greedy_clique(g)
    if len(clique) > k:
        return None
    rest = (1 << g.n) - 1 - sum(1 << v for v in clique)
    holders = [rest | 1 << v for v in clique] + [rest] * (k - len(clique))
    colors = _hom_search(g.neighbor_masks, [((1 << k) - 1) ^ (1 << c) for c in range(k)], holders)
    return None if colors is None else Coloring(tuple(colors), k)


def _core_components(
    g: Graph, adjacency: list[list[int]], k: int
) -> tuple[list[int], list[tuple[list[int], Graph]]]:
    """The vertices peeled off to reach the k-core of g, in peeling order, and
    the connected components of the core, each as its vertices in increasing
    order and the graph they induce, relabeled in that order.

    adjacency holds g's neighbour lists. Vertices of degree below k are peeled
    off until none is left, so each has fewer than k neighbours in the core
    or later in the order; g itself stands for a core that is all of g and
    connected.
    """
    degree = [len(nbrs) for nbrs in adjacency]
    alive = [d >= k for d in degree]
    peeled = [v for v in range(g.n) if not alive[v]]
    for v in peeled:  # grows while it is scanned
        for u in adjacency[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] < k:
                    alive[u] = False
                    peeled.append(u)
    parts = []
    for root in range(g.n):
        if not alive[root]:
            continue
        alive[root] = False
        component = [root]
        for v in component:  # grows while it is scanned: breadth-first search
            for u in adjacency[v]:
                if alive[u]:
                    alive[u] = False
                    component.append(u)
        if len(component) == g.n:
            return peeled, [(list(range(g.n)), g)]
        component.sort()
        index = {v: i for i, v in enumerate(component)}
        edges = frozenset(
            (index[v], index[u]) for v in component for u in adjacency[v] if v < u and u in index
        )
        parts.append((component, Graph._built(len(component), edges, frozenset())))
    return peeled, parts


def _chromatic_search(
    g: Graph, adjacency: list[list[int]]
) -> tuple[int, list[int], list[tuple[list[int], Coloring]]]:
    """The search of chromatic_number on a g with edges: chi(g), the vertices
    peeled off to reach the chi-core, and a chi-coloring of each component of
    that core, each with the core vertices it colors."""
    _, parts = _core_components(g, adjacency, 2)
    k = max([2] + [len(greedy_clique(part)) for _, part in parts])
    while True:
        peeled, parts = _core_components(g, adjacency, k)
        colorings = []
        for vertices, part in parts:
            coloring = k_colorable(part, k)
            if coloring is None:
                break
            colorings.append((vertices, coloring))
        else:
            return k, peeled, colorings
        k += 1


def _core_input(g: Graph) -> tuple[list[int], Graph, list[list[int]]]:
    """The vertices of g with an edge, in increasing order, the graph they
    induce relabeled in that order, and its neighbour lists in the order of
    g's edge set, so that peeling meets the vertices as it would in g."""
    touched = sorted(set().union(*g.edges))
    pairs = g.edges
    if len(touched) < g.n:
        index = {v: i for i, v in enumerate(touched)}
        pairs = [(index[u], index[v]) for u, v in pairs]
        g = Graph._built(len(touched), frozenset(pairs), frozenset())
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return touched, g, adjacency


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterative deepening over k-cores.

    g is k-colorable iff its k-core is: a vertex of degree below k takes a
    color its neighbours leave free, so the peeled vertices are colored last,
    in reverse peeling order. For each k the search therefore runs
    k_colorable on each connected component of the k-core only (Matula-Beck
    1983). k starts at the largest greedy clique found in the components of
    the 2-core, and the first k at which every component is k-colorable is
    the answer. Every core is peeled from one set of adjacency lists over
    the vertices with an edge (the others take color 0). optimal_coloring
    runs the same search and also returns a coloring with that many colors.
    """
    _require_loopless(g, "chromatic number")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    return _chromatic_search(*_core_input(g)[1:])[0]


def optimal_coloring(g: Graph) -> Coloring:
    """A proper coloring of g with chi(g) colors, so its k is chi(g).

    Isolated vertices take color 0. The search of chromatic_number leaves a
    chi-coloring of each component of the chi-core of the other vertices;
    each peeled vertex, in reverse peeling order, then takes the lowest color
    its colored neighbours leave free, and one is always free.
    """
    _require_loopless(g, "optimal coloring")
    if not g.edges:
        return Coloring((0,) * g.n, min(g.n, 1))
    touched, core, adjacency = _core_input(g)
    k, peeled, colorings = _chromatic_search(core, adjacency)
    colors = [-1] * core.n
    for vertices, coloring in colorings:
        for v, c in zip(vertices, coloring.colors):
            colors[v] = c
    for v in reversed(peeled):
        taken = {colors[u] for u in adjacency[v]}
        colors[v] = next(c for c in range(k) if c not in taken)
    relabeled = [0] * g.n  # core vertex v is touched[v] of g
    for v, c in zip(touched, colors):
        relabeled[v] = c
    return Coloring(tuple(relabeled), k)


def independence_number(g: Graph) -> int:
    """Exact size of a largest independent set: the heaviest one under unit weights."""
    _require_loopless(g, "independence number")
    from ._independent_sets import heaviest_independent_set

    return heaviest_independent_set(g, [1] * g.n)[0]


def max_weight_independent_set(g: Graph, weights: list[int]) -> tuple[int, tuple[int, ...]]:
    """A heaviest independent set of g under nonnegative integer vertex weights.

    Returns the weight and the set's vertices in increasing order; vertices
    of weight 0 are left out. The returned set is a deterministic function of
    the input.
    """
    _require_loopless(g, "maximum-weight independent set")
    if len(weights) != g.n:
        raise ValueError(f"{len(weights)} weights given for {g.n} vertices")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    from ._independent_sets import heaviest_independent_set

    return heaviest_independent_set(g, weights)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf for a forest."""
    _require_loopless(g, "girth")
    best: int | float = math.inf
    masks = g.neighbor_masks
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        frontier = [root]
        while frontier and 2 * dist[frontier[0]] < best - 1:
            nxt = []
            for u in frontier:
                m = masks[u]
                while m:
                    w = (m & -m).bit_length() - 1
                    m &= m - 1
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


def find_homomorphism(g: Graph, h: Graph) -> HomMap | None:
    """A homomorphism g -> h if one exists, else None.

    The homomorphism search with h's neighbourhoods as values: loops of h are
    valid targets, and a loop of g must land on a loop of h. The returned
    witness is a deterministic function of the input.
    """
    values = [m | 1 << w if w in h.loops else m for w, m in enumerate(h.neighbor_masks)]
    full = (1 << g.n) - 1
    unlooped = full - sum(1 << v for v in g.loops)
    holders = [full if w in h.loops else unlooped for w in range(h.n)]
    mapping = _hom_search(g.neighbor_masks, values, holders)
    return None if mapping is None else HomMap(tuple(mapping))


def is_homomorphism(g: Graph, h: Graph, hom: HomMap) -> bool:
    """Check that hom maps every edge (and loop) of g to an edge-or-loop of h."""
    if len(hom.mapping) != g.n:
        return False
    if not all(0 <= w < h.n for w in hom.mapping):
        return False
    for u, v in g.edges:
        if not h.adjacent_or_loop(hom.mapping[u], hom.mapping[v]):
            return False
    return all(hom.mapping[v] in h.loops for v in g.loops)


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets, each sorted, in lexicographic order.

    Bron-Kerbosch with pivoting on the complement adjacency, on an explicit stack.
    """
    _require_loopless(g, "independent set enumeration")
    from ._independent_sets import maximal_sets

    return maximal_sets(g)
