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
from collections.abc import Sequence
from functools import lru_cache

from ._graph import Coloring, Graph, HomMap, _bit_counts  # re-exported: the records' public home


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
    return _greedy_clique(g.neighbor_masks)


def _greedy_clique(masks: Sequence[int]) -> list[int]:
    order = sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v))
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
    its value. Depth-first in DSATUR order (fewest values, counted over the
    holders by _bit_counts, then higher degree, then lower index), values
    lowest first, with forward checking: the unplaced vertices left with one
    value are placed as a batch, whose vertices on c leave holders[d] for each
    d outside values[c]. Swapping twin values is an automorphism of the
    target, so a branch tries the used values and only the lowest unused value
    of each twin class: complete only if each initial domain that is not a
    single value is a union of whole twin classes.
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
            fewest = left
            for plane in reversed(_bit_counts(holders)):  # narrow to the fewest values
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
    colors = _k_coloring(g.neighbor_masks, k, greedy_clique(g))
    return None if colors is None else Coloring(tuple(colors), k)


def _k_coloring(masks: Sequence[int], k: int, clique: list[int]) -> list[int] | None:
    """k_colorable's search on the graph with these neighbour masks and clique."""
    if len(clique) > k:
        return None
    rest = (1 << len(masks)) - 1 - sum(1 << v for v in clique)
    holders = [rest | 1 << v for v in clique] + [rest] * (k - len(clique))
    return _hom_search(masks, [((1 << k) - 1) ^ (1 << c) for c in range(k)], holders)


def _core_input(g: Graph) -> tuple[list[int], list[list[int]]]:
    """The vertices of g with an edge, in increasing order, and the neighbour
    lists of the graph they induce, relabeled in that order. Each list is in
    increasing order, so the peeling order is a function of g's value."""
    touched = sorted(set().union(*g.edges))
    index = {v: i for i, v in enumerate(touched)}
    adjacency: list[list[int]] = [[] for _ in touched]
    for u, v in g.edges:
        u, v = index[u], index[v]
        adjacency[u].append(v)
        adjacency[v].append(u)
    for nbrs in adjacency:
        nbrs.sort()
    return touched, adjacency


def _core_components(adjacency: list[list[int]], k: int) -> tuple[list, list]:
    """The vertices peeled off to reach the k-core of the graph with these
    neighbour lists, in peeling order (each has fewer than k neighbours in
    the core or later in the order), and the connected components of the
    core: each as its vertices in increasing order, the neighbour masks of
    the graph they induce, relabeled in that order, and that graph's greedy
    clique."""
    n = len(adjacency)
    degree = [len(nbrs) for nbrs in adjacency]
    alive = [d >= k for d in degree]
    peeled = [v for v in range(n) if not alive[v]]
    for v in peeled:  # grows while it is scanned
        for u in adjacency[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] < k:
                    alive[u] = False
                    peeled.append(u)
    # a core vertex's bit in its component's masks, 0 when peeled: a core
    # vertex's neighbours are peeled or in its own component
    bit = [0] * n
    parts = []
    for root in range(n):
        if not alive[root]:
            continue
        alive[root] = False
        component = [root]
        for v in component:  # grows while it is scanned: breadth-first search
            for u in adjacency[v]:
                if alive[u]:
                    alive[u] = False
                    component.append(u)
        component.sort()
        for i, v in enumerate(component):
            bit[v] = 1 << i
        part = [sum(map(bit.__getitem__, adjacency[v])) for v in component]
        parts.append((component, part, _greedy_clique(part)))
    return peeled, parts


def _chromatic_search(adjacency: list[list[int]]) -> tuple[int, list, list]:
    """chromatic_number's search on a graph with edges: chi, the vertices
    peeled off to reach the chi-core, and each vertex's color in a
    chi-coloring of that core (-1 for the peeled vertices)."""
    core = _core_components(adjacency, 2)
    k = max([2] + [len(clique) for _, _, clique in core[1]])
    while True:
        peeled, parts = core if k == 2 else _core_components(adjacency, k)
        colors = [-1] * len(adjacency)
        for vertices, part, clique in parts:
            part_colors = _k_coloring(part, k, clique)
            if part_colors is None:
                break
            for v, c in zip(vertices, part_colors):
                colors[v] = c
        else:
            return k, peeled, colors
        k += 1


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterative deepening over k-cores.

    g is k-colorable iff its k-core is: a vertex of degree below k takes a
    color its neighbours leave free, so the peeled vertices are colored last,
    in reverse peeling order. For each k the search therefore runs
    k_colorable's search on each connected component of the k-core only
    (Matula-Beck 1983). k starts at the largest greedy clique of the 2-core's
    components, whose split also serves k = 2, and the first k at which every
    component is k-colorable is the answer. Every core is peeled from one set
    of neighbour lists, in increasing order, over the vertices with an edge
    (the others take color 0). optimal_coloring runs the same search.
    """
    _require_loopless(g, "chromatic number")
    if not g.edges:
        return min(g.n, 1)
    return _chromatic_search(_core_input(g)[1])[0]


def optimal_coloring(g: Graph) -> Coloring:
    """A proper coloring of g with chi(g) colors, so its k is chi(g).

    Isolated vertices take color 0. The search of chromatic_number leaves a
    chi-coloring of the chi-core of the other vertices; each peeled vertex,
    in reverse peeling order, then takes the lowest color its colored
    neighbours leave free, and one is always free. The coloring is a function
    of g's value: equal graphs get equal colorings, whatever order their
    edges were given in.
    """
    _require_loopless(g, "optimal coloring")
    if not g.edges:
        return Coloring((0,) * g.n, min(g.n, 1))
    touched, adjacency = _core_input(g)
    k, peeled, colors = _chromatic_search(adjacency)
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

    The empty graph has one, the empty set, so it gives [()]. Bron-Kerbosch
    with pivoting on the complement adjacency, on an explicit stack.
    """
    _require_loopless(g, "independent set enumeration")
    from ._independent_sets import maximal_sets

    return maximal_sets(g)
