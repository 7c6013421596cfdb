"""The independent-set searches behind ``solvers`` and ``fractional``.

One weighted branch and bound, heaviest_independent_set, serves
independence_number (unit weights), max_weight_independent_set and the
pricing of the fractional chromatic LP (the dual prices as weights). It
indexes each component's vertices by decreasing weight and equal weights by
increasing degree, starts from a greedy set picked on vertex masks bucketed
by remaining degree, and branches on one vertex at a time; pricing may hand
it the root's children, found by orbital branching in ``fractional``.
maximal_sets enumerates the maximal independent sets. Both run on an
explicit stack.

The public functions stay in ``solvers``, which imports this module on
their first call, so a stage that never asks for an independent set does
not compile it.
"""

from __future__ import annotations

from collections.abc import Callable

from ._graph import Graph, _bits


def heaviest_independent_set(
    g: Graph,
    weights: list[int],
    roots: Callable[[int, list[int]], list[tuple[int, int]]] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """The one independent-set search behind alpha and LP pricing.

    Vertices of weight 0 never enter the pool. The maximum adds up over the
    connected components of the graph the positive vertices induce: a
    component of one vertex is taken, and every other one is searched on its
    own by branch and bound, with its vertices relabeled by decreasing weight,
    equal weights by increasing degree in g, then lower vertex first. Degrees
    are taken in g, so on a regular graph the order is by weight alone.

    roots, from LP pricing, maps a component's mask and its vertices in that
    order to the root's children, as (taken, candidates) masks of g, found
    by orbital branching over the component's stabiliser (see
    ``fractional._orbital_roots``). Returns the weight and the set's
    vertices in increasing order.
    """
    masks = g.neighbor_masks
    n = g.n
    pool = sum(1 << v for v, w in enumerate(weights) if w)
    total = 0
    chosen: list[int] = []
    while pool:
        comp = frontier = pool & -pool
        while frontier:  # breadth-first search on masks
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= masks[low.bit_length() - 1]
            frontier = reach & pool & ~comp
            comp |= frontier
        pool &= ~comp
        if not comp & (comp - 1):
            total += weights[comp.bit_length() - 1]
            chosen.append(comp.bit_length() - 1)
            continue
        # a degree is below n, so this key orders by weight, then degree; sorted is stable
        verts = sorted(_bits(comp), key=lambda v: masks[v].bit_count() - weights[v] * n)
        # relabel in one pass: each edge is met once, from its later end
        index: dict[int, int] = {}
        local: list[int] = []
        placed = 0
        for i, v in enumerate(verts):
            bit, own, m = 1 << i, 0, masks[v] & placed
            while m:
                low = m & -m
                m ^= low
                j = index[low.bit_length() - 1]
                local[j] |= bit
                own |= 1 << j
            local.append(own)
            index[v] = i
            placed |= 1 << v
        starts = [
            (_relabel(p, index), sum(weights[v] for v in _bits(t)), _relabel(t, index))
            for t, p in (roots(comp, verts) if roots else ())
        ]
        weight, taken = _independence_search(local, [weights[v] for v in verts], starts)
        total += weight
        chosen += (verts[i] for i in _bits(taken))
    return total, tuple(sorted(chosen))


def _relabel(m: int, index: dict[int, int]) -> int:
    """The mask m with each vertex v moved to bit index[v]."""
    return sum(1 << index[v] for v in _bits(m))


def _greedy_independent_set(masks: list[int], weights: list[int]) -> tuple[int, int]:
    """(weight, bitmask) of a maximal independent set taken greedily.

    The vertex taken next has the fewest remaining neighbours, ties going to
    the lowest index; it leaves with its neighbours. buckets[d] masks the
    vertices left with d remaining neighbours: a pick takes the lowest bit of
    the lowest nonempty bucket, and a degree drop moves a bit down, so the
    greedy is near-linear in the number of edges.
    """
    left = (1 << len(masks)) - 1
    buckets = [0] * (max(map(int.bit_count, masks), default=0) + 1)
    for v, m in enumerate(masks):
        buckets[m.bit_count()] |= 1 << v
    low = weight = taken = 0
    while left:
        while not buckets[low]:
            low += 1
        bit = buckets[low] & -buckets[low]
        v = bit.bit_length() - 1
        weight += weights[v]
        taken |= bit
        gone = bit | masks[v] & left
        m, reach = gone, 0  # reach: the neighbours of the vertices gone
        while m:
            ubit = m & -m
            m ^= ubit
            nbrs = masks[ubit.bit_length() - 1]
            reach |= nbrs
            buckets[(nbrs & left).bit_count()] ^= ubit
        was, left = left, left ^ gone
        m = reach & left
        while m:  # each vertex left that lost a neighbour moves down
            xbit = m & -m
            m ^= xbit
            nbrs = masks[xbit.bit_length() - 1]
            d = (nbrs & left).bit_count()
            buckets[(nbrs & was).bit_count()] ^= xbit
            buckets[d] |= xbit
            if d < low:
                low = d
    return weight, taken


def _independence_search(
    masks: list[int], weights: list[int], starts: list[tuple[int, int, int]]
) -> tuple[int, int]:
    """(weight, bitmask) of a heaviest independent set, by branch and bound.

    The vertices are indexed by nonincreasing positive weight. Depth-first on
    an explicit stack from the greedy start; a node is pruned when its bound,
    the weight taken plus the heaviest weight of each class of a greedy
    clique cover of the candidates, does not beat the best set found. Unit
    weights make that bound the number of cliques. A node not pruned branches
    on one vertex, taken or left out, except that the root, given starts
    (candidates, weight taken, set taken), branches into those: some heaviest
    set must lie below one of them.
    """
    best, best_set = _greedy_independent_set(masks, weights)
    stack = [((1 << len(masks)) - 1, 0, 0)]  # (candidates, weight taken, set taken)
    while stack:
        p, weight, taken = stack.pop()
        if not p:
            if weight > best:
                best, best_set = weight, taken
            continue
        # no candidate is heavier than the lowest-indexed one
        if weight + p.bit_count() * weights[(p & -p).bit_length() - 1] <= best:
            continue
        # independent sets meet each clique at most once: cover the candidates
        # by greedy cliques, each grown from the lowest candidate left by
        # adding the lowest one adjacent to all of it, so its first vertex is
        # its heaviest. That is first-fit in index order, at one mask step per
        # vertex; the node is kept as soon as the bound passes best.
        bound = weight
        q = p
        while q and bound <= best:
            low = q & -q
            q ^= low
            v = low.bit_length() - 1
            bound += weights[v]
            common = q & masks[v]
            while common:
                low = common & -common
                q ^= low
                common &= masks[low.bit_length() - 1]
        if bound <= best:
            continue
        if starts:  # the root's children, the first popped first
            stack += starts[::-1]
            starts = []
            continue
        # branch on the highest-degree candidate: "take v" is popped first
        m, v, bd = p, -1, -1
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (masks[u] & p).bit_count()
            if d > bd:
                v, bd = u, d
        bit = 1 << v
        stack.append((p & ~bit, weight, taken))
        stack.append((p & ~(masks[v] | bit), weight + weights[v], taken | bit))
    return best, best_set


def maximal_sets(g: Graph) -> list[tuple[int, ...]]:
    """The body of ``solvers.maximal_independent_sets``, for a loopless g."""
    n = g.n
    masks = g.neighbor_masks
    fullmask = (1 << n) - 1
    compat = [fullmask & ~masks[v] & ~(1 << v) for v in range(n)]
    sets: list[tuple[int, ...]] = []
    stack = [(0, fullmask, 0)]  # (set, candidates, excluded)
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            sets.append(tuple(_bits(r)))
            continue
        pux = p | x
        pivot, bestdeg = -1, -1
        m = pux
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (p & compat[u]).bit_count()
            if d > bestdeg:
                pivot, bestdeg = u, d
        # the children in reverse, so the lowest is popped first; each child
        # moves the branch vertices below it from the candidates to the excluded
        m = p & ~compat[pivot]
        while m:
            v = m.bit_length() - 1
            bit = 1 << v
            m ^= bit
            stack.append((r | bit, p & ~m & compat[v], (x | m) & compat[v]))
    sets.sort()
    return sets
