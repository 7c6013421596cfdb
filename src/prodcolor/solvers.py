"""Exact graph invariants: coloring, independence, girth, and homomorphisms.

All solvers are deterministic pure functions of their (immutable) inputs:
fixed branching orders, no randomness. They are sized for desk-scale
instances (hundreds of vertices), not for competitive benchmarks.

Coloring-type invariants are undefined on graphs with loops and reject them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class Coloring:
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


@dataclass(frozen=True)
class HomMap:
    """A vertex map witnessing a homomorphism (edges map to edges-or-loops)."""

    mapping: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.mapping[v]


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


def k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper k-coloring of g if one exists, else None.

    Backtracking search: most-saturated vertex first, lowest color first,
    greedy-clique pre-coloring as seed and lower bound, forward checking with
    unit propagation, and fresh colors introduced in canonical order. The
    returned witness is a deterministic function of the input.
    """
    _require_loopless(g, "k-colorability")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = g.n
    if n == 0:
        return Coloring((), k)
    if k == 0:
        return None
    masks = g.neighbor_masks
    clique = greedy_clique(g)
    if len(clique) > k:
        return None

    full = (1 << k) - 1
    colors = [-1] * n
    avail = [full] * n
    uncolored = set(range(n))
    state = {"max_used": -1}

    def assign(v: int, c: int, trail: list, forced: list[int]) -> bool:
        colors[v] = c
        uncolored.discard(v)
        trail.append((-1, v, state["max_used"]))
        if c > state["max_used"]:
            state["max_used"] = c
        bit = 1 << c
        m = masks[v]
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            if colors[u] == -1 and avail[u] & bit:
                avail[u] ^= bit
                trail.append((u, bit, 0))
                a = avail[u]
                if a == 0:
                    return False
                if a & (a - 1) == 0:
                    forced.append(u)
        return True

    def undo(trail: list) -> None:
        while trail:
            tag, a, b = trail.pop()
            if tag == -1:
                colors[a] = -1
                uncolored.add(a)
                state["max_used"] = b
            else:
                avail[tag] |= a

    def propagate(trail: list, forced: list[int]) -> bool:
        # assign vertices whose domain collapsed to a single color
        while forced:
            u = forced.pop(0)
            if colors[u] != -1:
                continue
            c = avail[u].bit_length() - 1
            if not assign(u, c, trail, forced):
                return False
        return True

    def solve() -> bool:
        if not uncolored:
            return True
        v = min(
            uncolored,
            key=lambda u: (avail[u].bit_count(), -masks[u].bit_count(), u),
        )
        cap = min(k - 1, state["max_used"] + 1)
        a = avail[v] & ((1 << (cap + 1)) - 1)
        while a:
            bit = a & -a
            a ^= bit
            trail: list = []
            forced: list[int] = []
            if (
                assign(v, bit.bit_length() - 1, trail, forced)
                and propagate(trail, forced)
                and solve()
            ):
                return True
            undo(trail)
        return False

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * n + 1000))
    trail0: list = []
    forced0: list[int] = []
    for i, v in enumerate(clique[:k]):
        if not assign(v, i, trail0, forced0):
            return None
    if not propagate(trail0, forced0):
        return None
    if solve():
        return Coloring(tuple(colors), k)
    return None


def _core_components(g: Graph, adjacency: list[list[int]], k: int) -> list[Graph]:
    """The connected components of the k-core of g, each relabeled in vertex order.

    Vertices of degree below k are peeled off until none is left; g itself
    stands for a core that is all of g and connected.
    """
    degree = [len(nbrs) for nbrs in adjacency]
    alive = [d >= k for d in degree]
    peel = [v for v in range(g.n) if not alive[v]]
    while peel:
        for u in adjacency[peel.pop()]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] < k:
                    alive[u] = False
                    peel.append(u)
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
            return [g]
        component.sort()
        index = {v: i for i, v in enumerate(component)}
        edges = frozenset(
            (index[v], index[u]) for v in component for u in adjacency[v] if v < u and u in index
        )
        parts.append(Graph(len(component), edges))
    return parts


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterative deepening over k-cores.

    g is k-colorable iff its k-core is: a vertex of degree below k takes a
    color its neighbours leave free, so the peeled vertices are colored last,
    in reverse peeling order. For each k the search therefore runs
    k_colorable on each connected component of the k-core only (Matula-Beck
    1983). k starts at the largest greedy clique found in the components of
    the 2-core, and the first k at which every component is k-colorable is
    the answer.
    """
    _require_loopless(g, "chromatic number")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    k = max([2] + [len(greedy_clique(part)) for part in _core_components(g, adjacency, 2)])
    while not all(k_colorable(part, k) is not None for part in _core_components(g, adjacency, k)):
        k += 1
    return k


def independence_number(g: Graph) -> int:
    """Exact size of a largest independent set (branch and bound)."""
    _require_loopless(g, "independence number")
    n = g.n
    masks = g.neighbor_masks
    # isolated vertices belong to every maximum independent set: count them
    # and search only the other vertices
    isolated = masks.count(0)
    rest = 0
    for v, mk in enumerate(masks):
        if mk:
            rest |= 1 << v

    # greedy start: repeatedly take the lowest-degree remaining vertex
    best = 0
    pool = rest
    while pool:
        m, v, vd = pool, -1, n
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (masks[u] & pool).bit_count()
            if d < vd:
                v, vd = u, d
        best += 1
        pool &= ~(masks[v] | (1 << v))

    def clique_cover_bound(p: int) -> int:
        # independent sets meet each clique at most once
        cliques_masks: list[int] = []
        m = p
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            for i, cm in enumerate(cliques_masks):
                if cm & ~masks[v] == 0:
                    cliques_masks[i] = cm | (1 << v)
                    break
            else:
                cliques_masks.append(1 << v)
        return len(cliques_masks)

    best_found = best

    def expand(p: int, size: int) -> None:
        nonlocal best_found
        cnt = p.bit_count()
        if size + cnt <= best_found:
            return
        if cnt == 0:
            best_found = size
            return
        if size + clique_cover_bound(p) <= best_found:
            return
        # branch on the highest-degree candidate
        m, v, bd = p, -1, -1
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (masks[u] & p).bit_count()
            if d > bd:
                v, bd = u, d
        expand(p & ~(masks[v] | (1 << v)), size + 1)
        expand(p & ~(1 << v), size)

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * n + 1000))
    expand(rest, 0)
    return isolated + best_found


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

    Backtracking over vertices of g in degree-descending order; targets tried
    in index order. Loops of h are valid targets, and a loop of g must land on
    a loop of h.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    mapping = [-1] * n

    def ok(v: int, w: int) -> bool:
        if v in g.loops and w not in h.loops:
            return False
        for u in g.neighbors(v):
            if mapping[u] != -1 and not h.adjacent_or_loop(w, mapping[u]):
                return False
        return True

    def solve(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(h.n):
            if ok(v, w):
                mapping[v] = w
                if solve(i + 1):
                    return True
                mapping[v] = -1
        return False

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * n + 1000))
    if solve(0):
        return HomMap(tuple(mapping))
    return None


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


def compose(first: HomMap, then: HomMap) -> HomMap:
    """The composite map v -> then(first(v))."""
    return HomMap(tuple(then.mapping[w] for w in first.mapping))


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets, each sorted, in lexicographic order.

    Bron-Kerbosch with pivoting on the complement adjacency.
    """
    _require_loopless(g, "independent set enumeration")
    n = g.n
    if n == 0:
        return []
    masks = g.neighbor_masks
    fullmask = (1 << n) - 1
    compat = [fullmask & ~masks[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pux = p | x
        pivot, bestdeg = -1, -1
        m = pux
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            d = (p & compat[u]).bit_count()
            if d > bestdeg:
                pivot, bestdeg = u, d
        m = p & ~compat[pivot]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            bit = 1 << v
            bk(r | bit, p & compat[v], x & compat[v])
            p &= ~bit
            x |= bit

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 3 * n + 1000))
    bk(0, fullmask, 0)
    sets = [tuple(v for v in range(n) if s >> v & 1) for s in out]
    sets.sort()
    return sets
