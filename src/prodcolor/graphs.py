"""Graph generators, the named catalog, products, and basic operators.

Vertices and colors are 0-based everywhere. Pair-vertex constructions
(products, blow-ups) use row-major indexing, so structural identities can be
checked as equalities on labels instead of isomorphism searches. The value
types ``Graph`` and ``Digraph`` are defined in ``_graph`` and re-exported here.
"""

from __future__ import annotations

import math
from itertools import combinations

from ._graph import Digraph, Graph  # re-exported: the value types' public home


# ---------------------------------------------------------------------------
# generators


def complete_graph(n: int) -> Graph:
    """K_n: all pairs adjacent, no loops."""
    if n < 1:
        raise ValueError(f"complete_graph needs n >= 1, got {n}")
    return Graph.from_edges(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    """C_n: vertices 0..n-1 with i adjacent to i+1 mod n."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def kneser_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of {0..m-1} in lexicographic order: the Kneser vertex labels."""
    return list(combinations(range(m), k))


def kneser(m: int, k: int) -> Graph:
    """Kneser graph K(m, k): k-subsets of an m-set, adjacent iff disjoint."""
    if k < 1 or m < 2 * k:
        raise ValueError(f"kneser needs m >= 2k >= 2, got m={m}, k={k}")
    subsets = kneser_subsets(m, k)
    index = {s: i for i, s in enumerate(subsets)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(subsets, 2)
        if not set(a) & set(b)
    ]
    return Graph.from_edges(len(subsets), edges)


def circular_clique(p: int, q: int) -> Graph:
    """K_{p/q}: vertices 0..p-1 with i ~ j iff q <= |i-j| <= p-q."""
    if q < 1 or p < 2 * q:
        raise ValueError(f"circular_clique needs p >= 2q >= 2, got p={p}, q={q}")
    edges = [
        (i, j) for i, j in combinations(range(p), 2) if q <= j - i <= p - q
    ]
    return Graph.from_edges(p, edges)


def _heawood() -> Graph:
    # Incidence graph of the Fano plane: points 0..6, lines 7..13, where
    # line j contains points {j, j+1, j+3} mod 7. Girth 6, 3-regular.
    edges = []
    for j in range(7):
        for p in (j, (j + 1) % 7, (j + 3) % 7):
            edges.append((p, 7 + j))
    return Graph.from_edges(14, edges)


def _petersen() -> Graph:
    # Outer cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def _w5() -> Graph:
    # 5-wheel: rim cycle 0..4 plus hub 5.
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
    return Graph.from_edges(6, edges)


def _grotzsch() -> Graph:
    # Mycielskian of C5: rim 0..4, shadow vertices 5..9 (5+i adjacent to the
    # rim neighbors of i), apex 10 adjacent to every shadow vertex.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    for i in range(5):
        edges.append((5 + i, (i + 1) % 5))
        edges.append((5 + i, (i - 1) % 5))
        edges.append((5 + i, 10))
    return Graph.from_edges(11, edges)


CATALOG = {
    "heawood": _heawood,
    "petersen": _petersen,
    "w5": _w5,
    "grotzsch": _grotzsch,
}


_FAMILIES = {"k": complete_graph, "c": cycle}


def named(identifier: str) -> Graph:
    """A catalog graph with fixed, documented vertex numbering.

    Besides the CATALOG entries, ``k<n>`` is complete_graph(n) and ``c<n>``
    is cycle(n), with n in canonical ASCII decimal (no sign, no leading zero).
    """
    if identifier in CATALOG:
        return CATALOG[identifier]()
    family, digits = _FAMILIES.get(identifier[:1]), identifier[1:]
    if family and digits.isascii() and digits.isdigit() and str(int(digits)) == digits:
        return family(int(digits))
    known = ", ".join(sorted(CATALOG))
    raise ValueError(f"unknown catalog graph {identifier!r} (known: {known}, k<n>, c<n>)")


# ---------------------------------------------------------------------------
# products and vertex operations


def pair_index(x: int, y: int, n2: int) -> int:
    """Row-major index of pair vertex (x, y) when the second factor has n2 vertices."""
    return x * n2 + y


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Categorical product: (x,y) ~ (x',y') iff both coordinates are adjacent.

    Loops participate: a loop at x lets x pair with itself in the first
    coordinate. The product has a loop at (x, y) iff both x and y carry loops.
    """
    n2 = h.n
    g_pairs = list(g.edges) + [(v, v) for v in g.loops]
    h_pairs = list(h.edges) + [(v, v) for v in h.loops]
    # pair vertex (x, y) is x * n2 + y (row-major); reversing both factor
    # pairs gives the same two edges again
    edges = frozenset(
        (p, q) if p < q else (q, p)
        for x, xp in g_pairs
        for y, yp in h_pairs
        for p, q in ((x * n2 + y, xp * n2 + yp), (x * n2 + yp, xp * n2 + y))
        if p != q
    )
    loops = frozenset(x * n2 + y for x in g.loops for y in h.loops)
    return Graph._built(g.n * h.n, edges, loops)


def _product_generators(
    g_gens: tuple[tuple[int, ...], ...], n1: int, h_gens: tuple[tuple[int, ...], ...], n2: int
) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of an n1 x n2 tensor product from automorphisms of its
    factors: (x, y) -> (p[x], y) for each p of g and (x, y) -> (x, s[y]) for
    each s of h."""
    pairs = [(x, y) for x in range(n1) for y in range(n2)]
    return tuple(tuple(pair_index(p[x], y, n2) for x, y in pairs) for p in g_gens) + tuple(
        tuple(pair_index(x, s[y], n2) for x, y in pairs) for s in h_gens
    )


def blowup(g: Graph, q: int) -> Graph:
    """G[K_q]: every vertex becomes a q-clique; copies of adjacent vertices are joined."""
    if q < 1:
        raise ValueError(f"blowup needs q >= 1, got {q}")
    if g.loops:
        raise ValueError("blowup requires a loopless graph")
    # x < y puts every copy of x below every copy of y
    edges = {(x * q + i, y * q + j) for x, y in g.edges for i in range(q) for j in range(q)}
    edges.update((x * q + i, x * q + j) for x in range(g.n) for i, j in combinations(range(q), 2))
    return Graph._built(g.n * q, frozenset(edges), frozenset())


def add_loops(g: Graph) -> Graph:
    """The reflexive closure: same edges, a loop at every vertex."""
    return Graph._built(g.n, g.edges, frozenset(range(g.n)))


def distances(g: Graph, v: int) -> list[int | float]:
    """BFS distances from v; unreachable vertices get math.inf. Loops are ignored."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    dist: list[int | float] = [math.inf] * g.n
    dist[v] = 0
    frontier = [v]
    d = 0
    masks = g.neighbor_masks
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            m = masks[u]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if math.isinf(dist[w]):
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# digraph operators


def complete_digraph(n: int) -> Digraph:
    """All n(n-1) ordered pairs of distinct vertices."""
    if n < 1:
        raise ValueError(f"complete_digraph needs n >= 1, got {n}")
    return Digraph._built(n, frozenset((x, y) for x in range(n) for y in range(n) if x != y))


def digraph_product(d1: Digraph, d2: Digraph) -> Digraph:
    """Arc ((x,y), (x',y')) iff (x,x') and (y,y') are arcs; pair vertices row-major."""
    n2 = d2.n
    arcs = frozenset(
        (pair_index(x, y, n2), pair_index(xp, yp, n2))
        for x, xp in d1.arcs
        for y, yp in d2.arcs
    )
    return Digraph._built(d1.n * d2.n, arcs)


def reverse(d: Digraph) -> Digraph:
    """Reverse the direction of every arc."""
    return Digraph._built(d.n, frozenset((y, x) for x, y in d.arcs))


def underline(d: Digraph) -> Graph:
    """Forget orientation: each arc (and each digon) becomes a single edge."""
    # a Digraph has no self-arc
    return Graph._built(
        d.n, frozenset({(x, y) if x < y else (y, x) for x, y in d.arcs}), frozenset()
    )
