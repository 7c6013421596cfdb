"""Independent brute-force oracles for the test suite.

Everything here recomputes invariants by direct enumeration over the
definitions, deliberately sharing no search logic with the package solvers.
Only usable at tiny sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from prodcolor.exponential import ExpMap, is_simple
from prodcolor.graphs import Digraph, Graph


def brute_k_colorable(g: Graph, k: int) -> bool:
    """Exhaustive k-colorability by assigning vertices 0..n-1 in order."""
    assert not g.loops
    n = g.n
    edges = sorted(g.edges)

    def extend(colors: list[int]) -> bool:
        v = len(colors)
        if v == n:
            return True
        for c in range(k):
            if all(colors[u] != c for u, w in edges if w == v and u < v):
                colors.append(c)
                if extend(colors):
                    return True
                colors.pop()
        return False

    return extend([])


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if brute_k_colorable(g, k):
            return k
    raise AssertionError


def brute_independence(g: Graph) -> int:
    assert not g.loops
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return 0


def brute_max_weight_independent_set(g: Graph, weights: list[int]) -> int:
    """The largest total weight over every independent vertex subset."""
    assert not g.loops
    best = 0
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = max(best, sum(weights[v] for v in sub))
    return best


def brute_greedy_independent_set(g: Graph, weights: list[int]) -> tuple[int, tuple[int, ...]]:
    """The greedy start of the independent-set search, by rescanning: take the
    vertex with the fewest neighbours among the vertices left, the lowest on
    ties, drop it and its neighbours, and repeat until no vertex is left.
    Returns the set's weight and its vertices in increasing order."""
    assert not g.loops
    left = set(range(g.n))
    chosen = []
    while left:
        v = min(left, key=lambda u: (sum(g.has_edge(u, w) for w in left), u))
        chosen.append(v)
        left -= {v, *g.neighbors(v)}
    return sum(weights[v] for v in chosen), tuple(sorted(chosen))


def brute_has_cycle_of_length(g: Graph, length: int) -> bool:
    """Any simple cycle of exactly this length, by checking vertex tuples."""
    assert length >= 3
    for sub in combinations(range(g.n), length):
        first = sub[0]
        for perm in permutations(sub[1:]):
            ring = (first,) + perm
            if all(
                g.has_edge(ring[i], ring[(i + 1) % length]) for i in range(length)
            ):
                return True
    return False


def brute_girth(g: Graph, max_length: int | None = None) -> int | float:
    top = max_length if max_length is not None else g.n
    for length in range(3, top + 1):
        if brute_has_cycle_of_length(g, length):
            return length
    return float("inf")


def brute_homomorphism_exists(g: Graph, h: Graph) -> bool:
    """Try every map V(g) -> V(h)."""
    for mapping in product(range(h.n), repeat=g.n):
        if all(h.adjacent_or_loop(mapping[u], mapping[v]) for u, v in g.edges) and all(
            mapping[v] in h.loops for v in g.loops
        ):
            return True
    return False


def brute_exp_adjacent(base: Graph, f: tuple[int, ...], g: tuple[int, ...]) -> bool:
    """The adjacency definition spelled out directly over edges and loops."""
    for x, y in base.edges:
        if f[x] == g[y] or f[y] == g[x]:
            return False
    for x in base.loops:
        if f[x] == g[x]:
            return False
    return True


def brute_maximal_boxes(base: Graph, c: int) -> list[tuple[int, int]]:
    """Over every map f of K_c^base with a neighbour, the ⊆-minimal used
    vectors, each after the least map index that has it, in index order.

    f's used vector packs f(N(b)) at bit c*b, N(b) holding b's neighbours
    and b itself when b carries a loop; f has a neighbour iff no f(N(b)) is
    the whole palette. Map index t gives vertex v the digit (t // c**v) % c.
    """
    n, full = base.n, (1 << c) - 1
    near = [[a for a in range(n) if base.adjacent_or_loop(a, b)] for b in range(n)]
    first: dict[int, int] = {}
    for t, digits in enumerate(product(range(c), repeat=n)):
        f = digits[::-1]
        fields = [sum({1 << f[a] for a in near[b]}) for b in range(n)]
        if full not in fields:
            first.setdefault(sum(x << c * b for b, x in enumerate(fields)), t)
    return sorted(
        (t, u) for u, t in first.items() if not any(w != u and w & u == w for w in first)
    )


def simple_maps_adjacent(g: Graph, q: int, phi: ExpMap, psi: ExpMap) -> bool:
    """The simple-map adjacency characterization over the original base.

    For simple maps over blowup(g, q) with q >= 2 this equals exp_adjacent:
    per base edge xy both cross conditions, plus phi(x) != psi(x) at every
    vertex (from the intra-fiber edges).
    """
    if not (is_simple(phi, q) and is_simple(psi, q)):
        raise ValueError("characterization applies to simple maps only")
    pv = tuple(phi.values[x * q] for x in range(g.n))
    sv = tuple(psi.values[x * q] for x in range(g.n))
    for x, y in g.edges:
        if pv[x] == sv[y] or sv[x] == pv[y]:
            return False
    return all(pv[x] != sv[x] for x in range(g.n))


def brute_tensor_product(g: Graph, h: Graph) -> tuple[set[tuple[int, int]], set[int]]:
    """Edges and loops of g x h over all pairs of pair vertices (x, y) -> x * h.n + y."""

    def related(graph: Graph, a: int, b: int) -> bool:
        return b in graph.loops if a == b else (min(a, b), max(a, b)) in graph.edges

    cells = list(product(range(g.n), range(h.n)))
    edges = {
        (s, t)
        for s, t in combinations(range(len(cells)), 2)
        if related(g, cells[s][0], cells[t][0]) and related(h, cells[s][1], cells[t][1])
    }
    loops = {s for s, (x, y) in enumerate(cells) if x in g.loops and y in h.loops}
    return edges, loops


def brute_maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Filter all vertex subsets for maximal independence."""
    independent = []
    for size in range(g.n + 1):
        for sub in combinations(range(g.n), size):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                independent.append(set(sub))
    out = []
    for s in independent:
        if not any(s < t for t in independent):
            out.append(tuple(sorted(s)))
    return sorted(out)


def brute_is_automorphism(g: Graph, p: tuple[int, ...]) -> bool:
    """Does p (v -> p[v]) permute g's vertices and map the edge set and the
    loop set onto themselves?"""
    return (
        sorted(p) == list(range(g.n))
        and {frozenset((p[u], p[v])) for u, v in g.edges} == {frozenset(e) for e in g.edges}
        and {p[v] for v in g.loops} == set(g.loops)
    )


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g, by trying all n! permutations (n <= 7)."""
    assert g.n <= 7
    return [p for p in permutations(range(g.n)) if brute_is_automorphism(g, p)]


def brute_group(n: int, generators) -> set[tuple[int, ...]]:
    """Every element of the permutation group the generators span, by closure."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for s in generators:
            q = tuple(s[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def all_labelled_digraphs(n_max: int):
    """Every labelled loopless digraph on 1..n_max vertices, one per arc mask."""
    for n in range(1, n_max + 1):
        possible = [(x, y) for x in range(n) for y in range(n) if x != y]
        for mask in range(1 << len(possible)):
            arcs = [possible[i] for i in range(len(possible)) if mask >> i & 1]
            yield Digraph.from_arcs(n, arcs)


def brute_canonical_digraph(d: Digraph) -> tuple[tuple[int, int], ...]:
    """The least sorted arc tuple over all n! relabellings of d."""
    return min(
        tuple(sorted((p[x], p[y]) for x, y in d.arcs)) for p in permutations(range(d.n))
    )


class FractionTableau:
    """A dense Fraction tableau for the covering LP min sum x, A x >= b, x >= 0,
    with the pivot rules of ``prodcolor.simplex`` and none of its code.

    Variable ids: 0..ns-1 the columns, then one surplus (-e_i, cost 0) and one
    unit column (e_i, cost 1) per row. One phase minimises the total cost from
    the unit basis; ``add`` appends columns and pivots on. The entering
    variable has the least reduced cost, lowest id on ties; the leaving row
    has the lexicographically least [x_B | B^-1] row over its pivot entry.
    ``iterations`` counts pricing passes.
    """

    def __init__(self, m: int, columns: list[tuple[int, ...]], rhs: list[int]):
        self.m, self.ns, self.iterations = m, 0, 0
        # row r of the tableau: B^-1 [A | -I | I] then x_B, over Fractions
        self.rows = [
            [Fraction(-(i == r)) for i in range(m)] + [Fraction(i == r) for i in range(m)]
            + [Fraction(rhs[r])]
            for r in range(m)
        ]
        self.basis = list(range(m, 2 * m))
        self.add(columns)

    def _cost(self, j: int) -> int:
        surplus = self.ns <= j < self.ns + self.m
        return int(not surplus)

    def add(self, columns: list[tuple[int, ...]]) -> None:
        m, k = self.m, len(columns)
        for row in self.rows:  # B^-1 a for each new column, read off the unit block
            binv = row[self.ns + m : self.ns + 2 * m]
            row[self.ns : self.ns] = [sum(binv[i] for i in col) for col in columns]
        self.basis = [b + k if b >= self.ns else b for b in self.basis]
        self.ns += k
        self._run()

    def _run(self) -> None:
        m, ns = self.m, self.ns
        while True:
            self.iterations += 1
            cb = [self._cost(b) for b in self.basis]
            reduced = [
                (self._cost(j) - sum(c * row[j] for c, row in zip(cb, self.rows)), j)
                for j in range(ns + 2 * m)
            ]
            r, enter = min(reduced)
            if r >= 0:
                return
            keys = [
                ([row[-1]] + row[ns + m : ns + 2 * m], row[enter], i)
                for i, row in enumerate(self.rows)
                if row[enter] > 0
            ]
            _, leave = min(([v / piv for v in key], i) for key, piv, i in keys)
            pivot_row = [v / self.rows[leave][enter] for v in self.rows[leave]]
            self.rows = [
                pivot_row if i == leave else [v - row[enter] * p for v, p in zip(row, pivot_row)]
                for i, row in enumerate(self.rows)
            ]
            self.basis[leave] = enter

    def primal(self) -> dict[int, Fraction]:
        """The nonzero weights of the basic columns and unit columns."""
        return {b: row[-1] for b, row in zip(self.basis, self.rows) if self._cost(b) and row[-1]}

    def dual(self) -> list[Fraction]:
        """y = c_B B^-1."""
        ns, m = self.ns, self.m
        cb = [self._cost(b) for b in self.basis]
        return [sum(c * row[ns + m + i] for c, row in zip(cb, self.rows)) for i in range(m)]


# A per-vertex-domain homomorphism search with a DSATUR scan, kept as the
# reference that solvers._hom_search must match witness for witness.
def reference_hom_search(nbrs: tuple[int, ...], values: list[int], domains: list[int]) -> list[int] | None:
    """A map v -> image[v] in domains[v] sending each edge uv to values c, d
    with d in values[c], or None if there is none.

    nbrs are the source's neighbour masks; values[c] holds c's neighbours in
    the target, plus c itself when c has a loop. Depth-first on an explicit
    stack: the vertex with the fewest values left goes first (then higher
    degree, then lower index: DSATUR order), its values are tried lowest first,
    each choice narrows its neighbours' domains (forward checking), and
    vertices left with one value are placed first in, first out.

    Symmetry breaking comes from the target: values x and w are twins when
    (values[x] ^ values[w]) & ~(bit x | bit w) == 0 and both or neither has a
    loop. Swapping two twins is an automorphism of the target and twinship is
    an equivalence, so a branch tries the used values and only the lowest
    unused value of each twin class. This is complete only if every initial
    domain that is not a single value is a union of whole twin classes;
    single values are placed before the first branch.
    """
    if not all(domains):
        return None
    # twins share their open (nonadjacent twins) or closed (adjacent twins) neighbourhood
    groups: dict[tuple[int, int], int] = {}
    for w, vw in enumerate(values):
        bit, loop = 1 << w, vw >> w & 1
        for key in ((vw & ~bit, loop), (vw | bit, loop)):
            groups[key] = groups.get(key, 0) | bit
    twin_classes = [m for m in groups.values() if m & (m - 1)]
    untwinned = (1 << len(values)) - 1 - sum(twin_classes)
    negdeg = [-m.bit_count() for m in nbrs]
    image = [-1] * len(nbrs)
    dom = list(domains)
    left = set(range(len(nbrs)))
    trail: list[tuple[int, int]] = []  # (u, its domain before) or (v, -1) for a placement
    used = 0

    def settle(queue: list[int]) -> bool:
        # place each queued vertex on its one value; the queue grows as domains collapse
        nonlocal used
        for v in queue:
            bit = dom[v]
            c = bit.bit_length() - 1
            image[v] = c
            left.discard(v)
            trail.append((v, -1))
            used |= bit
            allow = values[c]
            m = nbrs[v]
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                if image[u] == -1:
                    d = dom[u]
                    nd = d & allow
                    if nd != d:
                        if not nd:
                            return False
                        trail.append((u, d))
                        dom[u] = nd
                        if nd & (nd - 1) == 0:
                            queue.append(u)
        return True

    if not settle([v for v, d in enumerate(dom) if d & (d - 1) == 0]):
        return None
    stack: list[list[int]] = []  # [vertex, values left to try, trail length, used]
    while left:
        v = min(left, key=lambda u: (dom[u].bit_count(), negdeg[u], u))
        allow = untwinned | used
        for m in twin_classes:
            m &= ~used
            allow |= m & -m
        stack.append([v, dom[v] & allow, len(trail), used])
        while stack:  # try the top frame's next value; an exhausted frame is popped
            frame = stack[-1]
            v, cand, mark, used = frame
            while len(trail) > mark:
                u, d = trail.pop()
                if d < 0:
                    image[u] = -1
                    left.add(u)
                else:
                    dom[u] = d
            if not cand:
                stack.pop()
                continue
            bit = cand & -cand
            frame[1] = cand ^ bit
            trail.append((v, dom[v]))
            dom[v] = bit
            if settle([v]):
                break
        else:
            return None
    return image
