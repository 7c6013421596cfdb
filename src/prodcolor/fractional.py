"""Exact fractional chromatic number via the independent-set covering LP.

chi_f(G) is the optimum of: minimize total weight over independent sets
such that every vertex is covered with weight >= 1. The sets are not listed
up front but generated (Mehrotra-Trick 1996). The restricted master LP's
columns are the classes of a first-fit coloring in vertex order, each
extended to a maximal set (so the only search is the pricing one), the
priced sets, and the simplex's unit columns, each the singleton of the least
vertex of its row's orbit. Each round
prices the master's integer duals den * y with one exact maximum-weight
independent-set search: a set whose duals sum to more than den would lower
the objective, so the heaviest set, extended to a maximal one, is appended
and the simplex continues from its current basis. Generation stops when the
search proves that no independent set weighs more than den.

Symmetry reduction (Margot 2010; Bodi-Herr-Joswig 2013). Given permutations
that are checked to be automorphisms, let Gamma be the group they generate;
union-find over the generators gives its vertex orbits. The caller gives
the generators, or () for none; by default ``symmetry`` finds them by
individualization-refinement. That search may drop a candidate that runs out
of nodes and then spans only a subgroup of Aut(G). The argument below needs
only that Gamma is a group of automorphisms, so the value is exact for every
such Gamma; a smaller one only costs more rows. The master keeps one
row per orbit O, sum_S w_S |S & O| >= |O|, instead of one row per vertex.
Without generators every orbit is a single vertex, and this is the LP above.
The reduced LP sums the vertex rows over each orbit, so its optimum is at
most chi_f. It is attained because Gamma permutes independent sets:
averaging a reduced solution over Gamma, each set S spread over its images
gS at weight w_S / |Gamma|, covers every vertex v of O with
sum_S w_S |S & O| / |O| >= 1, at the same total weight. That step is why
every generator must be an automorphism; the vertex classes of colour
refinement, say, are no orbits, and on C6 plus two triangles they would give
12/5 for chi_f = 3. Pricing gives each vertex of O the weight den * y_O.

Pricing uses the group too (orbital branching; Ostrowski-Linderoth-Rossi-
Smriglio 2011, Margot 2010). The weights are constant on orbits, so Gamma
maps a heaviest set to a heaviest set, and the search starts from one
branch per orbit of each component's stabiliser in Gamma. Generators
that ``symmetry`` found carry levels: those of level d or more fix the first
d vertices of its first path and span a group of their own, so a branch
that takes such a vertex branches again over that group's orbits.

The value is exact and certified without trusting the pivoting path
(Held-Cook-Sewell 2012, here in integer arithmetic), each part checked once:
the primal witness covers every orbit row, the duals are nonnegative, the
last search is the proof that they form a feasible fractional clique, and
``CoverLp.solution`` checks that both sides have the LP's value. Each
generator is checked once: ``symmetry`` checks those it finds as it finds
them, given ones are checked here before the LP, and the final cover check
reuses their orbits. The proof holds up to Gamma: the last
search ran with the lifted weights y_v = y_O(v), but its branches reach each
independent set only through an image under Gamma. So it proves that no
independent set of G weighs more than 1 because every generator passed the
_is_automorphism check, and each level's group was checked to fix the base
vertex before it. Then sum_v y_v = sum_O |O| y_O is the value. Without
generators the last search ran on the full graph with no symmetry.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from ._graph import Graph
from ._independent_sets import heaviest_independent_set
from ._record import Record
from .errors import DEFAULT_MAX_LP_VERTICES, CapExceeded
from .simplex import add_covering_columns, open_covering_lp
from .symmetry import _is_automorphism, _leveled_generators, _orbits


class FractionalColoring(Record):
    """Nonnegative rational weights on independent sets covering every vertex.

    With ``generators``, the coloring is the average of these weights over
    the group the generators span: each orbit O needs sum_S w_S |S & O| >= |O|
    rather than each vertex weight >= 1. Without them every orbit is one
    vertex.
    """

    sets: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if len(self.sets) != len(self.weights):
            raise ValueError("sets and weights must have equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    @property
    def value(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def covers(self, g: Graph) -> bool:
        """Every generator an automorphism of g, every listed set an
        independent set of g's unlooped vertices, and every orbit row satisfied."""
        if not all(_is_automorphism(g, p) for p in self.generators):
            return False
        return self._covers(g, *_orbits(g.n, self.generators))

    def _covers(self, g: Graph, orbit: list[int], sizes: list[int]) -> bool:
        """covers, for generators already checked, with their orbits and sizes."""
        cover = [Fraction(0)] * len(sizes)
        for s, w in zip(self.sets, self.weights):
            if not all(0 <= v < g.n and v not in g.loops for v in s):
                return False
            for u in s:
                for v in s:
                    if u < v and g.has_edge(u, v):
                        return False
            for v in s:
                cover[orbit[v]] += w
        return all(c >= size for c, size in zip(cover, sizes))


def _maximal(masks: tuple[int, ...], chosen: int) -> tuple[int, ...]:
    """The independent set `chosen` (a bitmask) extended by every vertex that fits, lowest first."""
    for v, m in enumerate(masks):
        if not m & chosen:
            chosen |= 1 << v
    return tuple(v for v in range(len(masks)) if chosen >> v & 1)


def _orbit_masks(labels: list[int]) -> list[int]:
    """Each vertex's class, as a mask, for a label per vertex."""
    members: dict[int, int] = {}
    for v, o in enumerate(labels):
        members[o] = members.get(o, 0) | 1 << v
    return [members[o] for o in labels]


def _orbital_roots(
    g: Graph, orbit: list[int], base: list[int], leveled: list[tuple[int, tuple[int, ...]]]
) -> Callable[[int, list[int]], list[tuple[int, int]]] | None:
    """The pricing search's start nodes on a component, by orbital branching
    (Ostrowski-Linderoth-Rossi-Smriglio 2011).

    Gamma_d is the group of the generators of level >= d, which fix base[:d];
    orbit gives the Gamma_0-orbit of each vertex. On a component C the
    search uses C's stabiliser in Gamma_d: an element that maps a vertex of C
    into C maps C onto itself, so the stabiliser's orbits are the
    Gamma_d-orbits cut down to C. A node takes a set T and leaves candidates
    P, a union of such orbits that the stabiliser maps to itself while
    fixing T. Let O_1, O_2, ... be those orbits in the search's order. Child
    i takes a representative r_i of O_i and drops O_1 ... O_i-1 and r_i's
    closed neighbourhood: a heaviest set with more than T meets some first
    O_i, and an element of the stabiliser maps it to one of equal weight
    through r_i in child i. Where r_i is base[d], the child branches again
    over Gamma_d+1, which fixes r_i and so maps C onto itself; every other
    node, and a node whose orbits are all single vertices, is a start node.

    Returns None without generators, else a function of a component (a mask)
    and its vertices in the search's order: the start nodes, as (taken,
    candidates) masks in that order.
    """
    if not leveled:
        return None
    masks = g.neighbor_masks
    groups = [_orbit_masks(orbit)]  # groups[d][v]: v's Gamma_d-orbit as a mask
    for d in range(1, max(k for k, _ in leveled) + 1):
        groups.append(_orbit_masks(_orbits(g.n, tuple(p for k, p in leveled if k >= d))[0]))
        if groups[d][base[d - 1]] != 1 << base[d - 1]:
            raise RuntimeError(f"a generator of level {d} or more moves base vertex {base[d - 1]}")

    def roots(comp: int, verts: list[int]) -> list[tuple[int, int]]:
        nodes: list[tuple[int, int]] = []
        stack = [(0, 0, comp)]  # (d, T, P); d == len(groups) for a start node
        while stack:
            d, taken, p = stack.pop()
            if d == len(groups) or all(groups[d][v] & comp == 1 << v for v in verts if p >> v & 1):
                nodes.append((taken, p))
                continue
            children, seen = [], 0
            for v in verts:
                if (p & ~seen) >> v & 1:
                    r, deeper, own = v, len(groups), groups[d][v] & comp
                    if d < len(base) and own >> base[d] & 1:
                        r, deeper = base[d], d + 1
                    children.append((deeper, taken | 1 << r, p & ~seen & ~(masks[r] | 1 << r)))
                    seen |= own
            stack += reversed(children)
        return nodes

    return roots


def fractional_chromatic(
    g: Graph,
    max_vertices: int = DEFAULT_MAX_LP_VERTICES,
    generators: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[Fraction, FractionalColoring]:
    """Exact chi_f(G) with an optimal witness fractional coloring.

    ``generators`` are automorphisms of g, each a tuple p with v -> p[v]; the
    LP then has one row per orbit of the group they generate, and the witness
    carries them. None (the default) takes them from
    ``symmetry.automorphism_generators``, and () gives the LP with one row per
    vertex. A given generator that is not an automorphism raises ValueError;
    found ones passed that check in ``symmetry``. The cap counts g's
    vertices, not its orbits.

    Optimality is certified here: the witness covers g, and the LP's dual
    solution is a fractional clique of equal value whose feasibility the last
    pricing search proved.
    """
    if g.loops:
        raise ValueError("fractional chromatic number is undefined on graphs with loops")
    if g.n > max_vertices:
        raise CapExceeded(
            f"graph has {g.n} vertices, above the max_vertices cap of {max_vertices}"
        )
    if generators is None:
        base, leveled = _leveled_generators(g)
        generators = tuple(p for _, p in leveled)
    else:
        generators = tuple(tuple(p) for p in generators)
        base, leveled = [], [(0, p) for p in generators]
        for i, p in enumerate(generators):
            if not _is_automorphism(g, p):
                raise ValueError(f"generator {i} is not an automorphism of the graph: {p!r}")
    orbit, sizes = _orbits(g.n, generators)
    masks = g.neighbor_masks
    classes: list[int] = []  # first fit: v joins the lowest class holding none of its neighbours
    for v, m in enumerate(masks):
        for c, s in enumerate(classes):
            if not m & s:
                classes[c] = s | 1 << v
                break
        else:
            classes.append(1 << v)
    sets = [_maximal(masks, s) for s in classes]
    roots = _orbital_roots(g, orbit, base, leveled)
    # a set's column lists the orbit of each of its vertices: |S & O| entries of row O
    lp = open_covering_lp(len(sizes), [tuple(orbit[v] for v in s) for s in sets], sizes)
    while True:
        prices = lp.prices()
        if any(y < 0 for y in prices):
            raise RuntimeError("negative dual price; certificate invalid")
        weight, heaviest = heaviest_independent_set(g, [prices[o] for o in orbit], roots)
        if weight <= lp.den:  # every independent set has dual sum <= 1
            break
        sets.append(_maximal(masks, sum(1 << v for v in heaviest)))
        add_covering_columns(lp, [tuple(orbit[v] for v in sets[-1])])
    solution = lp.solution()
    ns, ids = lp.ns, sorted(solution.primal)
    # a basic unit column ns + m + i is the singleton of orbit i's least vertex
    witness = FractionalColoring(
        tuple(frozenset(sets[j] if j < ns else (orbit.index(j - ns - lp.m),)) for j in ids),
        tuple(solution.primal[j] for j in ids),
        generators,
    )
    # primal feasibility and dual feasibility, with the equal values that
    # lp.solution() checked, certify optimality without trusting the pivoting path
    if not witness._covers(g, orbit, sizes):
        raise RuntimeError("simplex returned an infeasible fractional coloring")
    if solution.dual != tuple(Fraction(p, lp.den) for p in prices):
        raise RuntimeError("the returned duals are not the ones the last search priced")
    return solution.value, witness
