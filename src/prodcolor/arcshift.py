"""The arc-shift operator on digraphs and its coloring transforms.

shift(D) is the digraph whose vertices are the arcs of D, with an arc from
(x, y) to (x', y') exactly when y = x'. Chromatic statements about a digraph
always mean the chromatic number of its underline graph.

The two constructive transforms relate colorings across one shift level:
downward, a proper coloring of shift(D) yields a proper set-coloring of D
(color each vertex by the set of colors on its out-arcs); upward, a
set-coloring of D with set(y) - set(x) nonempty on every arc (x, y) yields a
proper coloring of shift(D) (color each arc (x, y) by the smallest element of
set(y) - set(x)). Both check shift colorings on D's own arcs and build no
shift.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb

from ._graph import Coloring
from ._record import Record
from .graphs import (
    Digraph,
    Graph,
    complete_digraph,
    digraph_product,
    pair_index,
    reverse,
    tensor_product,
    underline,
)


class SetColoring(Record):
    """Total map vertex -> subset of {0..k-1}; adjacent vertices get distinct sets."""

    sets: tuple[frozenset[int], ...]
    k: int

    def __post_init__(self) -> None:
        for v, s in enumerate(self.sets):
            for color in s:
                if not (0 <= color < self.k):
                    raise ValueError(f"vertex {v} uses color {color} outside palette {self.k}")


def is_proper_set_coloring(g: Graph, sc: SetColoring) -> bool:
    """True iff adjacent vertices of g receive distinct subsets."""
    if len(sc.sets) != g.n:
        raise ValueError(f"set coloring covers {len(sc.sets)} vertices, graph has {g.n}")
    return all(sc.sets[u] != sc.sets[v] for u, v in g.edges)


def arc_shift(d: Digraph) -> tuple[Digraph, tuple[tuple[int, int], ...]]:
    """shift(D) and D's sorted arcs: vertex i of shift(D) is the arc d.sorted_arcs[i].

    The out-arcs of each vertex y are the run start[y]..start[y+1]-1 of the
    sorted arcs, so the shift is built in O(arcs x out-degree).
    """
    arcs = d.sorted_arcs
    out_degree = [0] * d.n
    for x, _ in arcs:
        out_degree[x] += 1
    start = list(accumulate(out_degree, initial=0))
    # arc j leaves the head of arc i, so j != i: a digraph has no self-arc
    shift_arcs = frozenset(
        (i, j) for i, (_, y) in enumerate(arcs) for j in range(start[y], start[y + 1])
    )
    return Digraph._built(len(arcs), shift_arcs), arcs


def _proper_on_arcs(d: Digraph, colors: tuple[int, ...]) -> bool:
    """True iff colors, one per arc of d.sorted_arcs, properly color shift(D).

    Two arcs are adjacent in underline(shift(D)) iff one ends where the other
    starts, so the coloring is proper iff no vertex of D has a color on both
    an in-arc and an out-arc.
    """
    into: list[set[int]] = [set() for _ in range(d.n)]
    for (_, y), color in zip(d.sorted_arcs, colors):
        into[y].add(color)
    return all(color not in into[x] for (x, _), color in zip(d.sorted_arcs, colors))


def coloring_down(d: Digraph, shift_coloring: Coloring) -> SetColoring:
    """Proper set-coloring of D from a proper coloring of shift(D).

    psi(v) = the set of colors on the out-arcs of v (empty for sinks). For
    any arc (x, y) the input color of that arc lies in psi(x) - psi(y), so
    adjacent vertices of underline(D) always receive distinct sets.
    """
    arcs = d.sorted_arcs
    if len(shift_coloring.colors) != len(arcs):
        raise ValueError(f"coloring covers {len(shift_coloring.colors)} arcs, D has {len(arcs)}")
    if not _proper_on_arcs(d, shift_coloring.colors):
        raise ValueError("input is not a proper coloring of underline(shift(D))")
    out_colors: list[set[int]] = [set() for _ in range(d.n)]
    for (x, _), color in zip(arcs, shift_coloring.colors):
        out_colors[x].add(color)
    result = SetColoring(tuple(map(frozenset, out_colors)), shift_coloring.k)
    if any(result.sets[x] == result.sets[y] for x, y in arcs):
        raise RuntimeError("down-transform produced an improper set-coloring of underline(D)")
    return result


def coloring_up(d: Digraph, set_coloring: SetColoring) -> Coloring:
    """Proper coloring of shift(D) from a set-coloring psi of D with
    psi(y) - psi(x) nonempty on every arc (x, y).

    phi(x, y) = min(psi(y) - psi(x)). Consecutive arcs (x, y), (y, z) then get
    phi(x, y) in psi(y) and phi(y, z) outside psi(y). Distinct equal-size sets
    meet the precondition.
    """
    sets = set_coloring.sets
    if len(sets) != d.n:
        raise ValueError(f"set coloring covers {len(sets)} vertices, graph has {d.n}")
    colors = []
    for x, y in d.sorted_arcs:
        diff = sets[y] - sets[x]
        if not diff:
            raise ValueError(f"arc ({x}, {y}) has an empty set difference")
        colors.append(min(diff))
    result = Coloring(tuple(colors), set_coloring.k)
    if not _proper_on_arcs(d, result.colors):
        raise RuntimeError("up-transform produced an improper coloring of underline(shift(D))")
    return result


class LemmaRelReport(Record):
    """Exact chi values and the two-sided bound on chi(shift(D))."""

    chi_d: int
    chi_shift: int
    lower: int
    upper: int
    passed: bool


def _min_k_power(chi: int) -> int:
    """min{k : 2^k >= chi}."""
    return max(chi - 1, 0).bit_length()


def _min_k_central(chi: int) -> int:
    k = 0
    while comb(k, -(-k // 2)) < chi:
        k += 1
    return k


def _lemma_rel(
    d: Digraph, colorings: dict[Graph, Coloring] | None = None
) -> tuple[LemmaRelReport, bool]:
    """The bounds report on D, and whether both transforms, run from
    solver-found colorings, give proper outputs and the down-transform uses
    at most 2^chi(shift(D)) distinct sets.

    D is shifted once, and each underline graph gets one optimal coloring,
    which gives its chromatic number too. colorings maps graphs to their
    optimal colorings: a caller that checks many digraphs passes one dict, so
    each distinct underline graph is colored once, as optimal_coloring is a
    function of the graph's value. Both transforms still check the colorings.
    """
    under_d, under_shift = underline(d), underline(arc_shift(d)[0])
    colorings = {} if colorings is None else colorings
    for g in (under_d, under_shift):
        if g not in colorings:
            from .solvers import optimal_coloring

            colorings[g] = optimal_coloring(g)
    base_d, base_shift = colorings[under_d], colorings[under_shift]
    chi_d, chi_shift = base_d.k, base_shift.k
    lower = _min_k_power(chi_d)
    upper = _min_k_central(chi_d)
    report = LemmaRelReport(chi_d, chi_shift, lower, upper, lower <= chi_shift <= upper)
    try:  # each transform raises RuntimeError on an improper output
        # an arcless D has one set, the empty one, and 2^0 = 1
        transforms_hold = len(set(coloring_down(d, base_shift).sets)) <= 2**chi_shift
        coloring_up(d, _uniform_set_coloring(base_d))
    except RuntimeError:
        transforms_hold = False
    return report, transforms_hold


def lemma_rel_bounds_check(d: Digraph) -> LemmaRelReport:
    """Check min{k: 2^k >= chi(D)} <= chi(shift(D)) <= min{k: C(k, ceil(k/2)) >= chi(D)}."""
    return _lemma_rel(d)[0]


def _uniform_set_coloring(base: Coloring) -> SetColoring:
    """An equal-size set-coloring with the color classes of base, so proper
    wherever base is.

    Uses k = min{k: C(k, ceil(k/2)) >= base.k} and assigns the i-th color
    class the i-th ceil(k/2)-subset of {0..k-1} in lexicographic order.
    """
    k = _min_k_central(base.k)
    s = -(-k // 2)
    subsets = list(combinations(range(k), s))[: base.k]
    return SetColoring(tuple(frozenset(subsets[c]) for c in base.colors), k)


# ---------------------------------------------------------------------------
# Schelp's explicit 3-coloring of shift(shift(K4-digraph))


@lru_cache(maxsize=1)
def _schelp_shift() -> tuple[Graph, tuple[tuple[int, int, int], ...]]:
    """underline(shift^2(K4-digraph)) and its vertices as schelp_triples,
    from one double shift built once per process."""
    s1, a1 = arc_shift(complete_digraph(4))
    s2, a2 = arc_shift(s1)
    triples = []
    for e1, e2 in a2:
        i, j = a1[e1]
        j2, k = a1[e2]
        if j != j2:
            raise RuntimeError(f"shift arcs ({i}, {j}) and ({j2}, {k}) are not consecutive")
        triples.append((i, j, k))
    return underline(s2), tuple(triples)


def schelp_triples() -> tuple[tuple[int, int, int], ...]:
    """The 36 vertices of shift^2 of the complete digraph on 4 vertices.

    Vertex m of the double shift corresponds to a pair of consecutive arcs
    (i, j), (j, k) of the complete digraph, recorded here as the triple
    (i, j, k); i may equal k.
    """
    return _schelp_shift()[1]


def schelp_coloring() -> Coloring:
    """Proper 3-coloring of underline(shift^2(K4-digraph)).

    Triple (i, j, k) gets color j when j != 3, otherwise the smallest color
    in {0, 1, 2} - {i, k}.
    """
    colors = (j if j != 3 else min({0, 1, 2} - {i, k}) for i, j, k in schelp_triples())
    return Coloring(tuple(colors), 3)


# ---------------------------------------------------------------------------
# functoriality and the product bound chain


def functoriality_check(d1: Digraph, d2: Digraph) -> bool:
    """shift(D1 x D2) = shift(D1) x shift(D2) under the canonical arc bijection,
    and shift(D^-1) = shift(D)^-1 under arc reversal, for both arguments."""
    prod = digraph_product(d1, d2)
    shift_prod, arcs_prod = arc_shift(prod)
    s1, arcs1 = arc_shift(d1)
    s2, arcs2 = arc_shift(d2)
    rhs = digraph_product(s1, s2)

    if len(arcs_prod) != len(arcs1) * len(arcs2):
        return False
    pos1 = {arc: i for i, arc in enumerate(arcs1)}
    pos2 = {arc: i for i, arc in enumerate(arcs2)}

    image = []  # the vertex of shift(D1) x shift(D2) at each arc of D1 x D2
    for a, b in arcs_prod:
        (x, y), (xp, yp) = divmod(a, d2.n), divmod(b, d2.n)
        image.append(pair_index(pos1[x, xp], pos2[y, yp], len(arcs2)))
    mapped = frozenset((image[i], image[j]) for i, j in shift_prod.arcs)
    if mapped != rhs.arcs:
        return False

    for d, shift_d, position in ((d1, s1, pos1), (d2, s2, pos2)):
        shift_rev, arcs_rev = arc_shift(reverse(d))
        # vertex bijection: arc (x, y) of D <-> arc (y, x) of D^-1
        back = [position[y, x] for x, y in arcs_rev]
        remap = frozenset((back[i], back[j]) for i, j in shift_rev.arcs)
        if remap != reverse(shift_d).arcs:
            return False
    return True


class BoundChainReport(Record):
    """chi of both digraph products and of the product of underlines."""

    chi_product: int
    chi_product_reversed: int
    chi_underline_product: int
    passed: bool


def bound_chain_instance(d1: Digraph, d2: Digraph) -> BoundChainReport:
    """Check chi(u(D1) x u(D2)) <= chi(D1 x D2) * chi(D1 x D2^-1) exactly."""
    from .solvers import chromatic_number

    a = chromatic_number(underline(digraph_product(d1, d2)))
    b = chromatic_number(underline(digraph_product(d1, reverse(d2))))
    c = chromatic_number(tensor_product(underline(d1), underline(d2)))
    return BoundChainReport(a, b, c, c <= a * b)


def underline_decomposition_check(d1: Digraph, d2: Digraph) -> bool:
    """Edge-set identity: u(D1) x u(D2) = u(D1 x D2) union u(D1 x D2^-1)."""
    lhs = tensor_product(underline(d1), underline(d2)).edges
    rhs = underline(digraph_product(d1, d2)).edges | underline(
        digraph_product(d1, reverse(d2))
    ).edges
    return lhs == rhs
