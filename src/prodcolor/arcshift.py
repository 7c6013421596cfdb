"""The arc-shift operator on digraphs and its coloring transforms.

shift(D) is the digraph whose vertices are the arcs of D, with an arc from
(x, y) to (x', y') exactly when y = x'. Chromatic statements about a digraph
always mean the chromatic number of its underline graph.

The two constructive transforms relate colorings across one shift level:
downward, a proper coloring of shift(D) yields a proper set-coloring of D
(color each vertex by the set of colors on its out-arcs); upward, a proper
equal-size set-coloring of D yields a proper coloring of shift(D) (color each
arc (x, y) by the smallest element of set(y) - set(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .graphs import Digraph, Graph, complete_digraph, digraph_product, pair_index, reverse, underline
from .solvers import Coloring, chromatic_number, is_proper_coloring


@dataclass(frozen=True)
class ArcIndex:
    """Stable bijection between arcs of a digraph and vertices of its shift.

    Arcs are sorted lexicographically by (tail, head); the same digraph
    always produces the same indexing.
    """

    arcs: tuple[tuple[int, int], ...]

    @cached_property
    def _position(self) -> dict[tuple[int, int], int]:
        return {arc: i for i, arc in enumerate(self.arcs)}

    def index_of(self, arc: tuple[int, int]) -> int:
        return self._position[arc]

    def arc_at(self, i: int) -> tuple[int, int]:
        return self.arcs[i]

    def __len__(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class SetColoring:
    """Total map vertex -> subset of {0..k-1}; adjacent vertices get distinct sets.

    size fixes the required subset cardinality; None means any size
    (including empty) is acceptable.
    """

    sets: tuple[frozenset[int], ...]
    k: int
    size: int | None = None

    def __post_init__(self) -> None:
        for v, s in enumerate(self.sets):
            for color in s:
                if not (0 <= color < self.k):
                    raise ValueError(f"vertex {v} uses color {color} outside palette {self.k}")
            if self.size is not None and len(s) != self.size:
                raise ValueError(
                    f"vertex {v} has a set of size {len(s)}, required size is {self.size}"
                )


def is_proper_set_coloring(g: Graph, sc: SetColoring) -> bool:
    """True iff adjacent vertices of g receive distinct subsets."""
    if len(sc.sets) != g.n:
        raise ValueError(f"set coloring covers {len(sc.sets)} vertices, graph has {g.n}")
    return all(sc.sets[u] != sc.sets[v] for u, v in g.edges)


def arc_shift(d: Digraph) -> tuple[Digraph, ArcIndex]:
    """shift(D) together with the arc indexing of its vertices."""
    index = ArcIndex(d.sorted_arcs)
    arcs = []
    for i, (x, y) in enumerate(index.arcs):
        for j, (xp, yp) in enumerate(index.arcs):
            if y == xp and i != j:
                arcs.append((i, j))
    return Digraph.from_arcs(len(index), arcs), index


def coloring_down(d: Digraph, shift_coloring: Coloring) -> SetColoring:
    """Proper set-coloring of D from a proper coloring of shift(D).

    psi(v) = the set of colors on the out-arcs of v (empty for sinks). For
    any arc (x, y) the input color of that arc lies in psi(x) - psi(y), so
    adjacent vertices of underline(D) always receive distinct sets.
    """
    shifted, index = arc_shift(d)
    if not is_proper_coloring(underline(shifted), shift_coloring):
        raise ValueError("input is not a proper coloring of underline(shift(D))")
    sets = []
    for v in range(d.n):
        out = [shift_coloring.colors[index.index_of((v, y))] for y in d.out_neighbors(v)]
        sets.append(frozenset(out))
    result = SetColoring(tuple(sets), shift_coloring.k, None)
    if not is_proper_set_coloring(underline(d), result):
        raise RuntimeError("down-transform produced an improper set-coloring of underline(D)")
    return result


def coloring_up(d: Digraph, set_coloring: SetColoring) -> Coloring:
    """Proper coloring of shift(D) from a proper equal-size set-coloring of D.

    phi(x, y) = min(psi(y) - psi(x)), which is well defined because distinct
    equal-size sets have nonempty differences. Consecutive arcs (x, y), (y, z)
    then get phi(x, y) in psi(y) and phi(y, z) outside psi(y).
    """
    if set_coloring.size is None:
        sizes = {len(s) for s in set_coloring.sets}
        if len(sizes) > 1:
            raise ValueError(f"set sizes must all be equal, got sizes {sorted(sizes)}")
    if not is_proper_set_coloring(underline(d), set_coloring):
        raise ValueError("input is not a proper set-coloring of underline(D)")
    shifted, index = arc_shift(d)
    colors = []
    for x, y in index.arcs:
        diff = set_coloring.sets[y] - set_coloring.sets[x]
        if not diff:
            raise ValueError(f"arc ({x}, {y}) has an empty set difference")
        colors.append(min(diff))
    result = Coloring(tuple(colors), set_coloring.k)
    if not is_proper_coloring(underline(shifted), result):
        raise RuntimeError("up-transform produced an improper coloring of underline(shift(D))")
    return result


@dataclass(frozen=True)
class LemmaRelReport:
    """Exact chi values and the two-sided bound on chi(shift(D))."""

    chi_d: int
    chi_shift: int
    lower: int
    upper: int
    passed: bool


def _min_k_power(chi: int) -> int:
    k = 0
    while 2**k < chi:
        k += 1
    return k


def _min_k_central(chi: int) -> int:
    k = 0
    while comb(k, -(-k // 2)) < chi:
        k += 1
    return k


def lemma_rel_bounds_check(d: Digraph) -> LemmaRelReport:
    """Check min{k: 2^k >= chi(D)} <= chi(shift(D)) <= min{k: C(k, ceil(k/2)) >= chi(D)}."""
    chi_d = chromatic_number(underline(d))
    shifted, _ = arc_shift(d)
    chi_shift = chromatic_number(underline(shifted))
    lower = _min_k_power(chi_d)
    upper = _min_k_central(chi_d)
    return LemmaRelReport(chi_d, chi_shift, lower, upper, lower <= chi_shift <= upper)


def uniform_set_coloring(d: Digraph) -> SetColoring:
    """A proper set-coloring of D by equal-size subsets, built from an optimal coloring.

    Uses k = min{k: C(k, ceil(k/2)) >= chi(D)} and assigns the i-th color
    class the i-th ceil(k/2)-subset of {0..k-1} in lexicographic order.
    """
    from .solvers import k_colorable

    chi_d = chromatic_number(underline(d))
    k = _min_k_central(chi_d)
    s = -(-k // 2)
    subsets = list(combinations(range(k), s))[:chi_d]
    base = k_colorable(underline(d), chi_d)
    if base is None:
        raise RuntimeError(f"no {chi_d}-coloring found for a digraph with chi {chi_d}")
    sets = tuple(frozenset(subsets[c]) for c in base.colors)
    return SetColoring(sets, k, s)


def lemma_rel_transforms_check(d: Digraph) -> bool:
    """Exercise both transforms on D with solver-found inputs; True iff both verify.

    Each output is checked for properness here, and the down-transform must
    also use at most 2^k distinct sets.
    """
    shifted, _ = arc_shift(d)
    ug = underline(shifted)
    chi_shift = chromatic_number(ug)
    from .solvers import k_colorable

    if shifted.n:
        down = coloring_down(d, k_colorable(ug, chi_shift))
        if not is_proper_set_coloring(underline(d), down) or len(set(down.sets)) > 2**chi_shift:
            return False
    up = coloring_up(d, uniform_set_coloring(d))
    return is_proper_coloring(underline(shifted), up)


# ---------------------------------------------------------------------------
# Schelp's explicit 3-coloring of shift(shift(K4-digraph))


def schelp_triples() -> tuple[tuple[int, int, int], ...]:
    """The 36 vertices of shift^2 of the complete digraph on 4 vertices.

    Vertex m of the double shift corresponds to a pair of consecutive arcs
    (i, j), (j, k) of the complete digraph, recorded here as the triple
    (i, j, k); i may equal k.
    """
    d4 = complete_digraph(4)
    s1, a1 = arc_shift(d4)
    _, a2 = arc_shift(s1)
    triples = []
    for e1, e2 in a2.arcs:
        i, j = a1.arc_at(e1)
        j2, k = a1.arc_at(e2)
        if j != j2:
            raise RuntimeError(f"shift arcs ({i}, {j}) and ({j2}, {k}) are not consecutive")
        triples.append((i, j, k))
    return tuple(triples)


def schelp_coloring() -> Coloring:
    """Proper 3-coloring of underline(shift^2(K4-digraph)).

    Triple (i, j, k) gets color j when j != 3, otherwise the smallest color
    in {0, 1, 2} - {i, k}.
    """
    colors = []
    for i, j, k in schelp_triples():
        if j != 3:
            colors.append(j)
        else:
            colors.append(min({0, 1, 2} - {i, k}))
    return Coloring(tuple(colors), 3)


# ---------------------------------------------------------------------------
# functoriality and the product bound chain


def functoriality_check(d1: Digraph, d2: Digraph) -> bool:
    """shift(D1 x D2) = shift(D1) x shift(D2) under the canonical arc bijection,
    and shift(D^-1) = shift(D)^-1 under arc reversal, for both arguments."""
    prod = digraph_product(d1, d2)
    shift_prod, index_prod = arc_shift(prod)
    s1, a1 = arc_shift(d1)
    s2, a2 = arc_shift(d2)
    rhs = digraph_product(s1, s2)

    if len(index_prod) != len(a1) * len(a2):
        return False

    def to_rhs_vertex(arc_of_prod: tuple[int, int]) -> int:
        (x, y), (xp, yp) = (
            divmod(arc_of_prod[0], d2.n),
            divmod(arc_of_prod[1], d2.n),
        )
        return pair_index(a1.index_of((x, xp)), a2.index_of((y, yp)), len(a2))

    mapped = frozenset(
        (to_rhs_vertex(index_prod.arc_at(i)), to_rhs_vertex(index_prod.arc_at(j)))
        for i, j in shift_prod.arcs
    )
    if mapped != rhs.arcs:
        return False

    for d in (d1, d2):
        shift_rev, idx_rev = arc_shift(reverse(d))
        shift_d, idx = arc_shift(d)
        rev_shift = reverse(shift_d)
        # vertex bijection: arc (x, y) of D <-> arc (y, x) of D^-1
        remap = frozenset(
            (
                idx.index_of(tuple(reversed(idx_rev.arc_at(i)))),
                idx.index_of(tuple(reversed(idx_rev.arc_at(j)))),
            )
            for i, j in shift_rev.arcs
        )
        if remap != rev_shift.arcs:
            return False
    return True


@dataclass(frozen=True)
class BoundChainReport:
    """chi of both digraph products and of the product of underlines."""

    chi_product: int
    chi_product_reversed: int
    chi_underline_product: int
    passed: bool


def bound_chain_instance(d1: Digraph, d2: Digraph) -> BoundChainReport:
    """Check chi(u(D1) x u(D2)) <= chi(D1 x D2) * chi(D1 x D2^-1) exactly."""
    from .graphs import tensor_product

    a = chromatic_number(underline(digraph_product(d1, d2)))
    b = chromatic_number(underline(digraph_product(d1, reverse(d2))))
    c = chromatic_number(tensor_product(underline(d1), underline(d2)))
    return BoundChainReport(a, b, c, c <= a * b)


def underline_decomposition_check(d1: Digraph, d2: Digraph) -> bool:
    """Edge-set identity: u(D1) x u(D2) = u(D1 x D2) union u(D1 x D2^-1)."""
    from .graphs import tensor_product

    lhs = tensor_product(underline(d1), underline(d2)).edges
    rhs = underline(digraph_product(d1, d2)).edges | underline(
        digraph_product(d1, reverse(d2))
    ).edges
    return lhs == rhs
