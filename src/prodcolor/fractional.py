"""Exact fractional chromatic number via the independent-set covering LP.

chi_f(G) is the optimum of: minimize total weight over maximal independent
sets such that every vertex is covered with weight >= 1. The sets are not
listed up front but generated (Mehrotra-Trick 1996). The restricted master
LP starts from the color classes of an optimal coloring, each extended to a
maximal set. Each round prices the master's integer duals den * y with one
exact maximum-weight independent-set search: a set whose duals sum to more
than den would lower the objective, so the heaviest set, extended to a
maximal one, is appended and the simplex continues from its current basis.
Generation stops when the search proves that no independent set weighs
more than den.

The value is exact and certified without trusting the pivoting path
(Held-Cook-Sewell 2012, here in integer arithmetic): the primal witness
covers every vertex, the duals are nonnegative, the last search is the proof
that they form a feasible fractional clique, and both sides have the LP's
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_MAX_LP_VERTICES, CapExceeded
from .graphs import Graph
from .simplex import add_covering_columns, open_covering_lp
from .solvers import chromatic_number, k_colorable, max_weight_independent_set


@dataclass(frozen=True)
class FractionalColoring:
    """Nonnegative rational weights on independent sets covering every vertex."""

    sets: tuple[frozenset[int], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.sets) != len(self.weights):
            raise ValueError("sets and weights must have equal length")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    @property
    def value(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def covers(self, g: Graph) -> bool:
        """Every listed set independent in g and every vertex covered with weight >= 1."""
        cover = [Fraction(0)] * g.n
        for s, w in zip(self.sets, self.weights):
            for u in s:
                for v in s:
                    if u < v and g.has_edge(u, v):
                        return False
            for v in s:
                cover[v] += w
        return all(c >= 1 for c in cover)


def _maximal(masks: tuple[int, ...], chosen: int) -> tuple[int, ...]:
    """The independent set `chosen` (a bitmask) extended by every vertex that fits, lowest first."""
    for v, m in enumerate(masks):
        if not m & chosen:
            chosen |= 1 << v
    return tuple(v for v in range(len(masks)) if chosen >> v & 1)


def fractional_chromatic(
    g: Graph, max_vertices: int = DEFAULT_MAX_LP_VERTICES
) -> tuple[Fraction, FractionalColoring]:
    """Exact chi_f(G) with an optimal witness fractional coloring.

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
    if g.n == 0:
        return Fraction(0), FractionalColoring((), ())

    masks = g.neighbor_masks
    coloring = k_colorable(g, chromatic_number(g))
    classes = [0] * coloring.k
    for v, c in enumerate(coloring.colors):
        classes[c] |= 1 << v
    lp = open_covering_lp(g.n, [_maximal(masks, s) for s in classes])
    while True:
        prices = lp.prices()
        if min(prices) < 0:
            raise RuntimeError("negative dual price; certificate invalid")
        weight, heaviest = max_weight_independent_set(g, prices)
        if weight <= lp.den:  # every independent set has dual sum <= 1
            break
        add_covering_columns(lp, [_maximal(masks, sum(1 << v for v in heaviest))])
    solution = lp.solution()

    witness = FractionalColoring(
        tuple(frozenset(lp.columns[j]) for j in sorted(solution.primal)),
        tuple(solution.primal[j] for j in sorted(solution.primal)),
    )
    # primal feasibility, dual feasibility, and equal values together certify
    # optimality without trusting the pivoting path
    if not witness.covers(g):
        raise RuntimeError("simplex returned an infeasible fractional coloring")
    if solution.dual != tuple(Fraction(p, lp.den) for p in prices):
        raise RuntimeError("the returned duals are not the ones the last search priced")
    if witness.value != sum(solution.dual, Fraction(0)) or witness.value != solution.value:
        raise RuntimeError("primal and dual values differ; certificate invalid")
    return solution.value, witness
