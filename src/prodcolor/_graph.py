"""The value types: graphs, digraphs, colorings and homomorphism maps.

Vertices are 0..n-1, and loops are stored apart from the edge set, which holds
only unordered pairs of distinct vertices. ``graphs`` re-exports the graph
types and ``solvers`` the two witness records, so the old imports still work;
a layer that only takes or returns values imports them from here, so a stage
that only reads a graph or a coloring compiles no catalog and no search.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from ._record import Record


class Graph(Record):
    """Finite undirected graph on vertices 0..n-1 with optional loops.

    The public constructor, from_edges and the parsers in serialize check
    every edge and loop; internal constructors build valid graphs and skip
    the checks through _built.
    """

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()
    loops: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        for v in self.loops:
            if not (0 <= v < n):
                raise ValueError(f"loop vertex {v} out of range for n={n}")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        loops: Iterable[int] = (),
    ) -> "Graph":
        """Build a graph, normalizing each pair to (min, max). Self-pairs are rejected."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-edge ({u}, {v}): loops belong in the loop set")
            norm.add((u, v) if u < v else (v, u))
        return cls(n, frozenset(norm), frozenset(loops))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex adjacency bitmask (loops excluded)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def neighbors(self, v: int) -> list[int]:
        m = self.neighbor_masks[v]
        return [u for u in range(self.n) if m >> u & 1]

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and ((u, v) if u < v else (v, u)) in self.edges

    def adjacent_or_loop(self, u: int, v: int) -> bool:
        """Edge predicate with u == v answered by the loop set."""
        if u == v:
            return u in self.loops
        return self.has_edge(u, v)


class Digraph(Record):
    """Finite loopless digraph on vertices 0..n-1; digons are permitted.

    As for Graph, from_arcs and the parsers check every arc, and internal
    constructors skip the checks through _built.
    """

    n: int
    arcs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        for x, y in self.arcs:
            if x == y:
                raise ValueError(f"self-arc ({x}, {y}) not allowed")
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ValueError(f"bad arc ({x}, {y}) for n={self.n}")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]] = ()) -> "Digraph":
        return cls(n, frozenset((x, y) for x, y in arcs))

    @cached_property
    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))


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


def _bits(m: int) -> Iterator[int]:
    """The indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        m ^= low
        yield low.bit_length() - 1


def _bit_counts(masks: Iterable[int]) -> list[int]:
    """Per vertex, how many of the masks hold it, bit-sliced: bit i of v's
    count is bit v of entry i, and the last entry is nonzero. One
    ripple-carry addition per mask."""
    planes: list[int] = []
    for carry in masks:
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    return planes
