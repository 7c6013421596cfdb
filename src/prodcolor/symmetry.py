"""Automorphism generators by individualization-refinement (McKay 1981;
McKay-Piperno 2014), and the vertex orbits of the group they generate.

Colour refinement takes an ordered partition of the vertices to the coarsest
equitable partition below it: every vertex of a cell has the same number of
neighbours in each cell. It splits every cell by the neighbour counts into
one splitter cell at a time, fragments in increasing count order, so it
commutes with relabelling: refining the image of a partition under a
permutation gives the image of the refinement. Individualizing a vertex puts
it in a cell of its own in front of the rest of its cell, then refines.

The first path individualizes the least vertex of the first non-singleton
cell until the partition is discrete; its leaf lists every vertex once. An
automorphism fixing the first k path vertices fixes the partition at depth k,
so it maps path vertex k + 1 into that partition's first non-singleton cell,
the target of level k. From the deepest level up, every other vertex w of
the target is either in
the orbit of path vertex k + 1 under the generators found so far, which all
fix the first k path vertices, or its subtree is searched for a leaf whose
map from the first leaf is an automorphism: one exists iff w is in that
vertex's orbit under the stabilizer, and the images of the first path under
such an automorphism pass the pruning (equal cell sizes at equal depth). By
induction from the discrete leaf, whose stabilizer is trivial, the
generators found at level k and deeper span the stabilizer of the first k
path vertices, and those of every level all of Aut(G).

Each candidate w may visit at most _NODE_LIMIT nodes of its subtree; past
that only w is dropped. Every kept generator is checked to be an
automorphism, so the result always spans a subgroup of Aut(G), and the orbit
LP of ``fractional`` is exact for any group of automorphisms.
"""

from __future__ import annotations

from ._graph import Graph, _bit_counts, _bits

_NODE_LIMIT = 256  # search-tree nodes per candidate vertex


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of g, each a tuple p with v -> p[v], that generate
    Aut(g) unless a candidate ran out of nodes; a function of g alone."""
    return tuple(p for _, p in _leveled_generators(g)[1])


def _leveled_generators(g: Graph) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """The first path's individualized vertices, the base b, and the
    generators of automorphism_generators in its order, each with its level k.

    A generator of level k maps the first leaf onto a leaf below the
    partition at depth k, and both leaves list the vertices of each of its
    cells in that cell's slot, so it fixes b[0..k-1]; it moves b[k]."""
    n, masks = g.n, g.neighbor_masks
    looped = sum(1 << v for v in g.loops)
    cells = [c for c in ((1 << n) - 1 ^ looped, looped) if c]
    cells = _refine(masks, n, cells, list(cells))
    path, targets, chosen = [cells], [], []
    i = 0
    while len(cells) < n:
        i = _target(cells, i)
        v = (cells[i] & -cells[i]).bit_length() - 1
        targets.append(i)
        chosen.append(v)
        cells = _individualize(masks, n, cells, i, v)
        path.append(cells)
    shapes = [tuple(map(int.bit_count, p)) for p in path]
    first = [c.bit_length() - 1 for c in cells]

    generators: list[tuple[int, tuple[int, ...]]] = []
    root = list(range(n))
    for k in reversed(range(len(chosen))):
        for w in _bits(path[k][targets[k]]):
            if _find(root, w) != _find(root, chosen[k]):
                p = _equivalent_leaf(g, path[k], targets[k], w, k + 1, shapes, first)
                if p is not None:
                    generators.append((k, p))
                    _join(root, p)
    return chosen, generators


def _equivalent_leaf(
    g: Graph,
    cells: list[int],
    i: int,
    w: int,
    depth: int,
    shapes: list[tuple[int, ...]],
    first: list[int],
) -> tuple[int, ...] | None:
    """The first automorphism, in depth-first order, that maps the first leaf
    onto a leaf below cells with w, of target cell i, individualized; None if
    there is none within _NODE_LIMIT nodes."""
    n, masks = g.n, g.neighbor_masks
    # a node's partition, its target cell and its children not yet tried
    stack = [(cells, i, iter((w,)))]
    nodes = 0
    while stack:
        parent, i, children = stack[-1]
        x = next(children, None)
        if x is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > _NODE_LIMIT:
            return None
        cells = _individualize(masks, n, parent, i, x)
        if tuple(map(int.bit_count, cells)) != shapes[depth + len(stack) - 1]:
            continue
        if len(cells) == n:
            p = [0] * n
            for v, c in zip(first, cells):
                p[v] = c.bit_length() - 1
            if _is_automorphism(g, tuple(p)):
                return tuple(p)
            continue
        j = _target(cells, i + 1)
        stack.append((cells, j, _bits(cells[j])))
    return None


def _target(cells: list[int], start: int) -> int:
    """The index of the first non-singleton cell; the cells before start are
    singletons. Refinement splits cells in place, so a partition keeps the
    singletons its parent had in front of the parent's target cell."""
    return next(i for i in range(start, len(cells)) if cells[i] & cells[i] - 1)


def _individualize(masks: tuple[int, ...], n: int, cells: list[int], i: int, v: int) -> list[int]:
    """cells with v split off in front of the rest of its cell i, refined.

    cells is equitable, so each cell has equal counts into cell i, and only
    {v} needs to split the others."""
    bit = 1 << v
    return _refine(masks, n, [*cells[:i], bit, cells[i] ^ bit, *cells[i + 1 :]], [bit])


def _refine(masks: tuple[int, ...], n: int, cells: list[int], queue: list[int]) -> list[int]:
    """The coarsest equitable ordered partition below cells, each a vertex
    bitmask; every cell must already be equitable into each cell not queued.

    The splitters are taken first in, first out. A split cell still queued
    is replaced by all its fragments; otherwise all but its first largest
    fragment are queued, since counts into the whole cell are already equal
    (Hopcroft's rule).
    """
    pending = set(queue)
    for splitter in queue:  # grows while it is read
        if len(cells) == n:
            break
        if splitter not in pending:
            continue
        pending.remove(splitter)
        # each vertex's number of neighbours in the splitter, bit-sliced
        slices = _bit_counts(masks[u] for u in _bits(splitter))
        hit = 0
        for s in slices:
            hit |= s
        if not hit:
            continue
        out = []
        for c in cells:
            if not c & hit or not c & c - 1:
                out.append(c)
                continue
            parts = [c]
            for s in reversed(slices):  # highest bit first: fragments in increasing count order
                parts = [q for p in parts for q in (p & ~s, p & s) if q]
            out.extend(parts)
            if len(parts) == 1:
                continue
            if c in pending:
                pending.remove(c)
                fresh = parts
            else:
                largest = max(parts, key=int.bit_count)
                fresh = [q for q in parts if q != largest]
            pending.update(fresh)
            queue.extend(fresh)
        cells = out
    return cells


def _is_automorphism(g: Graph, p: tuple[int, ...]) -> bool:
    """Is p a permutation of g's vertices that maps edges to edges and loops to loops?"""
    if len(p) != g.n or set(p) != set(range(g.n)):
        return False
    masks = g.neighbor_masks
    return all(masks[p[u]] >> p[v] & 1 for u, v in g.edges) and all(
        p[v] in g.loops for v in g.loops
    )


def _find(root: list[int], v: int) -> int:
    while root[v] != v:
        root[v] = v = root[root[v]]
    return v


def _join(root: list[int], p: tuple[int, ...]) -> None:
    """Merge the union-find classes of each v and p[v]; the least vertex is the root."""
    for v, w in enumerate(p):
        if v != w:
            a, b = _find(root, v), _find(root, w)
            root[max(a, b)] = min(a, b)


def _orbits(n: int, generators: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[int]]:
    """The orbit index of each vertex, orbits numbered by their least vertex,
    and the orbit sizes: union-find over the generators' cycles."""
    root = list(range(n))
    for p in generators:
        _join(root, p)
    index: dict[int, int] = {}
    orbit = [index.setdefault(_find(root, v), len(index)) for v in range(n)]
    sizes = [0] * len(index)
    for o in orbit:
        sizes[o] += 1
    return orbit, sizes
