"""Edge-list text and dot for graphs and digraphs.

The edge-list text has a header line ``<n> <count>``, optionally followed by
``loops: v1 v2 ...`` on the same line, then one ``u v`` line per edge
(``u -> v`` for digraph arcs). Blank lines and comment lines, whose first
non-blank character is ``#``, are skipped; a ``#`` after data is an error.
A repeated edge, arc or loop vertex is refused, naming its line.
Output lists edges and arcs in sorted order. The structured-object form
lives in ``objects``.

Parsing is always 0-based. ``one_based=True`` shifts displayed indices up by
one for side-by-side reading with 1-based notation; it is display-only.
"""

from __future__ import annotations

from ._graph import Digraph, Graph
from .errors import ParseError


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def _parse_header(line_no: int, line: str) -> tuple[int, int, list[int]]:
    parts = line.split()
    loops: list[int] = []
    if "loops:" in parts:
        at = parts.index("loops:")
        head, tail = parts[:at], parts[at + 1 :]
        try:
            loops = [int(t) for t in tail]
        except ValueError:
            raise ParseError(line_no, f"bad loop list {tail!r}") from None
    else:
        head = parts
    if len(head) != 2:
        raise ParseError(line_no, f"header must be '<n> <count> [loops: ...]', got {line!r}")
    try:
        n, count = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(line_no, f"non-integer header field in {line!r}") from None
    return n, count, loops


def serialize_graph(g: Graph, one_based: bool = False) -> str:
    off = 1 if one_based else 0
    head = f"{g.n} {len(g.edges)}"
    if g.loops:
        head += " loops: " + " ".join(str(v + off) for v in sorted(g.loops))
    lines = [head] + [f"{u + off} {v + off}" for u, v in g.sorted_edges]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = _data_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    n, count, loops = _parse_header(*lines[0])
    if len(lines) - 1 != count:
        raise ParseError(lines[0][0], f"header promises {count} edges, found {len(lines) - 1}")
    edges: dict[tuple[int, int], int] = {}  # edge -> the line that lists it
    for line_no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer endpoint in {line!r}") from None
        if u == v:
            raise ParseError(line_no, f"self-edge {u} {v} is not allowed in the edge list")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"endpoint out of range [0, {n}) in {line!r}")
        first = edges.setdefault((min(u, v), max(u, v)), line_no)
        if first != line_no:
            raise ParseError(line_no, f"edge {u} {v} repeats the edge of line {first}")
    seen: set[int] = set()
    for v in loops:
        if not (0 <= v < n):
            raise ParseError(lines[0][0], f"loop vertex {v} out of range [0, {n})")
        if v in seen:
            raise ParseError(lines[0][0], f"loop vertex {v} repeats in the loop list")
        seen.add(v)
    return Graph.from_edges(n, edges, loops)


def serialize_digraph(d: Digraph, one_based: bool = False) -> str:
    off = 1 if one_based else 0
    lines = [f"{d.n} {len(d.arcs)}"]
    lines += [f"{x + off} -> {y + off}" for x, y in d.sorted_arcs]
    return "\n".join(lines) + "\n"


def parse_digraph(text: str) -> Digraph:
    lines = _data_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    n, count, loops = _parse_header(*lines[0])
    if loops:
        raise ParseError(lines[0][0], "digraphs do not carry loops")
    if len(lines) - 1 != count:
        raise ParseError(lines[0][0], f"header promises {count} arcs, found {len(lines) - 1}")
    arcs: dict[tuple[int, int], int] = {}  # arc -> the line that lists it
    for line_no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->":
            raise ParseError(line_no, f"expected 'x -> y', got {line!r}")
        try:
            x, y = int(parts[0]), int(parts[2])
        except ValueError:
            raise ParseError(line_no, f"non-integer endpoint in {line!r}") from None
        if x == y:
            raise ParseError(line_no, f"self-arc {x} -> {y} is not allowed")
        if not (0 <= x < n and 0 <= y < n):
            raise ParseError(line_no, f"endpoint out of range [0, {n}) in {line!r}")
        first = arcs.setdefault((x, y), line_no)
        if first != line_no:
            raise ParseError(line_no, f"arc {x} -> {y} repeats the arc of line {first}")
    return Digraph.from_arcs(n, arcs)


def graph_to_dot(g: Graph, one_based: bool = False) -> str:
    off = 1 if one_based else 0
    lines = ["graph {"]
    lines += [f"  {v + off};" for v in range(g.n)]
    lines += [f"  {u + off} -- {v + off};" for u, v in g.sorted_edges]
    lines += [f"  {v + off} -- {v + off};" for v in sorted(g.loops)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(d: Digraph, one_based: bool = False) -> str:
    off = 1 if one_based else 0
    lines = ["digraph {"]
    lines += [f"  {v + off};" for v in range(d.n)]
    lines += [f"  {x + off} -> {y + off};" for x, y in d.sorted_arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"
