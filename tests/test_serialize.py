from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcolor.arcshift import SetColoring
from prodcolor.errors import ParseError
from prodcolor.fractional import FractionalColoring
from prodcolor.graphs import CATALOG, Digraph, Graph, add_loops, complete_digraph, named
from prodcolor.objects import (
    coloring_from_obj,
    digraph_from_obj,
    fractional_coloring_from_obj,
    graph_from_obj,
    set_coloring_from_obj,
    to_obj,
)
from prodcolor.serialize import (
    digraph_to_dot,
    graph_to_dot,
    parse_digraph,
    parse_graph,
    serialize_digraph,
    serialize_graph,
)
from prodcolor.solvers import Coloring


def test_catalog_round_trips():
    for name in CATALOG:
        g = named(name)
        assert parse_graph(serialize_graph(g)) == g
        assert graph_from_obj(to_obj(g)) == g


def test_round_trip_with_loops():
    g = add_loops(named("petersen"))
    assert parse_graph(serialize_graph(g)) == g
    assert graph_from_obj(to_obj(g)) == g


def test_parse_path_example():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_digraph_digon():
    d = parse_digraph("2 2\n0 -> 1\n1 -> 0")
    assert d.arcs == frozenset({(0, 1), (1, 0)})


def test_digraph_round_trips():
    for d in (complete_digraph(4), Digraph.from_arcs(3, [(0, 1), (2, 1)])):
        assert parse_digraph(serialize_digraph(d)) == d
        assert digraph_from_obj(to_obj(d)) == d


def test_parse_skips_blanks_and_comments():
    g = parse_graph("# a path\n3 2\n\n0 1\n# middle\n1 2\n")
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2.*out of range"):
        parse_graph("2 1\n0 5")
    with pytest.raises(ParseError, match="line 3.*self-edge"):
        parse_graph("3 2\n0 1\n2 2")
    with pytest.raises(ParseError, match="line 2.*expected"):
        parse_graph("2 1\n0 1 junk")
    with pytest.raises(ParseError, match="line 1.*header"):
        parse_graph("nonsense")
    with pytest.raises(ParseError, match="promises 3 edges"):
        parse_graph("3 3\n0 1\n1 2")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("")
    with pytest.raises(ParseError, match="line 2.*expected 'x -> y'"):
        parse_digraph("2 1\n0 1")
    with pytest.raises(ParseError, match="self-arc"):
        parse_digraph("2 1\n1 -> 1")
    for parse, text, message in (
        (parse_graph, "2 0 loops: x\n", "line 1: bad loop list ['x']"),
        (parse_graph, "2 x\n", "line 1: non-integer header field in '2 x'"),
        (parse_graph, "2 1\n0 x\n", "line 2: non-integer endpoint in '0 x'"),
        (parse_graph, "2 0 loops: 5\n", "line 1: loop vertex 5 out of range [0, 2)"),
        (parse_digraph, "# nothing\n", "line 1: empty input"),
        (parse_digraph, "2 0 loops: 0\n", "line 1: digraphs do not carry loops"),
        (parse_digraph, "2 2\n0 -> 1\n", "line 1: header promises 2 arcs, found 1"),
        (parse_digraph, "2 1\n0 -> x\n", "line 2: non-integer endpoint in '0 -> x'"),
        (parse_digraph, "2 1\n0 -> 2\n", "line 2: endpoint out of range [0, 2) in '0 -> 2'"),
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)


def test_parse_rejects_a_repeated_edge_or_arc():
    # a repeat would leave fewer edges than the header promises
    with pytest.raises(ParseError, match=r"^line 3: edge 1 0 repeats the edge of line 2$"):
        parse_graph("2 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match=r"^line 5: edge 1 2 repeats the edge of line 3$"):
        parse_graph("3 3\n# comment\n1 2\n0 1\n1 2\n")
    with pytest.raises(ParseError, match=r"^line 4: arc 0 -> 1 repeats the arc of line 2$"):
        parse_digraph("2 3\n0 -> 1\n1 -> 0\n0 -> 1\n")
    # the reverse of an arc is another arc
    assert parse_digraph("2 2\n0 -> 1\n1 -> 0\n").arcs == {(0, 1), (1, 0)}


def test_loop_header_round_trip():
    g = Graph.from_edges(4, [(0, 1)], loops=[2, 0])
    text = serialize_graph(g)
    assert text.splitlines()[0] == "4 1 loops: 0 2"
    assert parse_graph(text) == g


def test_one_based_display():
    g = Graph.from_edges(3, [(0, 2)], loops=[1])
    text = serialize_graph(g, one_based=True)
    assert text.splitlines()[0] == "3 1 loops: 2"
    assert "1 3" in text
    d = Digraph.from_arcs(2, [(0, 1)])
    assert "1 -> 2" in serialize_digraph(d, one_based=True)


def test_dot_output():
    g = Graph.from_edges(2, [(0, 1)], loops=[0])
    dot = graph_to_dot(g)
    assert dot.startswith("graph {")
    assert "0 -- 1;" in dot and "0 -- 0;" in dot
    d = digraph_to_dot(Digraph.from_arcs(2, [(1, 0)]))
    assert d.startswith("digraph {") and "1 -> 0;" in d


def test_coloring_objects():
    c = Coloring((0, 1, 2, 0), 3)
    assert coloring_from_obj(to_obj(c)) == c
    sc = SetColoring((frozenset({0, 1}), frozenset({2, 3})), 4)
    assert set_coloring_from_obj(to_obj(sc)) == sc
    sc_any = SetColoring((frozenset(), frozenset({1})), 2)
    assert set_coloring_from_obj(to_obj(sc_any)) == sc_any
    with pytest.raises(ParseError, match="^expected a JSON object, got list$"):
        coloring_from_obj([0, 1])


def test_fractional_coloring_objects():
    fc = FractionalColoring(
        (frozenset({0, 2}), frozenset({1, 3})),
        (Fraction(1, 2), Fraction(3, 2)),
    )
    obj = to_obj(fc)
    assert obj == {"generators": [], "sets": [[0, 2], [1, 3]], "weights": [[1, 2], [3, 2]]}
    assert fractional_coloring_from_obj(obj) == fc
    # an object written before generators existed reads as having none
    del obj["generators"]
    assert fractional_coloring_from_obj(obj) == fc
    with pytest.raises(ParseError, match=r"^weights\[1\] has denominator 0$"):
        fractional_coloring_from_obj({**obj, "weights": [[1, 2], [3, 0]]})


def test_set_coloring_object_refuses_a_repeated_member():
    # read as a set, [1, 1] would silently become {1}
    with pytest.raises(ParseError, match=r"^sets\[0\]\[1\] repeats sets\[0\]\[0\]$"):
        set_coloring_from_obj({"sets": [[1, 1], [0]], "k": 2})


def test_fractional_coloring_object_refuses_a_repeated_member():
    obj = {"sets": [[1], [0, 2, 0]], "weights": [[1, 1], [1, 1]]}
    with pytest.raises(ParseError, match=r"^sets\[1\]\[2\] repeats sets\[1\]\[0\]$"):
        fractional_coloring_from_obj(obj)


def test_fractional_coloring_generators_round_trip_and_are_checked():
    fc = FractionalColoring(
        (frozenset({0, 2}),), (Fraction(5, 2),), ((1, 2, 3, 4, 0), (0, 4, 3, 2, 1))
    )
    obj = to_obj(fc)
    assert obj["generators"] == [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]]
    assert fractional_coloring_from_obj(obj) == fc
    for bad, message in (
        ([[1, 2, 3, 4, 0], [0, 1, 2, 3]], r"generators\[1\] must be a permutation of 0\.\.4"),
        ([[0, 0, 1]], r"generators\[0\] must be a permutation of 0\.\.2"),
        ([[1, 2, 3]], r"generators\[0\] must be a permutation"),
        ([[0, -1]], r"generators\[0\] must be a permutation"),
        ([[0, "1"]], r"generators\[0\]\[1\] must be an integer"),
        ([0, 1], r"generators\[0\] must be a list"),
    ):
        with pytest.raises(ParseError, match=message):
            fractional_coloring_from_obj({**obj, "generators": bad})


@pytest.mark.parametrize(
    "read, obj, key",
    [
        (graph_from_obj, {"n": 2, "edges": [[0, 1]], "loop": [0]}, "loop"),
        (digraph_from_obj, {"n": 2, "arcs": [[0, 1]], "edges": []}, "edges"),
        (coloring_from_obj, {"colors": [0, 1], "k": 2, "size": 2}, "size"),
        # SetColoring has had no size field since its equal-size rule went
        (set_coloring_from_obj, {"sets": [[0], [1]], "k": 2, "size": 1}, "size"),
        (fractional_coloring_from_obj, {"sets": [[0]], "weights": [[1, 1]], "value": [1, 1]}, "value"),
    ],
    ids=["graph", "digraph", "coloring", "set-coloring", "fractional-coloring"],
)
def test_object_readers_refuse_unknown_keys(read, obj, key):
    with pytest.raises(ParseError, match=f"^unknown key '{key}'$"):
        read(obj)
    read({k: v for k, v in obj.items() if k != key})  # the rest of the object reads


def test_to_obj_encoding_rules():
    obj = to_obj({3: (Fraction(-1, 3), {2, 0, 1}), "k": [frozenset({(1, 0), (0, 2)}), None]})
    assert obj == {"3": [[-1, 3], [0, 1, 2]], "k": [[[0, 2], [1, 0]], None]}
    assert to_obj(Graph.from_edges(3, [(1, 2), (0, 1)], loops=[2])) == {
        "n": 3,
        "edges": [[0, 1], [1, 2]],
        "loops": [2],
    }
    assert to_obj(SetColoring((frozenset({1, 0}),), 2)) == {"sets": [[0, 1]], "k": 2}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_graph_round_trips(data):
    n = data.draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loops = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n)) if n else []
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep], loops)
    assert parse_graph(serialize_graph(g)) == g
    assert graph_from_obj(to_obj(g)) == g
