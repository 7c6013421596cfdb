"""The frozen-record base behind every prodcolor value type."""

from __future__ import annotations

import pytest

from prodcolor._record import Record
from prodcolor.graphs import Digraph, Graph
from prodcolor.harness import ClaimReport, SuiteConfig
from prodcolor.solvers import Coloring, HomMap

EDGES = frozenset({(0, 1), (1, 2)})


def test_positional_keyword_and_default_construction():
    assert Graph(3, EDGES) == Graph(n=3, edges=EDGES) == Graph(3, edges=EDGES, loops=frozenset())
    g = Graph(3)
    assert (g.n, g.edges, g.loops) == (3, frozenset(), frozenset())
    assert SuiteConfig(seed=3).seed == 3 and SuiteConfig() == SuiteConfig(7)
    assert SuiteConfig._fields == ("seed",)
    assert Graph._fields == ("n", "edges", "loops")
    assert ClaimReport._fields == ("claim_id", "params", "passed", "status", "witness", "elapsed")


def test_missing_or_unknown_field_is_a_type_error():
    with pytest.raises(TypeError):
        Graph()
    with pytest.raises(TypeError):
        Coloring((0, 1))
    with pytest.raises(TypeError):
        Graph(3, nodes=EDGES)
    with pytest.raises(TypeError):
        Graph(3, EDGES, frozenset(), "extra")
    with pytest.raises(TypeError):
        Graph(3)._replace(nodes=EDGES)


def test_assignment_and_deletion_raise():
    g = Graph(3, EDGES)
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        g.n = 4
    with pytest.raises(AttributeError):
        g.anything_new = 1
    with pytest.raises(AttributeError, match="cannot delete field 'edges'"):
        del g.edges
    assert g == Graph(3, EDGES)


def test_equality_only_within_one_class_and_equal_hashes():
    a, b = Graph(2, frozenset({(0, 1)})), Graph.from_edges(2, [(1, 0)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Graph(2) and a != Graph(3, frozenset({(0, 1)}))
    # same field values, different classes
    assert Graph(2) != Digraph(2) and Digraph(2) != Graph(2)
    assert Coloring((0, 1), 2) != ((0, 1), 2)
    # the hash of the field tuple, as for a frozen dataclass, so set orders do not move
    assert hash(a) == hash((2, frozenset({(0, 1)}), frozenset()))
    assert hash(HomMap((0, 1))) == hash(((0, 1),))
    assert {Coloring((0, 1), 2): "x"}[Coloring((0, 1), 2)] == "x"


def test_repr_is_the_dataclass_repr():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], [2])
    assert repr(g) == "Graph(n=3, edges=frozenset({(0, 1), (1, 2)}), loops=frozenset({2}))"
    assert repr(Coloring((0, 1, 0), 2)) == "Coloring(colors=(0, 1, 0), k=2)"
    report = ClaimReport("x", {"a": 1}, True, "pass", (1, 2), 0.5)
    assert repr(report) == (
        "ClaimReport(claim_id='x', params={'a': 1}, passed=True, status='pass', "
        "witness=(1, 2), elapsed=0.5)"
    )


def test_replace_revalidates():
    g = Graph(3, EDGES)
    assert g._replace(loops=frozenset({0})) == Graph(3, EDGES, frozenset({0}))
    assert g == Graph(3, EDGES)  # the original is unchanged
    with pytest.raises(ValueError, match=r"bad edge \(1, 2\) for n=2"):
        g._replace(n=2)
    with pytest.raises(ValueError, match="outside palette"):
        Coloring((0, 1), 2)._replace(k=1)


def test_post_init_validates_construction():
    with pytest.raises(ValueError, match=r"bad edge \(1, 0\)"):
        Graph(2, frozenset({(1, 0)}))
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)


def test_built_takes_the_fields_and_skips_post_init():
    # for constructors whose values are valid by construction: nothing is checked
    assert Graph._built(3, EDGES, frozenset()) == Graph(3, EDGES)
    assert Digraph._built(2, frozenset({(0, 1)})) == Digraph(2, frozenset({(0, 1)}))
    unchecked = Coloring._built((5,), 1)
    assert unchecked.colors == (5,) and unchecked != Coloring((0,), 1)
    with pytest.raises(AttributeError):
        unchecked.k = 2


def test_cached_property_is_cached():
    g = Graph(3, EDGES)
    masks = g.neighbor_masks
    assert masks == (0b010, 0b101, 0b010)
    assert g.neighbor_masks is masks and g.__dict__["neighbor_masks"] is masks
    # the cache is not a field: it stays out of equality, the repr and _replace
    assert g == Graph(3, EDGES) and "neighbor_masks" not in repr(g)
    assert "neighbor_masks" not in g._replace().__dict__


def test_a_field_without_a_default_may_not_follow_one_with():
    with pytest.raises(TypeError, match="without a default follows one with"):
        class Bad(Record):
            left: int = 0
            right: int
