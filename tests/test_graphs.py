from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcolor.graphs import (
    Digraph,
    Graph,
    add_loops,
    blowup,
    circular_clique,
    complete_digraph,
    complete_graph,
    cycle,
    digraph_product,
    distances,
    kneser,
    kneser_subsets,
    named,
    reverse,
    tensor_product,
    underline,
)
from prodcolor.solvers import chromatic_number, girth, independence_number, k_colorable

from oracles import brute_has_cycle_of_length, brute_independence


def small_graphs(max_n=6, p=0.5):
    """Hypothesis strategy: random loopless graphs up to max_n vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])

    return build()


# ---------------------------------------------------------------------------
# type validation


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # must be normalized (u < v)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, frozenset(), frozenset({5}))


def test_digraph_rejects_self_arcs():
    with pytest.raises(ValueError):
        Digraph.from_arcs(3, [(1, 1)])
    d = Digraph.from_arcs(2, [(0, 1), (1, 0)])  # digon is fine
    assert len(d.arcs) == 2


def test_from_edges_normalizes():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})


# ---------------------------------------------------------------------------
# generators


def test_complete_graph():
    assert complete_graph(1).n == 1
    assert len(complete_graph(1).edges) == 0
    assert len(complete_graph(4).edges) == 6
    with pytest.raises(ValueError):
        complete_graph(0)


def test_complete_graph_chromatic():
    assert chromatic_number(complete_graph(4)) == 4


def test_cycle():
    c5 = cycle(5)
    assert c5.n == 5 and len(c5.edges) == 5
    assert girth(c5) == 5
    assert chromatic_number(cycle(6)) == 2
    with pytest.raises(ValueError):
        cycle(2)


def test_kneser_counts():
    g = kneser(5, 2)
    assert g.n == 10
    # each 2-set is disjoint from C(3,2) = 3 others
    assert len(g.edges) == 15
    assert all(g.degree(v) == 3 for v in range(g.n))


def test_kneser_perfect_matching():
    for k in (1, 2, 3):
        g = kneser(2 * k, k)
        assert all(g.degree(v) == 1 for v in range(g.n))


def test_kneser_vertex_order_lexicographic():
    assert kneser_subsets(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_kneser_rejects_bad_params():
    with pytest.raises(ValueError):
        kneser(3, 2)
    with pytest.raises(ValueError):
        kneser(2, 0)


def test_kneser_5_2_chromatic():
    assert chromatic_number(kneser(5, 2)) == 3  # m - 2k + 2


def test_circular_clique():
    assert circular_clique(5, 1).edges == complete_graph(5).edges
    c = circular_clique(5, 2)
    assert len(c.edges) == 5 and all(c.degree(v) == 2 for v in range(5))
    assert girth(c) == 5  # it is a 5-cycle
    seven = circular_clique(7, 2)
    assert all(seven.degree(v) == 4 for v in range(7))
    with pytest.raises(ValueError):
        circular_clique(3, 2)


def test_named_heawood():
    hw = named("heawood")
    assert hw.n == 14 and len(hw.edges) == 21
    assert all(hw.degree(v) == 3 for v in range(14))
    assert girth(hw) == 6
    # independent oracle: no short cycles, but a 6-cycle exists
    assert not brute_has_cycle_of_length(hw, 3)
    assert not brute_has_cycle_of_length(hw, 4)
    assert not brute_has_cycle_of_length(hw, 5)
    assert brute_has_cycle_of_length(hw, 6)


def test_named_petersen_independence():
    assert independence_number(named("petersen")) == 4
    assert brute_independence(named("petersen")) == 4


def test_named_w5_chromatic():
    assert chromatic_number(named("w5")) == 4


def test_named_grotzsch():
    g = named("grotzsch")
    assert g.n == 11
    assert girth(g) == 4  # triangle-free
    assert chromatic_number(g) == 4


# identifier -> the graph it names, or a pattern of the ValueError it raises
_NAMED_CASES = {
    "k1": complete_graph(1),
    "k4": complete_graph(4),
    "c3": cycle(3),
    "c7": cycle(7),
    "nope": "unknown catalog graph 'nope' .*k<n>, c<n>",
    "k0": "complete_graph needs n >= 1",
    "c2": "cycle needs n >= 3",
    "k04": "unknown catalog graph",
    "kx": "unknown catalog graph",
    "k": "unknown catalog graph",
    "c\u0663": "unknown catalog graph",  # ARABIC-INDIC DIGIT THREE
}


@pytest.mark.parametrize("identifier", list(_NAMED_CASES))
def test_named_identifiers(identifier):
    expected = _NAMED_CASES[identifier]
    if isinstance(expected, Graph):
        assert named(identifier) == expected
    else:
        with pytest.raises(ValueError, match=expected):
            named(identifier)


# ---------------------------------------------------------------------------
# tensor product


def test_tensor_k2_k2():
    g = tensor_product(complete_graph(2), complete_graph(2))
    assert g.n == 4
    # only the two cross pairs satisfy both adjacencies
    assert g.edges == frozenset({(0, 3), (1, 2)})
    assert not g.loops


def test_tensor_k2_k3():
    g = tensor_product(complete_graph(2), complete_graph(3))
    assert g.n == 6 and len(g.edges) == 6
    assert chromatic_number(g) == 2


def test_tensor_c5_c5_chromatic():
    prod = tensor_product(cycle(5), cycle(5))
    # oracle, lower: the diagonal is a 5-cycle, so the product is not bipartite
    diag = [i * 5 + i for i in range(5)]
    for a in range(5):
        assert prod.has_edge(diag[a], diag[(a + 1) % 5]) or prod.has_edge(
            diag[a], diag[(a + 2) % 5]
        )
    assert k_colorable(prod, 2) is None
    # oracle, upper: projecting a 3-coloring of C5 colors the product
    base = k_colorable(cycle(5), 3)
    projected = tuple(base.colors[v // 5] for v in range(25))
    assert all(projected[u] != projected[v] for u, v in prod.edges)
    assert chromatic_number(prod) == 3


def test_tensor_loop_rule():
    looped = add_loops(complete_graph(2))
    prod = tensor_product(looped, complete_graph(3))
    # the loop at x in the first factor induces K3 copies inside each fiber
    assert prod.has_edge(0, 1)  # (0,0)-(0,1) via loop at 0 and edge 01 in K3
    assert chromatic_number(prod) == 3
    assert not prod.loops  # K3 contributes no loops


def test_tensor_loops_only_when_both_loop():
    g = add_loops(complete_graph(2))
    h = Graph.from_edges(2, [(0, 1)], loops=[1])
    prod = tensor_product(g, h)
    assert prod.loops == frozenset({0 * 2 + 1, 1 * 2 + 1})


@settings(max_examples=30, deadline=None)
@given(small_graphs(5), small_graphs(5))
def test_tensor_projection_is_homomorphism(g, h):
    prod = tensor_product(g, h)
    for u, v in prod.edges:
        x, xp = u // h.n, v // h.n
        assert g.adjacent_or_loop(x, xp)


@settings(max_examples=15, deadline=None)
@given(small_graphs(5), small_graphs(5))
def test_tensor_chromatic_bound(g, h):
    prod = tensor_product(g, h)
    assert chromatic_number(prod) <= min(chromatic_number(g), chromatic_number(h))


# ---------------------------------------------------------------------------
# blowup / loops


def test_blowup_q1_identity():
    g = named("petersen")
    assert blowup(g, 1) == g


def test_blowup_c5_2():
    b = blowup(cycle(5), 2)
    assert b.n == 10 and len(b.edges) == 25
    assert all(b.degree(v) == 5 for v in range(10))


def test_blowup_c5_3_independence():
    assert independence_number(blowup(cycle(5), 3)) == 2
    assert brute_independence(blowup(cycle(5), 3)) == 2


def test_blowup_rejects():
    with pytest.raises(ValueError):
        blowup(add_loops(cycle(5)), 2)
    with pytest.raises(ValueError):
        blowup(cycle(5), 0)


def test_blowup_preserves_independence_number_samples():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.randint(2, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        alpha = independence_number(g)
        for q in (2, 3):
            assert independence_number(blowup(g, q)) == alpha


def test_add_loops():
    g = add_loops(complete_graph(1))
    assert g.loops == frozenset({0})
    assert add_loops(add_loops(cycle(5))) == add_loops(cycle(5))


# ---------------------------------------------------------------------------
# digraphs


def test_complete_digraph():
    assert complete_digraph(2).arcs == frozenset({(0, 1), (1, 0)})
    assert len(complete_digraph(4).arcs) == 12
    assert underline(complete_digraph(3)) == complete_graph(3)
    with pytest.raises(ValueError):
        complete_digraph(0)


def test_digraph_product_counts():
    d1 = Digraph.from_arcs(2, [(0, 1)])
    d2 = Digraph.from_arcs(2, [(1, 0)])
    prod = digraph_product(d1, d2)
    assert prod.arcs == frozenset({(0 * 2 + 1, 1 * 2 + 0)})
    k2 = complete_digraph(2)
    assert len(digraph_product(k2, k2).arcs) == 4


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_digraph_product_arc_count_multiplicative(data):
    def rand_digraph(label):
        n = data.draw(st.integers(1, 4), label=label)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        )
        return Digraph.from_arcs(n, [a for a, keep in zip(pairs, mask) if keep])

    d1, d2 = rand_digraph("d1"), rand_digraph("d2")
    assert len(digraph_product(d1, d2).arcs) == len(d1.arcs) * len(d2.arcs)


def test_reverse():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 1)])
    assert reverse(reverse(d)) == d
    assert reverse(complete_digraph(4)) == complete_digraph(4)
    digon = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert reverse(digon) == digon


def test_underline():
    assert underline(complete_digraph(4)) == complete_graph(4)
    single = Digraph.from_arcs(2, [(0, 1)])
    assert underline(single).edges == frozenset({(0, 1)})
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    assert underline(reverse(d)) == underline(d)


def test_underline_decomposition_identity_sampled():
    rng = random.Random(5)
    for _ in range(25):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        d1 = Digraph.from_arcs(
            n1, [(x, y) for x in range(n1) for y in range(n1) if x != y and rng.random() < 0.4]
        )
        d2 = Digraph.from_arcs(
            n2, [(x, y) for x in range(n2) for y in range(n2) if x != y and rng.random() < 0.4]
        )
        lhs = tensor_product(underline(d1), underline(d2)).edges
        rhs = (
            underline(digraph_product(d1, d2)).edges
            | underline(digraph_product(d1, reverse(d2))).edges
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# distances


def test_distances_c5():
    assert distances(cycle(5), 0) == [0, 1, 2, 2, 1]


def test_distances_k4():
    assert distances(complete_graph(4), 0) == [0, 1, 1, 1]


def test_distances_heawood_eccentricity():
    hw = named("heawood")
    for v in range(14):
        dist = distances(hw, v)
        assert max(dist) == 3
    # independent oracle via adjacency powers: (A+I)^3 positive, (A+I)^2 not
    a = np.zeros((14, 14), dtype=np.int64)
    for u, v in hw.edges:
        a[u, v] = a[v, u] = 1
    reach2 = np.linalg.matrix_power(a + np.eye(14, dtype=np.int64), 2)
    reach3 = np.linalg.matrix_power(a + np.eye(14, dtype=np.int64), 3)
    assert (reach3 > 0).all() and not (reach2 > 0).all()


def test_distances_unreachable_and_errors():
    g = Graph.from_edges(3, [(0, 1)])
    assert distances(g, 0) == [0, 1, math.inf]
    with pytest.raises(ValueError):
        distances(g, 3)


def test_distances_ignore_loops():
    g = Graph.from_edges(2, [(0, 1)], loops=[0])
    assert distances(g, 0) == [0, 1]
