from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodcolor import solvers
from prodcolor.exponential import ExpContext, materialize_exponential
from prodcolor.graphs import (
    Graph,
    add_loops,
    blowup,
    complete_graph,
    cycle,
    kneser,
    named,
    tensor_product,
)
from prodcolor.solvers import (
    Coloring,
    HomMap,
    chromatic_number,
    find_homomorphism,
    girth,
    greedy_clique,
    independence_number,
    is_homomorphism,
    is_proper_coloring,
    k_colorable,
    max_weight_independent_set,
    maximal_independent_sets,
    optimal_coloring,
)

from oracles import (
    brute_chromatic,
    brute_girth,
    brute_greedy_independent_set,
    brute_homomorphism_exists,
    brute_independence,
    brute_k_colorable,
    brute_max_weight_independent_set,
    brute_maximal_independent_sets,
    reference_hom_search,
)


def _random_graph(rng, n_max=7, p=0.5):
    n = rng.randint(1, n_max)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def small_graphs(max_n=6, loops=False):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        looped = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if loops else []
        return Graph.from_edges(
            n, [e for e, keep in zip(pairs, mask) if keep], [v for v, on in enumerate(looped) if on]
        )

    return build()


# ---------------------------------------------------------------------------
# proper colorings


def test_is_proper_basics():
    k2 = complete_graph(2)
    assert is_proper_coloring(k2, Coloring((0, 1), 2))
    assert not is_proper_coloring(k2, Coloring((0, 0), 2))


def test_is_proper_rejects_partial_and_loops():
    with pytest.raises(ValueError):
        is_proper_coloring(complete_graph(3), Coloring((0, 1), 2))
    with pytest.raises(ValueError):
        is_proper_coloring(add_loops(complete_graph(2)), Coloring((0, 1), 2))


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring((0, 3), 2)
    with pytest.raises(ValueError):
        Coloring((0,), -1)


def test_projection_coloring_is_proper():
    rng = random.Random(3)
    for _ in range(10):
        g, h = _random_graph(rng, 5), _random_graph(rng, 5)
        chi = chromatic_number(g)
        if chi == 0:
            continue
        phi = k_colorable(g, chi)
        prod = tensor_product(g, h)
        lifted = Coloring(tuple(phi.colors[v // h.n] for v in range(prod.n)), chi)
        assert is_proper_coloring(prod, lifted)


# ---------------------------------------------------------------------------
# k-colorability / chromatic number


def test_k_colorable_c5():
    assert k_colorable(cycle(5), 2) is None
    col = k_colorable(cycle(5), 3)
    assert col is not None and is_proper_coloring(cycle(5), col)


def test_k_colorable_kneser83():
    assert k_colorable(kneser(8, 3), 3) is None


def test_k_colorable_edge_cases():
    empty = Graph(0)
    assert k_colorable(empty, 0) == Coloring((), 0)
    single = Graph(1)
    assert k_colorable(single, 0) is None
    assert k_colorable(single, 1) is not None
    with pytest.raises(ValueError):
        k_colorable(add_loops(single), 1)
    with pytest.raises(ValueError):
        k_colorable(single, -1)


def test_k_colorable_deterministic():
    g = named("petersen")
    assert k_colorable(g, 3) == k_colorable(g, 3)


@settings(max_examples=25, deadline=None)
@given(small_graphs(6), st.integers(0, 6))
@example(Graph(0), 0)
@example(Graph(0), 1)
@example(Graph(0), 2)
def test_k_colorable_matches_brute(g, k):
    got = k_colorable(g, k)
    assert (got is not None) == brute_k_colorable(g, k)
    if got is not None:
        assert is_proper_coloring(g, got)


@settings(max_examples=20, deadline=None)
@given(small_graphs(6), st.integers(0, 5))
def test_k_colorable_monotone(g, k):
    if k_colorable(g, k) is not None:
        assert k_colorable(g, k + 1) is not None


def test_chromatic_known_values():
    assert chromatic_number(kneser(7, 3)) == 3
    assert chromatic_number(tensor_product(complete_graph(4), complete_graph(5))) == 4
    assert chromatic_number(blowup(cycle(5), 2)) == 5
    assert brute_chromatic(blowup(cycle(5), 2)) == 5


def test_chromatic_conventions():
    assert chromatic_number(Graph(0)) == 0
    assert chromatic_number(Graph(3)) == 1
    with pytest.raises(ValueError):
        chromatic_number(add_loops(Graph(1)))


@settings(max_examples=25, deadline=None)
@given(small_graphs(7))
@example(Graph(0))
def test_chromatic_matches_brute(g):
    assert chromatic_number(g) == brute_chromatic(g)


@st.composite
def _peelable_graphs(draw):
    """Up to 9 vertices: several small components, pendant paths, isolated vertices."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, min(4, 9 - n)))
        block = list(combinations(range(n, n + size), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(block), max_size=len(block)))
        edges += [e for e, keep in zip(block, mask) if keep]
        tip = n + draw(st.integers(0, size - 1))
        n += size
        for _ in range(draw(st.integers(0, 2))):
            if n == 9:
                break
            edges.append((tip, n))
            tip, n = n, n + 1
        if n >= 8:
            break
    n += draw(st.integers(0, 9 - n))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=60, deadline=None)
@given(_peelable_graphs())
# a 4-cycle, a triangle with a pendant vertex and an isolated vertex: both
# cycles survive in the 2-core, and the 3-chromatic one is not the first
@example(Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6), (6, 7)]))
@example(Graph(0))
def test_chromatic_matches_brute_across_cores_and_components(g):
    assert chromatic_number(g) == brute_chromatic(g)


@st.composite
def _cores_with_pendant_trees(draw):
    """Up to 8 vertices: a core, trees hanging off it, then isolated vertices."""
    core = draw(small_graphs(5))
    edges = list(core.edges)
    n = core.n + draw(st.integers(0, 8 - core.n))
    for v in range(core.n, n):
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=80, deadline=None)
@given(st.one_of(_cores_with_pendant_trees(), _peelable_graphs(), st.integers(0, 8).map(Graph)))
@example(Graph(0))
@example(Graph(1))
@example(Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (0, 6)]))
def test_optimal_coloring_is_proper_with_chi_colors(g):
    coloring = optimal_coloring(g)
    assert is_proper_coloring(g, coloring)
    assert coloring.k == brute_chromatic(g) == chromatic_number(g)
    assert coloring.colors_used() == coloring.k


@settings(max_examples=60, deadline=None)
@given(small_graphs(6), st.data())
def test_chi_and_optimal_coloring_with_isolated_vertices(g, data):
    # isolated vertices take color 0 up front; the search runs on the rest,
    # relabeled in order, and the colors return to the original labels
    n = g.n + data.draw(st.integers(1, 6))
    perm = data.draw(st.permutations(range(n)))
    spread = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    coloring = optimal_coloring(spread)
    assert coloring.k == chromatic_number(spread) == brute_chromatic(spread)
    assert is_proper_coloring(spread, coloring)
    touched = {v for e in spread.edges for v in e}
    assert all(coloring.colors[v] == 0 for v in range(n) if v not in touched)
    # the unchecked lists and masks of the search equal those of the checked
    # graphs: the graph on the vertices with an edge, and each 2-core component
    order, adjacency = solvers._core_input(spread)
    assert order == sorted(touched)
    index = {v: i for i, v in enumerate(order)}
    core = Graph.from_edges(len(order), [(index[u], index[v]) for u, v in spread.edges])
    assert adjacency == [core.neighbors(v) for v in range(core.n)]
    for vertices, part, _ in solvers._core_components(adjacency, 2)[1]:
        index = {v: i for i, v in enumerate(vertices)}
        induced = [(index[u], index[v]) for u, v in core.edges if u in index and v in index]
        assert part == list(Graph.from_edges(len(vertices), induced).neighbor_masks)


def test_equal_graphs_give_equal_witnesses():
    # a frozenset iterates in an order set by its insertion history, so the
    # same edges given in another order may iterate differently; the witnesses
    # are functions of the graph's value. This seed found 4 rebuilt graphs
    # whose coloring moved when peeling followed the edge set's order
    rng = random.Random(3)
    reordered = 0
    for _ in range(200):
        n = rng.randint(2, 40)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1]
        g = Graph.from_edges(n, edges)
        coloring = optimal_coloring(g)
        colors = k_colorable(g, coloring.k)
        hom = find_homomorphism(g, complete_graph(3))
        for _ in range(3):
            rng.shuffle(edges)
            h = Graph.from_edges(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
            assert h == g
            reordered += list(h.edges) != list(g.edges)
            assert optimal_coloring(h) == coloring
            assert k_colorable(h, coloring.k) == colors
            assert find_homomorphism(h, complete_graph(3)) == hom
    assert reordered > 300


def test_optimal_coloring_extends_over_the_peeled_vertices():
    # K(9,3) is 5-chromatic; hanging a path and a star off it and adding an
    # isolated vertex leaves the 5-core as it was
    base = kneser(9, 3)
    n = base.n
    extra = [(0, n), (n, n + 1), (n + 1, n + 2), (5, n + 3), (n + 3, n + 4), (n + 3, n + 5)]
    g = Graph.from_edges(n + 7, list(base.edges) + extra)
    coloring = optimal_coloring(g)
    assert coloring.k == 5 and is_proper_coloring(g, coloring)
    with pytest.raises(ValueError):
        optimal_coloring(add_loops(Graph(1)))


def test_chromatic_exponential_k3_over_k7():
    # El-Zahar-Sauer: chi(K_3^G) = 3 once chi(G) >= 4; most of the 2,187 maps peel away
    from prodcolor.exponential import ExpContext, materialize_exponential

    assert chromatic_number(materialize_exponential(ExpContext(complete_graph(7), 3))) == 3


def test_chromatic_at_least_n_over_alpha():
    for g in (cycle(5), named("petersen"), kneser(5, 2), blowup(cycle(5), 2)):
        assert chromatic_number(g) >= math.ceil(g.n / independence_number(g))


def test_greedy_clique_is_clique():
    for g in (named("petersen"), kneser(6, 2), complete_graph(5)):
        clique = greedy_clique(g)
        assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))


# ---------------------------------------------------------------------------
# independence number


def test_independence_known():
    assert independence_number(cycle(5)) == 2
    assert independence_number(named("petersen")) == 4
    assert independence_number(named("heawood")) == 7
    assert brute_independence(named("heawood")) == 7
    assert independence_number(blowup(named("heawood"), 2)) == 7
    assert independence_number(Graph(0)) == 0


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_graphs(7), _peelable_graphs()))
@example(Graph(0))
def test_independence_matches_brute(g):
    assert independence_number(g) == brute_independence(g)


def test_independence_isolated_vertices_at_scale():
    # isolated vertices are counted, not searched; a quadratic start took seconds here
    assert independence_number(Graph(5000)) == 5000
    assert independence_number(Graph.from_edges(3002, [(0, 1)])) == 3001
    # components are searched one at a time; one greedy over the whole matching took seconds
    matching = Graph.from_edges(4000, [(v, v + 1) for v in range(0, 4000, 2)])
    assert independence_number(matching) == 2000
    # one connected component: the greedy start and the clique-cover bound
    # must stay near-linear (the path took seconds with a rescanning greedy)
    path = Graph.from_edges(4000, [(v, v + 1) for v in range(3999)])
    assert independence_number(path) == 2000


@st.composite
def _weighted_graphs(draw):
    """Up to 9 vertices (edgeless ones included) with integer weights 0..20."""
    g = draw(st.one_of(small_graphs(9), st.integers(0, 9).map(Graph)))
    weights = draw(st.lists(st.integers(0, 20), min_size=g.n, max_size=g.n))
    return g, weights


@settings(max_examples=150, deadline=None)
@given(_weighted_graphs())
@example((cycle(5), [0, 0, 0, 0, 0]))
@example((Graph(4), [3, 0, 20, 1]))
@example((complete_graph(4), [5, 5, 0, 5]))
@example((Graph(0), []))
def test_max_weight_independent_set_matches_brute(gw):
    g, weights = gw
    weight, chosen = max_weight_independent_set(g, weights)
    assert weight == brute_max_weight_independent_set(g, weights)
    assert list(chosen) == sorted(set(chosen))
    assert all(not g.has_edge(u, v) for u, v in combinations(chosen, 2))
    assert sum(weights[v] for v in chosen) == weight
    assert all(weights[v] > 0 for v in chosen)  # weight-0 vertices are left out


@st.composite
def _positively_weighted_graphs(draw):
    """Up to 12 vertices with integer weights 1..20."""
    g = draw(small_graphs(12))
    return g, draw(st.lists(st.integers(1, 20), min_size=g.n, max_size=g.n))


@settings(max_examples=200, deadline=None)
@given(_positively_weighted_graphs())
@example((Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), [1, 1, 1, 1]))  # ties go to vertex 0
@example((complete_graph(5), [3, 1, 4, 1, 5]))
@example((Graph(0), []))
def test_greedy_independent_set_matches_brute(gw):
    # the search's start: fewest remaining neighbours, lowest index on ties
    from prodcolor._independent_sets import _greedy_independent_set

    g, weights = gw
    weight, chosen = brute_greedy_independent_set(g, weights)
    assert _greedy_independent_set(list(g.neighbor_masks), weights) == (
        weight, sum(1 << v for v in chosen))


def test_max_weight_independent_set_unit_weights_and_errors():
    g = named("petersen")
    assert max_weight_independent_set(g, [1] * g.n)[0] == independence_number(g) == 4
    # one heavy vertex beats any set of its neighbours' light ones
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert max_weight_independent_set(star, [4, 1, 1, 1]) == (4, (0,))
    assert max_weight_independent_set(star, [2, 1, 1, 1]) == (3, (1, 2, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        max_weight_independent_set(star, [1, -1, 1, 1])
    with pytest.raises(ValueError, match="weights given"):
        max_weight_independent_set(star, [1, 1])
    with pytest.raises(ValueError):
        max_weight_independent_set(add_loops(star), [1] * 4)


# ---------------------------------------------------------------------------
# girth


def test_girth_known():
    assert girth(named("heawood")) == 6
    assert girth(complete_graph(4)) == 3
    assert girth(Graph.from_edges(3, [(0, 1), (1, 2)])) == math.inf
    assert girth(Graph(1)) == math.inf


@settings(max_examples=25, deadline=None)
@given(small_graphs(7))
@example(Graph(0))
def test_girth_matches_brute(g):
    assert girth(g) == brute_girth(g)


# ---------------------------------------------------------------------------
# homomorphisms


def test_hom_reflexive():
    for g in (cycle(5), named("petersen")):
        hom = find_homomorphism(g, g)
        assert hom is not None and is_homomorphism(g, g, hom)


def test_hom_c5_to_k3():
    hom = find_homomorphism(cycle(5), complete_graph(3))
    assert hom is not None
    assert is_homomorphism(cycle(5), complete_graph(3), hom)


def test_hom_k3_to_c5_absent():
    assert find_homomorphism(complete_graph(3), cycle(5)) is None
    assert not brute_homomorphism_exists(complete_graph(3), cycle(5))


def test_hom_loops_as_targets():
    # a loop absorbs anything: K3 -> single looped vertex
    target = add_loops(Graph(1))
    hom = find_homomorphism(complete_graph(3), target)
    assert hom is not None and is_homomorphism(complete_graph(3), target, hom)
    # but a loop cannot map to a loopless vertex
    assert find_homomorphism(add_loops(Graph(1)), complete_graph(2)) is None


@settings(max_examples=60, deadline=None)
@given(small_graphs(5, loops=True), small_graphs(4, loops=True))
# the looped target vertex 1 and the unlooped 0 have the same neighbours but
# are not twins: a twin rule that ignored loops would try only 0 and miss 1 -> 1
@example(complete_graph(2), Graph.from_edges(2, [], [1]))
# the empty graph, K1 and K2 in both directions
@example(Graph(0), Graph(0))
@example(Graph(0), Graph(1))
@example(Graph(1), Graph(0))
@example(Graph(0), complete_graph(2))
@example(complete_graph(2), Graph(0))
def test_hom_matches_brute(g, h):
    hom = find_homomorphism(g, h)
    assert (hom is not None) == brute_homomorphism_exists(g, h)
    if hom is not None:
        assert is_homomorphism(g, h, hom)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hom_c5_petersen_to_c5_relabelled(seed):
    # C5 x Petersen -> C5 by projection; the witness found may differ per labelling
    rng = random.Random(seed)
    g, h = tensor_product(cycle(5), named("petersen")), cycle(5)
    perm = list(range(g.n))
    rng.shuffle(perm)
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    hom = find_homomorphism(g, h)
    assert hom is not None and is_homomorphism(g, h, hom)


@pytest.mark.parametrize(
    "mapping, why",
    [
        ((0, 1, 0, 1, 2, 0), "the mapping has 6 entries for the 5 vertices of C5"),
        ((0, 1, 0, 1), "the mapping has 4 entries for the 5 vertices of C5"),
        ((0, 1, 0, 1, 3), "vertex 4 maps to 3, outside K3"),
        ((0, 1, 0, 1, -1), "vertex 4 maps to -1, outside K3"),
    ],
    ids=["too-long", "too-short", "image-above-h", "image-below-h"],
)
def test_is_homomorphism_refuses_malformed_maps(mapping, why):
    # (0, 1, 0, 1, 2) is a 3-coloring of C5; each row breaks its shape
    assert is_homomorphism(cycle(5), complete_graph(3), HomMap((0, 1, 0, 1, 2)))
    assert not is_homomorphism(cycle(5), complete_graph(3), HomMap(mapping)), why


def test_hom_composition():
    g, h, q = cycle(5), complete_graph(3), complete_graph(4)
    first = find_homomorphism(g, h)
    then = find_homomorphism(h, q)
    assert first and then
    composite = HomMap(tuple(then.mapping[w] for w in first.mapping))
    assert is_homomorphism(g, q, composite)


def test_hom_implies_chromatic_order():
    rng = random.Random(9)
    for _ in range(10):
        g, h = _random_graph(rng, 5), _random_graph(rng, 5)
        if find_homomorphism(g, h) is not None:
            assert chromatic_number(g) <= chromatic_number(h)


# ---------------------------------------------------------------------------
# the homomorphism search against its per-vertex reference


def _reference_k_colorable(g, k):
    """k_colorable's answer from the reference search, with the same set-up:
    the greedy clique's vertices fixed to colors 0, 1, ..."""
    if g.n == 0:
        return ()
    clique = greedy_clique(g)
    if k == 0 or len(clique) > k:
        return None
    full = (1 << k) - 1
    domains = [full] * g.n
    for i, v in enumerate(clique):
        domains[v] = 1 << i
    colors = reference_hom_search(g.neighbor_masks, [full ^ (1 << c) for c in range(k)], domains)
    return None if colors is None else tuple(colors)


def _reference_hom(g, h):
    """find_homomorphism's answer from the reference search: loops of h are
    values, and a loop of g must land on one."""
    values = list(h.neighbor_masks)
    loopmask = 0
    for w in h.loops:
        values[w] |= 1 << w
        loopmask |= 1 << w
    full = (1 << h.n) - 1
    domains = [loopmask if v in g.loops else full for v in range(g.n)]
    mapping = reference_hom_search(g.neighbor_masks, values, domains)
    return None if mapping is None else tuple(mapping)


def _colors(g, k):
    coloring = k_colorable(g, k)
    return None if coloring is None else coloring.colors


def _mapping(g, h):
    hom = find_homomorphism(g, h)
    return None if hom is None else hom.mapping


@settings(max_examples=200, deadline=None)
@given(small_graphs(12, loops=True), small_graphs(6, loops=True), st.integers(0, 6))
@example(Graph(0), Graph(0), 0)
def test_searches_return_the_reference_witness(g, h, k):
    # value-major domains reach the same fixpoint at every branch point as
    # per-vertex ones, so the same vertex and values are tried: equal witnesses
    assert _mapping(g, h) == _reference_hom(g, h)
    loopless = Graph(g.n, g.edges)
    assert _colors(loopless, k) == _reference_k_colorable(loopless, k)


@pytest.mark.parametrize("name", ["kneser-9-3", "grotzsch2", "exp-3-k7"])
def test_chromatic_number_colorings_match_the_reference(monkeypatch, name):
    # the chi instances of the search benchmark, at every k chromatic_number tries
    g = {
        "kneser-9-3": lambda: kneser(9, 3),
        "grotzsch2": lambda: tensor_product(named("grotzsch"), named("grotzsch")),
        "exp-3-k7": lambda: materialize_exponential(ExpContext(complete_graph(7), 3)),
    }[name]()
    tried = []
    real = solvers._k_coloring

    def spy(masks, k, clique):
        colors = real(masks, k, clique)
        tried.append((masks, k, clique, None if colors is None else tuple(colors)))
        return colors

    monkeypatch.setattr(solvers, "_k_coloring", spy)
    chi = chromatic_number(g)
    monkeypatch.undo()
    assert chi == {"kneser-9-3": 5, "grotzsch2": 4, "exp-3-k7": 3}[name]
    # K_3^{K7} has an empty 3-core, so chromatic_number searches nothing there
    assert bool(tried) == (name != "exp-3-k7")
    for masks, k, clique, colors in tried:
        edges = [(u, v) for u, m in enumerate(masks) for v in range(u) if m >> v & 1]
        part = Graph.from_edges(len(masks), edges)
        assert list(part.neighbor_masks) == masks and clique == greedy_clique(part)
        assert colors == _colors(part, k) == _reference_k_colorable(part, k)
    assert _colors(g, chi) == _reference_k_colorable(g, chi)


@pytest.mark.parametrize(
    "g, h, found",
    [(tensor_product(cycle(5), named("petersen")), cycle(5), True), (kneser(6, 2), cycle(5), False)],
)
def test_hom_instances_match_the_reference(g, h, found):
    assert (_mapping(g, h) is not None) == found
    assert _mapping(g, h) == _reference_hom(g, h)


def test_search_boundaries():
    # no vertices to place, no value to place them on, and a clique above k
    for h in (Graph(0), complete_graph(3), add_loops(Graph(1))):
        assert find_homomorphism(Graph(0), h) == HomMap(())
    for g in (Graph(1), add_loops(Graph(1)), cycle(5)):
        assert find_homomorphism(g, Graph(0)) is None
    for g, k in ((complete_graph(4), 3), (named("w5"), 2), (Graph(1), 0)):
        assert len(greedy_clique(g)) > k
        assert k_colorable(g, k) is None


def test_k4_coloring_of_the_exponential_over_c5_join_k2_is_pinned():
    # C5 joined to K2 (chi = 5). K_4^G has 16,384 maps and its 4-coloring takes
    # about 16,000 nodes, so a search that scans the unplaced vertices to pick
    # each branch vertex needs half a minute here; the coloring is pinned
    join = [(i, (i + 1) % 5) for i in range(5)] + [(5, 6)] + [(i, j) for i in range(5) for j in (5, 6)]
    g = Graph.from_edges(7, join)
    assert chromatic_number(g) == 5
    expo = materialize_exponential(ExpContext(g, 4))
    assert (expo.n, len(expo.edges), len(expo.loops)) == (16384, 103014, 0)
    coloring = k_colorable(expo, 4)
    assert coloring is not None and is_proper_coloring(expo, coloring)
    digest = hashlib.sha256(bytes(coloring.colors)).hexdigest()
    assert digest == "62b50e5fdd2728eba6241c898737005be972fdfe8d659725b7125b35f342c966"


# ---------------------------------------------------------------------------
# maximal independent sets


def test_mis_c5():
    sets = maximal_independent_sets(cycle(5))
    assert sets == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_mis_petersen_count():
    assert len(maximal_independent_sets(named("petersen"))) == 15


@settings(max_examples=25, deadline=None)
@given(small_graphs(7))
# the one maximal independent set of the empty graph is the empty set
@example(Graph(0))
def test_mis_matches_brute(g):
    assert maximal_independent_sets(g) == brute_maximal_independent_sets(g)


def test_searches_leave_the_recursion_limit_alone():
    # every search runs on an explicit stack, so deep inputs need no raised limit
    import os
    import subprocess
    import sys

    import prodcolor

    src = os.path.dirname(os.path.dirname(prodcolor.__file__))
    script = (
        "import sys\n"
        "from prodcolor import *\n"
        "sys.setrecursionlimit(200)\n"
        "path = Graph.from_edges(400, [(v, v + 1) for v in range(399)])\n"
        "print(k_colorable(Graph(400), 2) is not None,\n"
        "      find_homomorphism(Graph(400), complete_graph(2)) is not None,\n"
        "      len(maximal_independent_sets(Graph(400))),\n"
        "      independence_number(path),\n"
        "      sys.getrecursionlimit())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "1", "200", "200"]
