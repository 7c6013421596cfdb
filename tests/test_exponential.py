from __future__ import annotations

import hashlib
import random
import re
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcolor import exponential, graphs, solvers
from prodcolor.errors import CapExceeded
from prodcolor.exponential import (
    ExpContext,
    ExpMap,
    MuCliqueReport,
    NormalizationError,
    constant_map,
    exp_adjacent,
    index_to_map,
    is_simple,
    materialize_exponential,
    maximal_boxes,
    normalize_on_constants,
    observation_image_check,
    retract,
    secondary_block,
    shitov_mu,
    shitov_theta,
    universal_property_check,
    verify_mu_clique,
)
from prodcolor.graphs import (
    Graph,
    add_loops,
    blowup,
    complete_graph,
    cycle,
    distances,
    named,
)
from prodcolor.serialize import serialize_graph
from prodcolor.solvers import (
    Coloring,
    chromatic_number,
    find_homomorphism,
    is_homomorphism,
    is_proper_coloring,
    k_colorable,
    optimal_coloring,
)

from oracles import brute_exp_adjacent, brute_maximal_boxes, simple_maps_adjacent


def _path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def _all_maps(ctx: ExpContext):
    return [index_to_map(ctx, t) for t in range(ctx.num_maps)]


# ---------------------------------------------------------------------------
# adjacency predicate


def test_exp_k2_k2_by_hand():
    ctx = ExpContext(complete_graph(2), 2)
    maps = _all_maps(ctx)
    assert [m.values for m in maps] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    # the only non-loop edge joins the two constant maps
    assert exp_adjacent(maps[0], maps[3])
    for a, b in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]:
        assert not exp_adjacent(maps[a], maps[b])
    # loops exactly at the two proper colorings
    assert not exp_adjacent(maps[0], maps[0])
    assert exp_adjacent(maps[1], maps[1])
    assert exp_adjacent(maps[2], maps[2])
    assert not exp_adjacent(maps[3], maps[3])


def test_exp_k2_k2_materialized():
    g = materialize_exponential(ExpContext(complete_graph(2), 2))
    assert g.n == 4
    assert g.edges == frozenset({(0, 3)})
    assert g.loops == frozenset({1, 2})


def test_spec_example_false_pair():
    ctx = ExpContext(complete_graph(2), 2)
    f = ExpMap(ctx, (0, 0))
    g = ExpMap(ctx, (0, 1))
    assert not exp_adjacent(f, g)


def test_exp_adjacent_context_mismatch():
    a = ExpMap(ExpContext(complete_graph(2), 2), (0, 0))
    b = ExpMap(ExpContext(complete_graph(2), 3), (0, 0))
    with pytest.raises(ValueError, match="different exponential graphs"):
        exp_adjacent(a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exp_adjacent_matches_brute_and_symmetric(data):
    n = data.draw(st.integers(1, 4))
    pairs = list(combinations(range(n), 2))
    emask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loops = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    base = Graph.from_edges(n, [e for e, k in zip(pairs, emask) if k], loops)
    c = data.draw(st.integers(1, 3))
    ctx = ExpContext(base, c)
    f = ExpMap(ctx, tuple(data.draw(st.integers(0, c - 1)) for _ in range(n)))
    g = ExpMap(ctx, tuple(data.draw(st.integers(0, c - 1)) for _ in range(n)))
    got = exp_adjacent(f, g)
    assert got == brute_exp_adjacent(base, f.values, g.values)
    assert got == exp_adjacent(g, f)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_disjoint_images_adjacent(data):
    n = data.draw(st.integers(1, 4))
    pairs = list(combinations(range(n), 2))
    emask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = Graph.from_edges(n, [e for e, k in zip(pairs, emask) if k])
    ctx = ExpContext(base, 4)
    f = ExpMap(ctx, tuple(data.draw(st.integers(0, 1)) for _ in range(n)))
    g = ExpMap(ctx, tuple(data.draw(st.integers(2, 3)) for _ in range(n)))
    assert exp_adjacent(f, g)


def test_loop_iff_proper_coloring():
    base = cycle(5)
    ctx = ExpContext(base, 3)
    rng = random.Random(2)
    for _ in range(25):
        values = tuple(rng.randrange(3) for _ in range(5))
        f = ExpMap(ctx, values)
        proper = is_proper_coloring(base, Coloring(values, 3))
        assert exp_adjacent(f, f) == proper


# ---------------------------------------------------------------------------
# constant maps


def test_constant_maps_clique():
    for base in (complete_graph(2), cycle(5), _path3()):
        ctx = ExpContext(base, 3)
        consts = [constant_map(ctx, i) for i in range(3)]
        for a, b in combinations(consts, 2):
            assert exp_adjacent(a, b)
        assert all(c.image == frozenset({i}) for i, c in enumerate(consts))


def test_constant_adjacent_to_map_missing_its_color():
    ctx = ExpContext(cycle(5), 3)
    phi = ExpMap(ctx, (0, 1, 0, 1, 0))  # image {0, 1}
    assert exp_adjacent(constant_map(ctx, 2), phi)


def test_constant_map_range_check():
    with pytest.raises(ValueError):
        constant_map(ExpContext(cycle(5), 3), 3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ExpContext(cycle(5), 0), ValueError, "palette size must be >= 1, got 0"),
        (lambda: ExpMap(ExpContext(cycle(5), 3), (0, 1, 2)), ValueError,
         "map covers 3 vertices, base has 5"),
        # K_2^{K_2} has 4 maps; a 3-coloring of them has the wrong palette
        (lambda: observation_image_check(ExpContext(complete_graph(2), 2), Coloring((0, 1, 2, 0), 3)),
         NormalizationError, "palette is 3, expected 2"),
        (lambda: normalize_on_constants(ExpContext(complete_graph(2), 2), Coloring((0, 1, 2, 0), 3)),
         ValueError, "need palette 2, coloring has 3"),
    ],
    ids=["palette-below-1", "map-of-wrong-length", "observation-palette", "normalize-palette"],
)
def test_exponential_refuses_malformed_inputs(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_exp_chromatic_at_least_c():
    expo = materialize_exponential(ExpContext(complete_graph(4), 3))
    assert chromatic_number(expo) >= 3


# ---------------------------------------------------------------------------
# materialization


def test_materialize_k4_c3():
    expo = materialize_exponential(ExpContext(complete_graph(4), 3))
    assert expo.n == 81
    assert not expo.loops  # chi(K4) > 3
    assert chromatic_number(expo) == 3


def test_materialize_matches_pairwise_predicate():
    # loopless base, and a reflexive one (the all-loops construction changes
    # adjacency through the per-vertex checks)
    for base in (_path3(), add_loops(_path3())):
        ctx = ExpContext(base, 2)
        expo = materialize_exponential(ctx)
        maps = _all_maps(ctx)
        for a in range(expo.n):
            for b in range(a, expo.n):
                expected = exp_adjacent(maps[a], maps[b])
                if a == b:
                    assert (a in expo.loops) == expected
                else:
                    assert expo.has_edge(a, b) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_materialize_matches_brute_over_all_pairs(data):
    # isolated vertices, loops and c = 1 included; palettes up to 5 on bases
    # of up to 3 vertices, where the c-bit fields of the packed masks are the
    # widest the brute force reaches
    n = data.draw(st.integers(1, 4))
    pairs = list(combinations(range(n), 2))
    emask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loops = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    base = Graph.from_edges(n, [e for e, k in zip(pairs, emask) if k], loops)
    ctx = ExpContext(base, data.draw(st.integers(1, 5 if n <= 3 else 3)))
    expo = materialize_exponential(ctx)
    values = [m.values for m in _all_maps(ctx)]
    assert expo.n == len(values)
    assert expo.loops == {t for t, f in enumerate(values) if brute_exp_adjacent(base, f, f)}
    assert expo.edges == {
        (s, t)
        for s, t in combinations(range(len(values)), 2)
        if brute_exp_adjacent(base, values[s], values[t])
    }


def _check_maps_with_a_neighbour(ctx: ExpContext) -> None:
    """The maps with a neighbour, the edges and the loops all equal the brute
    force, and the trusted graph equals the checked one."""
    # vertex 0 is the least significant digit of a map's index
    values = [f[::-1] for f in product(range(ctx.c), repeat=ctx.base.n)]
    edges = {
        (s, t)
        for s, t in combinations(range(len(values)), 2)
        if brute_exp_adjacent(ctx.base, values[s], values[t])
    }
    loops = {t for t, f in enumerate(values) if brute_exp_adjacent(ctx.base, f, f)}
    assert exponential._neighbour_columns(ctx)[0] == sorted(set(chain(*edges)) | loops)
    expo = materialize_exponential(ctx)
    assert (expo.n, expo.edges, expo.loops) == (len(values), edges, loops)
    checked = Graph.from_edges(expo.n, expo.edges, expo.loops)
    assert expo == checked and hash(expo) == hash(checked)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_materialize_every_base_up_to_three_vertices(n):
    # the neighbourhoods are built in two halves split at n // 2, so n = 0 and
    # n = 1 have an empty low half (and n = 0 an empty high half too); every
    # graph on n vertices, with every loop set, for c = 1, 2, 3 and 4, whose
    # 4-bit fields are the widest the index tables read here
    _check_every_base(n, (1, 2, 3, 4))


def _check_every_base(n: int, palettes: tuple[int, ...]) -> None:
    pairs = list(combinations(range(n), 2))
    for edge_bits in range(2 ** len(pairs)):
        edges = [e for i, e in enumerate(pairs) if edge_bits >> i & 1]
        for loop_bits in range(2**n):
            base = Graph.from_edges(n, edges, [x for x in range(n) if loop_bits >> x & 1])
            for c in palettes:
                _check_maps_with_a_neighbour(ExpContext(base, c))


def test_maps_with_a_neighbour_every_base_on_four_vertices():
    # as above on four vertices: a map whose values fill some N(b) is dropped
    # and stays an isolated vertex at its index
    _check_every_base(4, (1, 2, 3))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_maps_with_a_neighbour_on_five_vertex_bases(data):
    pairs = list(combinations(range(5), 2))
    emask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loops = data.draw(st.lists(st.integers(0, 4), max_size=5))
    base = Graph.from_edges(5, [e for e, k in zip(pairs, emask) if k], loops)
    _check_maps_with_a_neighbour(ExpContext(base, data.draw(st.integers(1, 3))))


def test_grotzsch_exponential_keeps_only_the_maps_with_a_neighbour():
    # El-Zahar-Sauer: K_3^G is 3-chromatic for the 4-chromatic Grotzsch graph;
    # 6,927 of its 177,147 maps have a neighbour, the rest are isolated
    ctx = ExpContext(named("grotzsch"), 3)
    assert len(exponential._neighbour_columns(ctx)[0]) == 6_927
    # the digits at base vertices 5..10 alone fill some N(b) in 450 of their
    # 729 assignments, so 243 * 279 pairs of halves are combined, not 3^11
    assert len(exponential._half_tables(ctx, 5, 11)[0]) == 279
    expo = materialize_exponential(ctx)
    assert (expo.n, len(expo.edges), len(expo.loops)) == (177_147, 32_598, 0)
    coloring = optimal_coloring(expo)
    assert coloring.k == chromatic_number(expo) == 3 and is_proper_coloring(expo, coloring)


def test_materialize_empty_and_single_vertex_bases_by_hand():
    # no base vertex: the one empty map, adjacent to itself (no check to fail)
    expo = materialize_exponential(ExpContext(Graph(0), 2))
    assert (expo.n, expo.edges, expo.loops) == (1, set(), {0})
    # an isolated vertex: every map meets every other one, loops everywhere
    expo = materialize_exponential(ExpContext(Graph(1), 3))
    assert expo.edges == {(0, 1), (0, 2), (1, 2)} and expo.loops == {0, 1, 2}
    # so too with 40 colours: the free-set sizes are counted per packed
    # mask, with no table over all 2^c masks of one vertex
    expo = materialize_exponential(ExpContext(Graph(1), 40))
    assert expo.edges == set(combinations(range(40), 2)) and expo.loops == set(range(40))
    # a looped vertex: the constant maps, all distinct, form K_c without loops
    expo = materialize_exponential(ExpContext(Graph.from_edges(1, [], [0]), 3))
    assert expo.edges == {(0, 1), (0, 2), (1, 2)} and not expo.loops


def test_materialize_caps(monkeypatch):
    with pytest.raises(CapExceeded, match="max_vertices"):
        materialize_exponential(ExpContext(cycle(5), 3), max_vertices=100)
    # K_3^{C5} has 498 edges: the exact count is taken before any edge is built
    with pytest.raises(CapExceeded, match="498 edges exceed the max_edges cap of 100"):
        materialize_exponential(ExpContext(cycle(5), 3), max_edges=100)
    for name, c in (("k4", 3), ("k5", 3), ("w5", 3), ("k7", 3), ("c8", 3), ("w5", 4)):
        ctx = ExpContext(named(name), c)
        n_edges = len(materialize_exponential(ctx).edges)
        assert materialize_exponential(ctx, max_edges=n_edges).edges
        with pytest.raises(CapExceeded, match=f"^{n_edges} edges exceed"):
            materialize_exponential(ctx, max_edges=n_edges - 1)
    # K_20000^{K1}: its 20,000 maps pass the vertex cap, and each leaves all
    # 20,000 colours free, so the edge cap refuses it before any c-bit table
    calls = []
    monkeypatch.setattr(exponential, "_half_tables", lambda *args: calls.append(args))
    with pytest.raises(
        CapExceeded, match="^at least 199990000 edges exceed the max_edges cap of 25000000$"
    ):
        materialize_exponential(ExpContext(complete_graph(1), 20_000))
    assert calls == []


def test_exact_edge_cap_refuses_before_the_index_tables(monkeypatch):
    # the exact count needs only the free-set sizes, so an over-cap graph is
    # refused before any table of index sums, which grows with its edges
    calls = []
    monkeypatch.setattr(exponential, "_index_sums", lambda *args: calls.append(args))
    with pytest.raises(CapExceeded, match="^33153 edges exceed the max_edges cap of 33152$"):
        materialize_exponential(ExpContext(cycle(8), 3), max_edges=33_152)
    assert calls == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # each map misses the neighbours in its mask's top block, so the
        # edges built fall short of the edges counted
        (lambda sums, weight: sums[:-1] or sums, r"^\d+ edges built, 498 counted$"),
        # every block moves up one, and the top one past the last map
        (
            lambda sums, weight: [s + weight for s in sums],
            "^an index table reaches beyond the 243 maps$",
        ),
    ],
    ids=["top-block-dropped", "blocks-shifted"],
)
def test_a_corrupted_index_table_is_refused(monkeypatch, corrupt, message):
    real = exponential._index_sums

    def corrupted(masks, n, c, weight):
        sums = real(masks, n, c, weight)
        # only the high table, whose sums are block bases, is corrupted
        return {m: corrupt(s, weight) for m, s in sums.items()} if weight > 1 else sums

    monkeypatch.setattr(exponential, "_index_sums", corrupted)
    with pytest.raises(RuntimeError, match=message):
        materialize_exponential(ExpContext(cycle(5), 3))


def test_materialize_petersen_within_default_caps():
    # 3^10 maps: far beyond any n_maps x n_maps matrix, but only 21,069
    # edges; K_3^{C8}, with its 258 loops, the 3-colorings of C8; and the
    # sha256 of each graph's edge-list text, so every edge and loop is pinned
    for name, c, counts, digest in (
        ("petersen", 3, (59_049, 21_069, 120),
         "8b7dda28279df63f43e640e026a20a747d4320d36baf1227c2a501e252b84261"),
        ("c8", 3, (6_561, 33_153, 258),
         "42a2e0933075ba13e6f9e3819b211be664906273355ae977560981d39ce19aad"),
        ("w5", 4, (4_096, 42_354, 120),
         "3f7024c759972a04e8691c9a05231f322302de5162226e586f8bb0d110c8d4eb"),
    ):
        expo = materialize_exponential(ExpContext(named(name), c))
        assert (expo.n, len(expo.edges), len(expo.loops)) == counts
        assert hashlib.sha256(serialize_graph(expo).encode()).hexdigest() == digest


def test_index_round_trip():
    ctx = ExpContext(cycle(5), 3)
    for t in (0, 1, 100, 242):
        assert index_to_map(ctx, t).index() == t
    with pytest.raises(ValueError):
        index_to_map(ctx, 243)


# ---------------------------------------------------------------------------
# universal property


def test_universal_property_instances():
    assert universal_property_check(complete_graph(2), complete_graph(3), 2)
    assert universal_property_check(cycle(5), cycle(5), 3)


def test_universal_property_evaluation_coloring(monkeypatch):
    # the evaluation coloring (x, f) -> f(x) is checked on each edge or loop
    # of the exponential graph against each edge of g, with no product of g
    # and the exponential graph, reading only the maps with a neighbour
    products = []
    real_tensor_product = graphs.tensor_product  # imported when the check runs
    monkeypatch.setattr(
        graphs,
        "tensor_product",
        lambda g, h: products.append((g, h)) or real_tensor_product(g, h),
    )
    read = []
    real_index_to_map = exponential.index_to_map
    monkeypatch.setattr(
        exponential, "index_to_map", lambda ctx, t: read.append(t) or real_index_to_map(ctx, t)
    )
    g, h = cycle(5), cycle(5)
    assert universal_property_check(g, h, 3)
    assert products == [(g, h)]
    expo = materialize_exponential(ExpContext(g, 3))
    assert sorted(read) == sorted({t for e in expo.edges for t in e} | expo.loops)


def test_universal_property_evaluation_negative_controls(monkeypatch):
    g, h, c = cycle(5), cycle(5), 3
    ctx = ExpContext(g, c)
    expo = materialize_exponential(ctx)
    # one corrupted edge: h still maps into the graph, which only gained an
    # edge, but two maps that are not adjacent clash on some edge of g
    s, t = next((s, t) for s, t in combinations(range(expo.n), 2) if not expo.has_edge(s, t))
    corrupted = Graph(expo.n, expo.edges | {(s, t)}, expo.loops)
    with monkeypatch.context() as m:
        m.setattr(exponential, "materialize_exponential", lambda *args: corrupted)
        assert not universal_property_check(g, h, c)
    # no edge at all: the evaluation coloring holds vacuously, so only the
    # one homomorphism checker, is_homomorphism, can refuse h -> K_c^g
    checked = []
    with monkeypatch.context() as m:
        m.setattr(exponential, "materialize_exponential", lambda *args: Graph(expo.n))
        m.setattr(solvers, "is_homomorphism", lambda *a: checked.append(a) or is_homomorphism(*a))
        assert not universal_property_check(g, h, c)
    assert len(checked) == 1
    # one corrupted map value: f_s(x) made equal to f_t(y) across an edge st
    # of the exponential graph and an edge xy of g
    s, t = min(expo.edges)
    x, y = min(g.edges)
    real_index_to_map = exponential.index_to_map
    values = list(real_index_to_map(ctx, s).values)
    values[x] = real_index_to_map(ctx, t).values[y]
    monkeypatch.setattr(
        exponential,
        "index_to_map",
        lambda ctx, u: ExpMap(ctx, tuple(values)) if u == s else real_index_to_map(ctx, u),
    )
    assert not universal_property_check(g, h, c)
    # the uncorrupted check passes on other instances, loops included
    monkeypatch.setattr(exponential, "index_to_map", real_index_to_map)
    assert universal_property_check(Graph.from_edges(2, [(0, 1)], [0]), complete_graph(3), 3)
    assert universal_property_check(_path3(), cycle(5), 2)


def test_universal_property_precondition():
    with pytest.raises(ValueError, match="not 2-colorable"):
        universal_property_check(complete_graph(3), complete_graph(3), 2)


# ---------------------------------------------------------------------------
# mu and theta


def test_mu_values_path4():
    # distances from 0 are [0, 1, 2, 3]: branches i, q+i, i, t
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    mu = shitov_mu(path4, 0, 1, 2)
    assert mu.values == (0, 1, 0, 2)
    assert mu.ctx == ExpContext(blowup(path4, 1), 6)


def test_mu_follows_distance_classes():
    hw = named("heawood")
    dist = distances(hw, 0)
    for q, ts in ((1, (2,)), (2, (4, 9))):
        for t in ts:
            mu = shitov_mu(hw, 0, q, t)
            for x in range(hw.n):
                for i in range(q):
                    expected = i if dist[x] in (0, 2) else q + i if dist[x] == 1 else t
                    assert mu.values[x * q + i] == expected


def test_mu_image_contained_in_first_block_plus_t():
    hw = named("heawood")
    for q in (1, 2):
        for t in secondary_block(q):
            mu = shitov_mu(hw, 0, q, t)
            assert mu.image <= frozenset(range(2 * q)) | {t}


def test_mu_unreachable_uses_t():
    g = Graph.from_edges(3, [(0, 1)])  # vertex 2 unreachable from 0
    mu = shitov_mu(g, 0, 1, 3)
    assert mu.values[2] == 3


def test_mu_not_simple_for_q_at_least_2():
    assert not is_simple(shitov_mu(named("heawood"), 0, 2, 5), 2)
    assert not is_simple(shitov_mu(named("heawood"), 0, 3, 7), 3)
    # q = 1 fibers are singletons, so constancy per fiber holds vacuously
    assert is_simple(shitov_mu(named("heawood"), 0, 1, 2), 1)


def test_mu_validation():
    hw = named("heawood")
    with pytest.raises(ValueError, match="secondary block"):
        shitov_mu(hw, 0, 1, 1)
    with pytest.raises(ValueError, match="secondary block"):
        shitov_mu(hw, 0, 1, 6)
    with pytest.raises(ValueError, match="out of range"):
        shitov_mu(hw, 14, 1, 2)
    with pytest.raises(ValueError, match="loopless"):
        shitov_mu(add_loops(hw), 0, 1, 2)


def test_theta_image_and_simplicity():
    hw = named("heawood")
    th = shitov_theta(hw, 0, 2)
    assert th.image == frozenset({4, 5})
    assert th.ctx == ExpContext(blowup(hw, 2), 10)
    assert is_simple(th, 2)
    for q in (0, -2):
        with pytest.raises(ValueError, match="q must be >= 1"):
            is_simple(th, q)


def test_theta_defaults_and_validation():
    th = shitov_theta(named("heawood"), 0, 2)
    assert th.values[0] == 4  # t = 2q at the center
    with pytest.raises(ValueError, match="differ"):
        shitov_theta(named("heawood"), 0, 1, b=2, t=2)
    with pytest.raises(ValueError, match="secondary block"):
        shitov_theta(named("heawood"), 0, 1, b=0, t=2)


def test_theta_shares_mu_argument_checks():
    hw = named("heawood")
    with pytest.raises(ValueError, match="mu and theta are defined over loopless"):
        shitov_theta(add_loops(hw), 0, 1)
    with pytest.raises(ValueError, match="q must be >= 1"):
        shitov_theta(hw, 0, 0)
    for v in (-1, hw.n):
        with pytest.raises(ValueError, match="out of range"):
            shitov_theta(hw, v, 1)


def test_theta_adjacent_to_mu():
    hw = named("heawood")
    for q in (1, 2):
        t, b = 2 * q, 2 * q + 1
        mu = shitov_mu(hw, 0, q, t)
        th = shitov_theta(hw, 0, q, b=b, t=t)
        assert exp_adjacent(th, mu)
        assert th.image & mu.image == frozenset({t})


def test_theta_spec_example_q1():
    hw = named("heawood")
    th = shitov_theta(hw, 0, 1, b=3, t=2)
    mu = shitov_mu(hw, 0, 1, 2)
    assert exp_adjacent(th, mu)


# ---------------------------------------------------------------------------
# mu-clique verification


def test_mu_clique_heawood():
    for q in (1, 2):
        report = verify_mu_clique(named("heawood"), 0, q)
        assert report.passed
        assert report.pairs_checked == (2 * q + 2) * (2 * q + 1) // 2
        assert report.violations == ()


def test_mu_clique_c5_fails_with_witness():
    report = verify_mu_clique(cycle(5), 0, 1)
    assert not report.passed
    assert report.pairs_checked == 6
    assert len(report.violations) == 6
    t, tp, ((x, i), (y, j)), value = report.violations[0]
    # adjacent distance-2 vertices share the fiber-index value
    dist = distances(cycle(5), 0)
    assert dist[x] in (0, 2) and dist[y] in (0, 2)
    assert i == j == value


def test_mu_clique_k4_fails():
    report = verify_mu_clique(complete_graph(4), 0, 1)
    assert not report.passed
    t, tp, ((x, i), (y, j)), value = report.violations[0]
    dist = distances(complete_graph(4), 0)
    assert dist[x] == dist[y] == 1
    assert value == 1 + i  # the q+i branch collides


def test_mu_clique_jobs_deterministic():
    assert verify_mu_clique(cycle(5), 0, 1) == verify_mu_clique(cycle(5), 0, 1, jobs=1)
    for jobs in (0, 2, 3):
        with pytest.raises(ValueError, match="jobs must be 1"):
            verify_mu_clique(cycle(5), 0, 1, jobs=jobs)


def _mu_clique_reference(g: Graph, v: int, q: int) -> MuCliqueReport:
    # the mu_t one by one, each pair scanned over the checks of their
    # exponential graph; the first check whose values agree is the witness
    mus = {t: shitov_mu(g, v, q, t) for t in secondary_block(q)}
    checks = mus[2 * q].ctx.directed_checks
    pairs = list(combinations(mus, 2))
    violations = []
    for t, tp in pairs:
        f, fp = mus[t].values, mus[tp].values
        hits = [(a, b) for a, b in checks if f[a] == fp[b]]
        assert exp_adjacent(mus[t], mus[tp]) == (not hits)
        if hits:
            a, b = hits[0]
            violations.append((t, tp, ((a // q, a % q), (b // q, b % q)), f[a]))
    return MuCliqueReport(not violations, len(pairs), tuple(violations))


@pytest.mark.parametrize(
    "base",
    [
        named("heawood"),
        named("petersen"),
        cycle(5),
        complete_graph(4),
        # vertex 5 is unreachable from 0 and 1, so every mu_t gives it t
        Graph.from_edges(6, cycle(5).edges),
    ],
    ids=["heawood", "petersen", "c5", "k4", "c5+isolated"],
)
def test_mu_clique_matches_pairwise_reference(base):
    for q in (1, 2, 3):
        for v in (0, 1):
            assert verify_mu_clique(base, v, q) == _mu_clique_reference(base, v, q), (q, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mu_clique_matches_reference_on_random_bases(data):
    n = data.draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    emask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = Graph.from_edges(n, [e for e, k in zip(pairs, emask) if k])
    v, q = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, 2))
    assert verify_mu_clique(base, v, q) == _mu_clique_reference(base, v, q)


def test_mu_clique_reference_sees_violations_and_passes():
    # the comparison above covers both outcomes, and isolated-vertex violations
    assert _mu_clique_reference(named("heawood"), 0, 2).passed
    assert len(_mu_clique_reference(complete_graph(4), 1, 3).violations) == 28
    isolated = _mu_clique_reference(Graph.from_edges(6, cycle(5).edges), 0, 1)
    assert not isolated.passed and len(isolated.violations) == 6


def test_mu_clique_builds_one_blowup(monkeypatch):
    calls = []
    real_blowup = graphs.blowup  # imported when the check runs
    monkeypatch.setattr(
        graphs, "blowup", lambda g, q: calls.append(q) or real_blowup(g, q)
    )
    assert verify_mu_clique(named("heawood"), 0, 3).passed
    assert calls == [3]
    calls.clear()
    assert len(verify_mu_clique(cycle(5), 0, 2).violations) == 15
    assert calls == [2]


def test_mu_clique_validation():
    hw = named("heawood")
    with pytest.raises(ValueError, match="loopless"):
        verify_mu_clique(add_loops(hw), 0, 1)
    with pytest.raises(ValueError, match="q must be >= 1"):
        verify_mu_clique(hw, 0, 0)
    for v in (-1, 14):
        with pytest.raises(ValueError, match="out of range"):
            verify_mu_clique(hw, v, 1)


def test_heawood_serves_girth_claims_only():
    # the catalog girth-6 graph supports the girth-based claims above, but its
    # independence ratio is far from the p/4.1 regime the full-scale
    # construction assumes; recorded here so nobody mistakes the small
    # instances for that hypothesis
    hw = named("heawood")
    from prodcolor.solvers import girth as girth_of, independence_number

    assert girth_of(hw) == 6
    assert independence_number(hw) > hw.n / 4.1


# ---------------------------------------------------------------------------
# simple maps


def _random_simple_map(rng, g, q, c):
    base_values = [rng.randrange(c) for _ in range(g.n)]
    values = []
    for x in range(g.n):
        values.extend([base_values[x]] * q)
    return ExpMap(ExpContext(blowup(g, q), c), tuple(values))


def test_simple_map_characterization_matches_raw():
    rng = random.Random(4)
    for g in (cycle(5), _path3(), complete_graph(3)):
        for q in (2, 3):
            for _ in range(15):
                phi = _random_simple_map(rng, g, q, 5)
                psi = _random_simple_map(rng, g, q, 5)
                assert simple_maps_adjacent(g, q, phi, psi) == exp_adjacent(phi, psi)


def test_simple_map_characterization_diverges_at_q1():
    # with q = 1 there are no intra-fiber edges, so the per-vertex condition
    # phi(x) != psi(x) is not part of raw adjacency; K2 with equal proper
    # colorings separates the two predicates
    g = complete_graph(2)
    phi = ExpMap(ExpContext(blowup(g, 1), 2), (0, 1))
    assert exp_adjacent(phi, phi)
    assert not simple_maps_adjacent(g, 1, phi, phi)


def test_simple_subgraph_isomorphic_to_looped_exponential():
    # the value-copy bijection carries the simple maps of K_c^{blowup(G, q)}
    # onto K_c^{G with all loops}, adjacency and loops included
    for g in (complete_graph(2), _path3(), complete_graph(3)):
        for c in (2, 3):
            q = 2
            looped_ctx = ExpContext(add_loops(g), c)
            blown_ctx = ExpContext(blowup(g, q), c)
            for s in range(c**g.n):
                for t in range(s, c**g.n):
                    f_small = index_to_map(looped_ctx, s)
                    g_small = index_to_map(looped_ctx, t)
                    lift_f = ExpMap(
                        blown_ctx,
                        tuple(f_small.values[x] for x in range(g.n) for _ in range(q)),
                    )
                    lift_g = ExpMap(
                        blown_ctx,
                        tuple(g_small.values[x] for x in range(g.n) for _ in range(q)),
                    )
                    assert exp_adjacent(f_small, g_small) == exp_adjacent(lift_f, lift_g)


# ---------------------------------------------------------------------------
# observation: colors lie in images


def _normalized_coloring(ctx):
    expo = materialize_exponential(ctx)
    raw = k_colorable(expo, ctx.c)
    assert raw is not None
    return normalize_on_constants(ctx, raw)


def test_observation_k4_c3():
    ctx = ExpContext(complete_graph(4), 3)
    assert observation_image_check(ctx, _normalized_coloring(ctx))


def test_observation_k2_c2_by_hand():
    ctx = ExpContext(complete_graph(2), 2)
    # constants are map 0 (colored 0) and map 3 (colored 1); the two proper
    # colorings in between may take any color since their image is {0, 1}
    assert observation_image_check(ctx, Coloring((0, 0, 1, 1), 2))


def test_observation_negative_control():
    ctx = ExpContext(complete_graph(4), 3)
    coloring = _normalized_coloring(ctx)
    constants = {constant_map(ctx, i).index() for i in range(3)}
    corrupted = list(coloring.colors)
    for t in range(len(corrupted)):
        if t in constants:
            continue
        image = set(index_to_map(ctx, t).values)
        outside = [c for c in range(3) if c not in image]
        if outside:
            corrupted[t] = outside[0]
            break
    assert not observation_image_check(ctx, Coloring(tuple(corrupted), 3))


def test_observation_normalization_errors():
    ctx = ExpContext(complete_graph(4), 3)
    coloring = _normalized_coloring(ctx)
    # swap the colors of two constant maps: precondition failure, not a claim result
    bad = list(coloring.colors)
    i0 = constant_map(ctx, 0).index()
    i1 = constant_map(ctx, 1).index()
    bad[i0], bad[i1] = bad[i1], bad[i0]
    with pytest.raises(NormalizationError):
        observation_image_check(ctx, Coloring(tuple(bad), 3))
    with pytest.raises(NormalizationError, match="covers"):
        observation_image_check(ctx, Coloring((0,), 3))


def test_normalize_on_constants():
    ctx = ExpContext(complete_graph(4), 3)
    expo = materialize_exponential(ctx)
    raw = k_colorable(expo, 3)
    fixed = normalize_on_constants(ctx, raw)
    assert is_proper_coloring(expo, fixed)
    for i in range(3):
        assert fixed.colors[constant_map(ctx, i).index()] == i


def test_normalize_on_constants_refuses_constants_sharing_a_color():
    # an improper coloring in which constant 1 takes constant 0's color has no
    # normalizing permutation; filling one in used to surface only later, as
    # a misleading "constant map 0 is colored 1"
    ctx = ExpContext(complete_graph(4), 3)
    colors = list(k_colorable(materialize_exponential(ctx), 3).colors)
    colors[constant_map(ctx, 1).index()] = colors[constant_map(ctx, 0).index()]
    with pytest.raises(NormalizationError, match="constant maps 0 and 1 share color"):
        normalize_on_constants(ctx, Coloring(tuple(colors), 3))


# ---------------------------------------------------------------------------
# the retract onto one map per maximal box


def _random_base(data, n_max: int) -> Graph:
    n = data.draw(st.integers(0, n_max))
    pairs = list(combinations(range(n), 2))
    emask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    loops = data.draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
    return Graph.from_edges(n, [e for e, k in zip(pairs, emask) if k], loops)


def _cycle_join_k2(m: int) -> Graph:
    """C_m joined to K2: every cycle vertex meets both vertices m and m + 1."""
    cyc = [(i, (i + 1) % m) for i in range(m)]
    spokes = [(i, j) for i in range(m) for j in (m, m + 1)]
    return Graph.from_edges(m + 2, cyc + [(m, m + 1)] + spokes)


def _check_retraction(expo: Graph, r: Graph, reps: tuple[int, ...], lift) -> None:
    """R is the subgraph of expo induced on reps, and lift is a
    homomorphism of expo onto R that fixes every representative."""
    assert [lift(t) for t in reps] == list(range(r.n))
    for i, j in combinations(range(r.n), 2):
        assert r.has_edge(i, j) == expo.has_edge(reps[i], reps[j])
    assert r.loops == {i for i, t in enumerate(reps) if t in expo.loops}
    assert all(r.adjacent_or_loop(lift(s), lift(t)) for s, t in expo.edges)
    assert all(lift(t) in r.loops for t in expo.loops)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_maximal_boxes_and_the_retract_match_the_brute_force(data):
    # loops, isolated vertices, c = 1 and the empty base included
    base = _random_base(data, 5)
    ctx = ExpContext(base, data.draw(st.integers(1, 3)))
    boxes = maximal_boxes(ctx)
    assert list(boxes) == brute_maximal_boxes(base, ctx.c)
    expo = materialize_exponential(ctx)
    r, reps, lift = retract(ctx)
    # with no map that has a neighbour, R is map 0 alone
    assert reps == tuple(t for t, _ in boxes) or (not boxes and reps == (0,) and not expo.edges)
    _check_retraction(expo, r, reps, lift)
    if not expo.loops:
        assert chromatic_number(r) == chromatic_number(expo)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_graph_maps_to_the_retract_iff_it_maps_to_the_exponential_graph(data):
    ctx = ExpContext(_random_base(data, 4), data.draw(st.integers(1, 3)))
    h = _random_base(data, 6)
    r, _, _ = retract(ctx)
    expo = materialize_exponential(ctx)
    assert (find_homomorphism(h, r) is None) == (find_homomorphism(h, expo) is None)


def test_retract_of_edgeless_and_empty_bases_by_hand():
    # K_1^{K2}: the one map fills N(b) at both vertices, so it has no neighbour
    ctx = ExpContext(complete_graph(2), 1)
    r, reps, lift = retract(ctx)
    assert (r, reps, lift(0), maximal_boxes(ctx)) == (Graph(1), (0,), 0, ())
    # no base vertex: the one empty map, with its loop
    r, reps, _ = retract(ExpContext(Graph(0), 2))
    assert (r.n, r.loops, reps) == (1, {0}, (0,))
    # the constant maps of K_3^{K4} are the three maximal boxes
    r, reps, lift = retract(ExpContext(complete_graph(4), 3))
    assert reps == (0, 40, 80) and r == complete_graph(3)
    with pytest.raises(ValueError, match=r"map index 81 out of range \[0, 81\)"):
        lift(81)


def test_retract_refuses_a_half_table_over_the_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(exponential, "_half_tables", lambda *args: calls.append(args))
    # 20 isolated vertices split into halves of 4^10 digit assignments each
    message = "^a half table of 1048576 digit assignments exceeds the max_vertices cap of 200000$"
    for build in (maximal_boxes, retract):
        with pytest.raises(CapExceeded, match=message):
            build(ExpContext(Graph(20), 4))
    assert calls == []


def test_a_colouring_of_the_retract_lifts_to_k4_over_c5_join_k2():
    # R has 4 vertices; its colouring, lifted, is checked on all 103,014
    # edges of the materialized graph, and one map recoloured to a
    # neighbour's colour fails that check
    ctx = ExpContext(_cycle_join_k2(5), 4)
    r, reps, lift = retract(ctx)
    coloring = k_colorable(r, 4)
    assert r.n == 4 and coloring is not None
    expo = materialize_exponential(ctx)
    assert len(expo.edges) == 103_014
    lifted = [coloring.colors[lift(t)] for t in range(expo.n)]
    assert is_proper_coloring(expo, Coloring(tuple(lifted), 4))
    s, t = min(expo.edges)
    lifted[s] = lifted[t]
    assert not is_proper_coloring(expo, Coloring(tuple(lifted), 4))


def test_k4_over_c7_join_k2_is_coloured_through_its_retract():
    # 262,144 maps, over the materialization cap; R has 4 vertices, and every
    # map with a neighbour lifts to a representative whose box contains its own
    ctx = ExpContext(_cycle_join_k2(7), 4)
    with pytest.raises(CapExceeded, match="262144 maps exceed"):
        materialize_exponential(ctx)
    r, reps, lift = retract(ctx)
    assert r.n == 4 and k_colorable(r, 4) is not None and not r.loops
    # each map's used vector, f(N(b)) at bit 4b, as the OR of its two halves'
    near = [[a for a in range(9) if ctx.base.has_edge(a, b)] for b in range(9)]

    def half_used(lo: int, hi: int) -> list[int]:
        used = []
        for digits in product(range(4), repeat=hi - lo):
            f = dict(zip(range(lo, hi), digits[::-1]))
            used.append(sum({1 << 4 * b + f[a] for b in range(9) for a in set(near[b]) & set(f)}))
        return used

    low, high = half_used(0, 4), half_used(4, 9)
    fields = [15 << 4 * b for b in range(9)]
    rep_used = [low[t % 256] | high[t // 256] for t in reps]
    isolated = 0
    for t in range(ctx.num_maps):
        used = low[t % 256] | high[t // 256]
        if any(used & m == m for m in fields):
            isolated += 1  # an empty box lies inside any other
        else:
            assert rep_used[lift(t)] & ~used == 0
    assert 0 < isolated < ctx.num_maps


def test_k3_over_grotzsch_has_chi_3_through_its_retract():
    ctx = ExpContext(named("grotzsch"), 3)
    r, _, _ = retract(ctx)
    assert chromatic_number(r) == 3 == chromatic_number(materialize_exponential(ctx))
