from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodcolor.errors import CapExceeded
from prodcolor.exponential import (
    BlowupExpMap,
    ExpContext,
    ExpMap,
    NormalizationError,
    constant_map,
    exp_adjacent,
    index_to_map,
    materialize_exponential,
    normalize_on_constants,
    observation_image_check,
    secondary_block,
    shitov_mu,
    shitov_theta,
    simple_maps_adjacent,
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
from prodcolor.solvers import Coloring, chromatic_number, is_proper_coloring, k_colorable

from oracles import brute_exp_adjacent


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


def test_materialize_caps():
    with pytest.raises(CapExceeded, match="max_vertices"):
        materialize_exponential(ExpContext(cycle(5), 3), max_vertices=100)
    with pytest.raises(CapExceeded, match="max_pairs"):
        materialize_exponential(ExpContext(cycle(5), 3), max_pairs=100)


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


def test_universal_property_precondition():
    with pytest.raises(ValueError, match="not 2-colorable"):
        universal_property_check(complete_graph(3), complete_graph(3), 2)


# ---------------------------------------------------------------------------
# mu and theta


def test_mu_values_path4():
    # distances from 0 are [0, 1, 2, 3]: branches i, q+i, i, t
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    mu = shitov_mu(path4, 0, 1, 2)
    assert mu.exp.values == (0, 1, 0, 2)
    assert mu.q == 1 and mu.ctx.c == 6


def test_mu_follows_distance_classes():
    hw = named("heawood")
    dist = distances(hw, 0)
    for q, ts in ((1, (2,)), (2, (4, 9))):
        for t in ts:
            mu = shitov_mu(hw, 0, q, t)
            for x in range(hw.n):
                for i in range(q):
                    expected = i if dist[x] in (0, 2) else q + i if dist[x] == 1 else t
                    assert mu.value(x, i) == expected


def test_mu_image_contained_in_first_block_plus_t():
    hw = named("heawood")
    for q in (1, 2):
        for t in secondary_block(q):
            mu = shitov_mu(hw, 0, q, t)
            assert mu.exp.image <= frozenset(range(2 * q)) | {t}


def test_mu_unreachable_uses_t():
    g = Graph.from_edges(3, [(0, 1)])  # vertex 2 unreachable from 0
    mu = shitov_mu(g, 0, 1, 3)
    assert mu.exp.values[2] == 3


def test_mu_not_simple_for_q_at_least_2():
    assert not shitov_mu(named("heawood"), 0, 2, 5).simple
    assert not shitov_mu(named("heawood"), 0, 3, 7).simple
    # q = 1 fibers are singletons, so constancy per fiber holds vacuously
    assert shitov_mu(named("heawood"), 0, 1, 2).simple


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
    assert th.exp.image == frozenset({4, 5})
    assert th.simple


def test_theta_defaults_and_validation():
    th = shitov_theta(named("heawood"), 0, 2)
    assert th.exp.values[0] == 4  # t = 2q at the center
    with pytest.raises(ValueError, match="differ"):
        shitov_theta(named("heawood"), 0, 1, b=2, t=2)
    with pytest.raises(ValueError, match="secondary block"):
        shitov_theta(named("heawood"), 0, 1, b=0, t=2)


def test_theta_adjacent_to_mu():
    hw = named("heawood")
    for q in (1, 2):
        t, b = 2 * q, 2 * q + 1
        mu = shitov_mu(hw, 0, q, t)
        th = shitov_theta(hw, 0, q, b=b, t=t)
        assert exp_adjacent(th, mu)
        assert th.exp.image & mu.exp.image == frozenset({t})


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
    ctx = ExpContext(blowup(g, q), c)
    return BlowupExpMap(g, q, ExpMap(ctx, tuple(values)))


def test_simple_map_characterization_matches_raw():
    rng = random.Random(4)
    for g in (cycle(5), _path3(), complete_graph(3)):
        for q in (2, 3):
            for _ in range(15):
                phi = _random_simple_map(rng, g, q, 5)
                psi = _random_simple_map(rng, g, q, 5)
                assert simple_maps_adjacent(g, phi, psi) == exp_adjacent(phi, psi)


def test_simple_map_characterization_diverges_at_q1():
    # with q = 1 there are no intra-fiber edges, so the per-vertex condition
    # phi(x) != psi(x) is not part of raw adjacency; K2 with equal proper
    # colorings separates the two predicates
    g = complete_graph(2)
    ctx = ExpContext(blowup(g, 1), 2)
    phi = BlowupExpMap(g, 1, ExpMap(ctx, (0, 1)))
    assert exp_adjacent(phi, phi)
    assert not simple_maps_adjacent(g, phi, phi)


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
