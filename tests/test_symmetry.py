"""Automorphism generators by individualization-refinement, checked against
brute force, the orbit LP they give chi_f by default, and the orbital
branching of its pricing search."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodcolor import _independent_sets, symmetry
from prodcolor.fractional import _orbital_roots, fractional_chromatic
from prodcolor.graphs import CATALOG, Graph, cycle, kneser, named, tensor_product
from prodcolor._independent_sets import heaviest_independent_set
from prodcolor.symmetry import _leveled_generators, _orbits, automorphism_generators

from oracles import (
    brute_automorphisms,
    brute_group,
    brute_is_automorphism,
    brute_max_weight_independent_set,
)


@st.composite
def _graphs(draw, max_n, loops=True):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    looped = draw(st.sets(st.integers(0, n - 1))) if loops and n else set()
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k], looped)


def _classes(orbit):
    """A partition given as one class index per vertex, as a set of vertex sets."""
    classes: dict[int, set[int]] = {}
    for v, o in enumerate(orbit):
        classes.setdefault(o, set()).add(v)
    return {frozenset(c) for c in classes.values()}


@settings(max_examples=200, deadline=None)
@given(_graphs(7))
def test_generators_are_automorphisms_with_the_brute_force_orbits(g):
    gens = automorphism_generators(g)
    assert all(brute_is_automorphism(g, p) for p in gens)
    autos = brute_automorphisms(g)
    brute = {frozenset(p[v] for p in autos) for v in range(g.n)}
    assert _classes(_orbits(g.n, gens)[0]) == brute
    assert len(brute_group(g.n, gens)) == len(autos)


@pytest.mark.parametrize(
    "g, order",
    [(named("petersen"), 120), (named("heawood"), 336), (named("grotzsch"), 10), (kneser(7, 3), 5040)],
    ids=["petersen", "heawood", "grotzsch", "kneser-7-3"],
)
def test_generators_span_the_whole_group(g, order):
    assert len(brute_group(g.n, automorphism_generators(g))) == order


def test_a_leaf_that_passes_the_pruning_can_still_be_no_automorphism():
    # 4-regular on 8 vertices: |Aut| = 4 by brute force over all 8!
    # permutations. Some leaf here has the first leaf's cell sizes at every
    # depth and yet maps it by no automorphism, so each leaf map is checked
    edges = [(0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 6), (2, 3)]
    edges += [(2, 4), (2, 5), (3, 4), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]
    g = Graph.from_edges(8, edges)
    gens = automorphism_generators(g)
    assert all(brute_is_automorphism(g, p) for p in gens)
    assert len(brute_group(g.n, gens)) == 4
    assert _classes(_orbits(g.n, gens)[0]) == {
        frozenset({0, 2}), frozenset({1, 5}), frozenset({3, 4, 6, 7})
    }


def test_c6_plus_two_triangles_keeps_its_two_classes_apart():
    # 2-regular, so colour refinement alone leaves all 12 vertices in one cell
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    g = Graph.from_edges(12, edges)
    orbit, sizes = _orbits(g.n, automorphism_generators(g))
    assert sizes == [6, 6] and orbit == [0] * 6 + [1] * 6
    assert fractional_chromatic(g)[0] == 3


def test_generators_are_a_function_of_the_graph():
    p = named("petersen")
    gens = automorphism_generators(tensor_product(p, p))
    assert gens and automorphism_generators(tensor_product(p, p)) == gens


def test_out_of_nodes_gives_a_subgroup_and_the_same_chi_f(monkeypatch):
    # with no node to spend every candidate is dropped: the trivial group,
    # whose orbit LP is the plain one
    g = kneser(7, 3)
    monkeypatch.setattr(symmetry, "_NODE_LIMIT", 0)
    assert automorphism_generators(g) == ()
    value, witness = fractional_chromatic(g, max_vertices=35)
    assert value == Fraction(7, 3) and witness.generators == ()
    assert witness.covers(g) and witness.value == value


def test_found_generators_are_checked_before_the_lp(monkeypatch):
    # symmetry keeps only the candidates that pass its automorphism check, so
    # the LP gets no found generator unchecked, and a refused one is dropped
    check, passed = symmetry._is_automorphism, []

    def spy(g, p):
        ok = check(g, p)
        if ok:
            passed.append(p)
        return ok

    monkeypatch.setattr(symmetry, "_is_automorphism", spy)
    value, witness = fractional_chromatic(cycle(5))
    assert value == Fraction(5, 2) and witness.generators
    assert set(witness.generators) <= set(passed)
    monkeypatch.setattr(symmetry, "_is_automorphism", lambda g, p: False)
    value, witness = fractional_chromatic(cycle(5))
    assert value == Fraction(5, 2) and witness.generators == ()


def test_chi_f_of_a_vertex_transitive_product_has_one_orbit_row(monkeypatch):
    # and so has the vertex-transitive Kneser graph K(10, 4), with n/alpha =
    # 210/84; Heawood x Heawood has two components that the group swaps, and
    # its pricing still starts from the orbital branches of each
    search, starts = _independent_sets._independence_search, []

    def spy(masks, weights, nodes):
        starts.append(len(nodes))
        return search(masks, weights, nodes)

    monkeypatch.setattr(_independent_sets, "_independence_search", spy)
    p, hw = named("petersen"), named("heawood")
    for g, chi_f in (
        (tensor_product(p, p), Fraction(5, 2)),
        (kneser(10, 4), Fraction(5, 2)),
        (tensor_product(hw, hw), Fraction(2)),
    ):
        starts.clear()
        value, witness = fractional_chromatic(g, max_vertices=g.n)
        assert value == chi_f and witness.generators
        assert _orbits(g.n, witness.generators)[1] == [g.n]
        assert witness.covers(g)
        assert any(starts)


@settings(max_examples=60, deadline=None)
@given(_graphs(8, loops=False))
def test_chi_f_with_found_generators_is_the_plain_lps(g):
    value, witness = fractional_chromatic(g)
    assert value == fractional_chromatic(g, generators=())[0]
    assert witness.generators == automorphism_generators(g)
    assert witness.covers(g) and witness.value == value


@pytest.mark.parametrize("gname", [*CATALOG, "kneser-7-3"])
def test_a_generator_of_level_k_fixes_the_first_k_base_vertices(gname):
    g = kneser(7, 3) if gname == "kneser-7-3" else named(gname)
    base, leveled = _leveled_generators(g)
    assert tuple(p for _, p in leveled) == automorphism_generators(g)
    for k, p in leveled:
        assert [p[b] for b in base[:k]] == base[:k] and p[base[k]] != base[k]
    assert [k for k, _ in leveled] == sorted((k for k, _ in leveled), reverse=True)


@st.composite
def _orbital_cases(draw):
    """A graph at a drawn density, a first path with level-tagged generators,
    and weights 0..9 constant on their orbits (a 0 splits components): the
    found generators on up to 9 vertices, or a random subset of Aut(g), all
    at level 0 with no path, on up to 7. The graph may be two disjoint
    copies of one on half as many vertices, so that the group swaps
    components."""
    found, copies = draw(st.booleans()), draw(st.integers(1, 2))
    n = draw(st.integers(0, (9 if found else 7) // copies))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(1, 9))
    keep = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k < density]
    g = Graph.from_edges(
        n * copies, [(u + i * n, v + i * n) for i in range(copies) for u, v in edges]
    )
    if found:
        base, leveled = _leveled_generators(g)
    else:
        gens = draw(st.lists(st.sampled_from(brute_automorphisms(g)), max_size=3))
        base, leveled = [], [(0, p) for p in gens]
    orbit, sizes = _orbits(g.n, tuple(p for _, p in leveled))
    prices = draw(st.lists(st.integers(0, 9), min_size=len(sizes), max_size=len(sizes)))
    return g, base, leveled, [prices[o] for o in orbit]


# a branch through a vertex off the first path must not branch again over
# the path's stabilizer, which need not fix that vertex
_OFF_PATH = (
    Graph.from_edges(9, [(0, 4), (0, 5), (0, 8), (3, 5), (4, 6), (5, 6)]),
    [1, 2, 3],
    [
        (2, (5, 1, 2, 8, 6, 0, 4, 7, 3)),
        (1, (0, 1, 7, 3, 4, 5, 6, 2, 8)),
        (0, (0, 2, 1, 3, 4, 5, 6, 7, 8)),
    ],
    [3, 1, 1, 1, 5, 3, 5, 1, 1],
)


@settings(max_examples=300, deadline=None)
@given(_orbital_cases())
@example(_OFF_PATH)
def test_the_orbital_search_is_the_brute_force_maximum(case):
    g, base, leveled, weights = case
    gens = tuple(p for _, p in leveled)
    roots = _orbital_roots(g, _orbits(g.n, gens)[0], base, leveled)
    weight, chosen = heaviest_independent_set(g, weights, roots)
    assert weight == brute_max_weight_independent_set(g, weights)
    assert not any(g.has_edge(u, v) for u, v in combinations(chosen, 2))
    assert sum(weights[v] for v in chosen) == weight
    value, witness = fractional_chromatic(g, generators=gens)
    assert value == fractional_chromatic(g, generators=())[0]
    assert witness.covers(g) and witness.value == value
