from __future__ import annotations

import random
from itertools import product

import pytest

from prodcolor import arcshift, harness, solvers
from prodcolor.arcshift import (
    SetColoring,
    arc_shift,
    bound_chain_instance,
    coloring_down,
    coloring_up,
    functoriality_check,
    is_proper_set_coloring,
    lemma_rel_bounds_check,
    schelp_coloring,
    schelp_triples,
    underline_decomposition_check,
    _uniform_set_coloring,
)
from prodcolor.graphs import Digraph, complete_digraph, reverse, underline
from prodcolor.solvers import (
    Coloring,
    chromatic_number,
    is_proper_coloring,
    k_colorable,
    optimal_coloring,
)

from oracles import all_labelled_digraphs


def _rand_digraph(rng, n_max=5, p=0.4):
    n = rng.randint(1, n_max)
    arcs = [(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p]
    return Digraph.from_arcs(n, arcs)


def _uniform(d):
    return _uniform_set_coloring(optimal_coloring(underline(d)))


# ---------------------------------------------------------------------------
# the shift operator


def test_shift_k2_is_digon():
    shifted, arcs = arc_shift(complete_digraph(2))
    assert shifted.n == 2
    assert shifted.arcs == frozenset({(0, 1), (1, 0)})
    assert arcs == ((0, 1), (1, 0))


def test_shift_single_arc():
    shifted, _ = arc_shift(Digraph.from_arcs(2, [(0, 1)]))
    assert shifted.n == 1 and not shifted.arcs


def test_shift_k4_outdegrees():
    shifted, arcs = arc_shift(complete_digraph(4))
    assert shifted.n == 12
    for i, (x, y) in enumerate(arcs):
        out = sum(1 for a, b in shifted.arcs if a == i)
        assert out == 3  # arcs leaving y, including the one back to x


def test_shift_matches_the_pairwise_definition_on_every_4_vertex_digraph():
    # vertex i of the shift is arcs[i]; arc (i, j) exactly when arcs[i] ends where arcs[j] starts
    for d in all_labelled_digraphs(4):
        shifted, arcs = arc_shift(d)
        pairwise = [
            (i, j) for i, (_, y) in enumerate(arcs) for j, (x, _) in enumerate(arcs) if y == x
        ]
        assert arcs == tuple(sorted(d.arcs))
        assert shifted.n == len(arcs)
        assert shifted.sorted_arcs == tuple(pairwise)


def test_arc_index_stable():
    d = Digraph.from_arcs(3, [(2, 0), (0, 1), (1, 0)])
    _, a1 = arc_shift(d)
    _, a2 = arc_shift(Digraph.from_arcs(3, [(0, 1), (1, 0), (2, 0)]))
    assert a1 == a2 == d.sorted_arcs == ((0, 1), (1, 0), (2, 0))


# ---------------------------------------------------------------------------
# coloring transforms


def test_coloring_down_k2():
    d = complete_digraph(2)
    sc = coloring_down(d, Coloring((0, 1), 2))
    assert sc.sets == (frozenset({0}), frozenset({1}))
    assert sc.k == 2


def test_coloring_down_sink_gets_empty_set():
    d = Digraph.from_arcs(2, [(0, 1)])  # vertex 1 is a sink
    sc = coloring_down(d, Coloring((0,), 1))
    assert sc.sets == (frozenset({0}), frozenset())
    assert is_proper_set_coloring(underline(d), sc)


def test_coloring_down_rejects_improper():
    d = complete_digraph(2)
    with pytest.raises(ValueError, match="not a proper coloring"):
        coloring_down(d, Coloring((0, 0), 2))
    with pytest.raises(ValueError, match="coloring covers 1 arcs, D has 2"):
        coloring_down(d, Coloring((0,), 1))


def test_coloring_down_set_count_bound():
    rng = random.Random(23)
    for _ in range(20):
        d = _rand_digraph(rng, 5)
        shifted, _ = arc_shift(d)
        ug = underline(shifted)
        k = chromatic_number(ug)
        down = coloring_down(d, k_colorable(ug, k))
        assert len(set(down.sets)) <= 2**k


def test_coloring_up_k2():
    d = complete_digraph(2)
    sc = SetColoring((frozenset({0}), frozenset({1})), 2)
    up = coloring_up(d, sc)
    # arc order is (0,1), (1,0): colors min({1}-{0}) = 1 and min({0}-{1}) = 0
    assert up.colors == (1, 0)
    assert up.k == 2


def test_coloring_up_rejects_bad_inputs():
    d = complete_digraph(2)
    # {0} is inside {0, 1}, so the arc (1, 0) has no color to take
    with pytest.raises(ValueError, match=r"arc \(1, 0\) has an empty set difference"):
        coloring_up(d, SetColoring((frozenset({0}), frozenset({0, 1})), 2))
    with pytest.raises(ValueError, match=r"arc \(0, 1\) has an empty set difference"):
        coloring_up(d, SetColoring((frozenset({0}), frozenset({0})), 2))
    with pytest.raises(ValueError, match="set coloring covers 1 vertices, graph has 2"):
        coloring_up(d, SetColoring((frozenset({0}),), 2))


def test_shift_colorings_are_checked_on_the_digraphs_own_arcs():
    # on every labelled digraph of up to 3 vertices: the on-arcs rule agrees
    # with the built shift on every arc coloring from 3 colors, and coloring_up
    # takes a set coloring over subsets of {0, 1, 2} iff psi(y) is not inside
    # psi(x) on every arc (x, y), with a proper output
    subsets = [frozenset(c for c in range(3) if mask >> c & 1) for mask in range(8)]
    shift_colorings = set_colorings = 0
    for d in all_labelled_digraphs(3):
        under_shift = underline(arc_shift(d)[0])
        for colors in product(range(3), repeat=len(d.arcs)):
            shift_colorings += 1
            coloring = Coloring(colors, 3)
            assert arcshift._proper_on_arcs(d, colors) == is_proper_coloring(under_shift, coloring)
        for sets in product(subsets, repeat=d.n):
            set_colorings += 1
            sc = SetColoring(sets, 3)
            if all(not sets[y] <= sets[x] for x, y in d.arcs):
                assert is_proper_coloring(under_shift, coloring_up(d, sc))
            else:
                with pytest.raises(ValueError, match="empty set difference"):
                    coloring_up(d, sc)
    assert (shift_colorings, set_colorings) == (4113, 33032)
    # sets of unequal sizes are taken too
    sc = SetColoring((frozenset({0}), frozenset({1, 2}), frozenset({1, 3})), 4)
    assert coloring_up(complete_digraph(3), sc) == Coloring((1, 1, 0, 3, 0, 2), 4)


def test_coloring_up_random_proper():
    rng = random.Random(29)
    for _ in range(25):
        d = _rand_digraph(rng, 6)
        up = coloring_up(d, _uniform(d))
        shifted, _ = arc_shift(d)
        assert is_proper_coloring(underline(shifted), up)


def test_round_trip_down_of_up():
    rng = random.Random(31)
    for _ in range(10):
        d = _rand_digraph(rng, 5)
        up = coloring_up(d, _uniform(d))
        down = coloring_down(d, up)
        assert is_proper_set_coloring(underline(d), down)


# ---------------------------------------------------------------------------
# the bound sandwich


@pytest.mark.parametrize("chi", range(131))
def test_min_k_power_is_its_definition(chi):
    assert arcshift._min_k_power(chi) == min(k for k in range(chi + 1) if 2**k >= chi)


def test_lemma_rel_k4():
    report = lemma_rel_bounds_check(complete_digraph(4))
    assert report.chi_d == 4
    assert (report.lower, report.upper) == (2, 4)
    assert report.chi_shift == 4  # exact value for the complete digraph
    assert report.passed


def test_lemma_rel_k2():
    report = lemma_rel_bounds_check(complete_digraph(2))
    assert report.chi_d == 2
    assert (report.lower, report.upper) == (1, 2)
    assert report.chi_shift == 2  # the shift is a digon
    assert report.passed


def test_lemma_rel_arcless():
    report = lemma_rel_bounds_check(Digraph(3))
    assert report.chi_d == 1 and report.chi_shift == 0
    assert report.passed


def test_lemma_rel_random():
    rng = random.Random(37)
    for _ in range(30):
        d = _rand_digraph(rng, 6)
        report, transforms_hold = arcshift._lemma_rel(d)
        assert report.passed and transforms_hold


def test_lem_rel_shifts_each_digraph_once(monkeypatch):
    # the bounds shift each digraph once, and neither transform builds a shift
    calls = []

    def counting(d):
        calls.append(d)
        return arc_shift(d)

    monkeypatch.setattr(arcshift, "arc_shift", counting)
    rng = random.Random(47)
    digraphs = [complete_digraph(4), Digraph(3)] + [_rand_digraph(rng, 5) for _ in range(5)]
    for i, d in enumerate(digraphs):
        report, transforms_hold = arcshift._lemma_rel(d)
        assert report.passed and transforms_hold
        assert calls == digraphs[: i + 1]


def test_lem_rel_claim_reuses_the_chromatic_searches(monkeypatch):
    # chi and the colorings both transforms start from come from one search
    # per underline graph: 820 homomorphism searches when the transforms
    # re-solved their inputs, 170 with one search per digraph's graph, and
    # 145 with one per distinct graph
    search = solvers._hom_search
    calls = []

    def counting(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(solvers, "_hom_search", counting)
    _, ok, _ = harness._claim_lem_rel(harness.SuiteConfig(seed=1))
    assert ok
    assert len(calls) <= 200


_BROKEN_DOWN_TRANSFORM = """
import sys
from prodcolor import arcshift
from prodcolor.graphs import Digraph

if not sys.flags.optimize:
    sys.exit("needs python -O")
# a down-transform that drops every out-arc color gives every vertex the empty
# set: an improper set coloring. Only the sets coloring_down builds are emptied
real = arcshift.SetColoring


def dropped(sets, k):
    if sys._getframe(1).f_code.co_name == "coloring_down":
        sets = tuple(frozenset() for _ in sets)
    return real(sets, k)


arcshift.SetColoring = dropped
d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
try:
    print(arcshift._lemma_rel(d)[1])
except RuntimeError as exc:
    print("raised", exc)
"""


def test_lemma_rel_transforms_check_survives_python_O():
    # python -O strips assert statements; the properness checks must not be asserts
    import os
    import subprocess
    import sys

    import prodcolor

    src = os.path.dirname(os.path.dirname(prodcolor.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_DOWN_TRANSFORM],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(("False", "raised")), proc.stdout


def test_uniform_set_coloring_shape():
    d = complete_digraph(4)
    sc = _uniform(d)
    assert sc.k == 4 and {len(s) for s in sc.sets} == {2}
    assert is_proper_set_coloring(underline(d), sc)


def test_set_coloring_validation():
    with pytest.raises(ValueError, match="vertex 1 uses color 2 outside palette 2"):
        SetColoring((frozenset({0}), frozenset({2})), 2)
    with pytest.raises(ValueError, match="set coloring covers 1 vertices, graph has 2"):
        is_proper_set_coloring(underline(complete_digraph(2)), SetColoring((frozenset(),), 1))


# ---------------------------------------------------------------------------
# Schelp's coloring


def test_schelp_triples():
    triples = schelp_triples()
    assert len(triples) == 36
    assert all(i != j and j != k for i, j, k in triples)
    assert len(set(triples)) == 36


def test_schelp_frozen_examples():
    triples = schelp_triples()
    coloring = schelp_coloring()
    by_triple = dict(zip(triples, coloring.colors))
    assert by_triple[(0, 1, 2)] == 1
    assert by_triple[(0, 3, 0)] == 1  # smallest of {1, 2}
    assert by_triple[(1, 3, 2)] == 0
    assert by_triple[(2, 0, 2)] == 0


def test_schelp_proper_three_colors_exact():
    coloring = schelp_coloring()
    s1, _ = arc_shift(complete_digraph(4))
    s2, _ = arc_shift(s1)
    ug = underline(s2)
    assert is_proper_coloring(ug, coloring)
    assert coloring.colors_used() == 3
    assert k_colorable(ug, 2) is None
    assert chromatic_number(ug) == 3


def test_schelp_pullback_along_homomorphism():
    # any 4-chromatic digraph maps into the complete digraph via a proper
    # 4-coloring; pulling the coloring back through the induced double-shift
    # homomorphism 3-colors its own double shift
    rng = random.Random(41)
    found = 0
    triple_color = dict(zip(schelp_triples(), schelp_coloring().colors))
    while found < 5:
        d = _rand_digraph(rng, 6, p=0.7)
        base = underline(d)
        if chromatic_number(base) != 4:
            continue
        found += 1
        phi = k_colorable(base, 4)
        s1, a1 = arc_shift(d)
        s2, a2 = arc_shift(s1)
        colors = []
        for e1, e2 in a2:
            x, y = a1[e1]
            _, z = a1[e2]
            colors.append(triple_color[(phi.colors[x], phi.colors[y], phi.colors[z])])
        pulled = Coloring(tuple(colors), 3)
        assert is_proper_coloring(underline(s2), pulled)


# ---------------------------------------------------------------------------
# functoriality identities


def test_functoriality_k2_pair():
    assert functoriality_check(complete_digraph(2), complete_digraph(2))


def test_functoriality_reverse_identity_k3():
    d = complete_digraph(3)
    shifted, arcs = arc_shift(d)
    shift_rev, arcs_rev = arc_shift(reverse(d))
    position = {arc: i for i, arc in enumerate(arcs)}
    back = [position[y, x] for x, y in arcs_rev]
    remapped = frozenset((back[i], back[j]) for i, j in shift_rev.arcs)
    assert remapped == reverse(shifted).arcs


def test_functoriality_random():
    rng = random.Random(43)
    for _ in range(25):
        assert functoriality_check(_rand_digraph(rng), _rand_digraph(rng))


_real_digraph_product, _real_pair_index, _real_reverse = (
    arcshift.digraph_product, arcshift.pair_index, arcshift.reverse
)
_D1, _D2 = complete_digraph(2), complete_digraph(3)


def _product_with_a_stray_arc(a: Digraph, b: Digraph) -> Digraph:
    """D1 x D2 plus an arc between two new vertices, which no other arc meets;
    every other product, such as that of the shifts, is left alone."""
    d = _real_digraph_product(a, b)
    return Digraph.from_arcs(d.n + 2, sorted(d.arcs) + [(d.n, d.n + 1)]) if b is _D2 else d


@pytest.mark.parametrize(
    "builder, broken",
    [
        # D1 x D2 gains a stray arc: its shift gains a vertex on no shift arc,
        # so the shift arcs still match and only the arc count tells
        ("digraph_product", _product_with_a_stray_arc),
        # the arc bijection is off by one, so the shifts' products differ
        ("pair_index", lambda i, j, n: _real_pair_index(i, j, n) + 1),
        # the reverse loses its last arc, so the reversed shifts differ
        ("reverse", lambda d: Digraph.from_arcs(d.n, sorted(_real_reverse(d).arcs)[:-1])),
    ],
    ids=["arc-count", "product-shift", "reversed-shift"],
)
def test_functoriality_fails_on_a_broken_builder(monkeypatch, builder, broken):
    # one negative control per return False of functoriality_check; each
    # breaks one builder, and the later checks would pass it
    assert functoriality_check(_D1, _D2)
    monkeypatch.setattr(arcshift, builder, broken)
    assert functoriality_check(_D1, _D2) is False


# ---------------------------------------------------------------------------
# products of digraphs: decomposition and the bound chain


def test_underline_decomposition_examples():
    assert underline_decomposition_check(complete_digraph(3), complete_digraph(2))
    rng = random.Random(47)
    for _ in range(25):
        assert underline_decomposition_check(_rand_digraph(rng), _rand_digraph(rng))


def test_bound_chain_k3():
    report = bound_chain_instance(complete_digraph(3), complete_digraph(3))
    assert report.chi_underline_product == 3  # K3 x K3
    assert report.passed


def test_bound_chain_single_arcs():
    d = Digraph.from_arcs(2, [(0, 1)])
    report = bound_chain_instance(d, d)
    assert report.chi_product == 2
    assert report.chi_product_reversed == 2
    assert report.chi_underline_product == 2
    assert report.passed


def test_bound_chain_random():
    rng = random.Random(53)
    for _ in range(20):
        assert bound_chain_instance(_rand_digraph(rng), _rand_digraph(rng)).passed
