from __future__ import annotations

import random

import pytest

from prodcolor.arcshift import (
    SetColoring,
    arc_shift,
    bound_chain_instance,
    coloring_down,
    coloring_up,
    functoriality_check,
    is_proper_set_coloring,
    lemma_rel_bounds_check,
    lemma_rel_transforms_check,
    schelp_coloring,
    schelp_triples,
    underline_decomposition_check,
    uniform_set_coloring,
)
from prodcolor.graphs import Digraph, complete_digraph, reverse, underline
from prodcolor.solvers import (
    Coloring,
    chromatic_number,
    is_proper_coloring,
    k_colorable,
)


def _rand_digraph(rng, n_max=5, p=0.4):
    n = rng.randint(1, n_max)
    arcs = [(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p]
    return Digraph.from_arcs(n, arcs)


# ---------------------------------------------------------------------------
# the shift operator


def test_shift_k2_is_digon():
    shifted, index = arc_shift(complete_digraph(2))
    assert shifted.n == 2
    assert shifted.arcs == frozenset({(0, 1), (1, 0)})
    assert index.arcs == ((0, 1), (1, 0))


def test_shift_single_arc():
    shifted, _ = arc_shift(Digraph.from_arcs(2, [(0, 1)]))
    assert shifted.n == 1 and not shifted.arcs


def test_shift_k4_outdegrees():
    shifted, index = arc_shift(complete_digraph(4))
    assert shifted.n == 12
    for i, (x, y) in enumerate(index.arcs):
        out = sum(1 for a, b in shifted.arcs if a == i)
        assert out == 3  # arcs leaving y, including the one back to x


def test_arc_index_stable():
    d = Digraph.from_arcs(3, [(2, 0), (0, 1), (1, 0)])
    _, i1 = arc_shift(d)
    _, i2 = arc_shift(Digraph.from_arcs(3, [(0, 1), (1, 0), (2, 0)]))
    assert i1.arcs == i2.arcs == ((0, 1), (1, 0), (2, 0))
    assert i1.index_of((2, 0)) == 2 and i1.arc_at(0) == (0, 1)


# ---------------------------------------------------------------------------
# coloring transforms


def test_coloring_down_k2():
    d = complete_digraph(2)
    sc = coloring_down(d, Coloring((0, 1), 2))
    assert sc.sets == (frozenset({0}), frozenset({1}))
    assert sc.size is None


def test_coloring_down_sink_gets_empty_set():
    d = Digraph.from_arcs(2, [(0, 1)])  # vertex 1 is a sink
    sc = coloring_down(d, Coloring((0,), 1))
    assert sc.sets == (frozenset({0}), frozenset())
    assert is_proper_set_coloring(underline(d), sc)


def test_coloring_down_rejects_improper():
    d = complete_digraph(2)
    with pytest.raises(ValueError, match="not a proper coloring"):
        coloring_down(d, Coloring((0, 0), 2))


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
    sc = SetColoring((frozenset({0}), frozenset({1})), 2, 1)
    up = coloring_up(d, sc)
    # arc order is (0,1), (1,0): colors min({1}-{0}) = 1 and min({0}-{1}) = 0
    assert up.colors == (1, 0)
    assert up.k == 2


def test_coloring_up_rejects_bad_inputs():
    d = complete_digraph(2)
    with pytest.raises(ValueError, match="equal"):
        coloring_up(d, SetColoring((frozenset({0}), frozenset({0, 1})), 2, None))
    with pytest.raises(ValueError, match="not a proper set-coloring"):
        coloring_up(d, SetColoring((frozenset({0}), frozenset({0})), 2, 1))


def test_coloring_up_random_proper():
    rng = random.Random(29)
    for _ in range(25):
        d = _rand_digraph(rng, 6)
        up = coloring_up(d, uniform_set_coloring(d))
        shifted, _ = arc_shift(d)
        assert is_proper_coloring(underline(shifted), up)


def test_round_trip_down_of_up():
    rng = random.Random(31)
    for _ in range(10):
        d = _rand_digraph(rng, 5)
        up = coloring_up(d, uniform_set_coloring(d))
        down = coloring_down(d, up)
        assert is_proper_set_coloring(underline(d), down)


# ---------------------------------------------------------------------------
# the bound sandwich


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
        assert lemma_rel_bounds_check(d).passed
        assert lemma_rel_transforms_check(d)


_BROKEN_DOWN_TRANSFORM = """
import sys
from prodcolor import arcshift
from prodcolor.graphs import Digraph

if not sys.flags.optimize:
    sys.exit("needs python -O")
# with no out-neighbors every vertex gets the empty set: an improper set coloring
Digraph.out_neighbors = lambda self, v: []
d = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
try:
    print(arcshift.lemma_rel_transforms_check(d))
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
    sc = uniform_set_coloring(d)
    assert sc.k == 4 and sc.size == 2
    assert is_proper_set_coloring(underline(d), sc)


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
        for e1, e2 in a2.arcs:
            x, y = a1.arc_at(e1)
            _, z = a1.arc_at(e2)
            colors.append(triple_color[(phi.colors[x], phi.colors[y], phi.colors[z])])
        pulled = Coloring(tuple(colors), 3)
        assert is_proper_coloring(underline(s2), pulled)


# ---------------------------------------------------------------------------
# functoriality identities


def test_functoriality_k2_pair():
    assert functoriality_check(complete_digraph(2), complete_digraph(2))


def test_functoriality_reverse_identity_k3():
    d = complete_digraph(3)
    shifted, idx = arc_shift(d)
    shift_rev, idx_rev = arc_shift(reverse(d))
    remapped = frozenset(
        (
            idx.index_of(tuple(reversed(idx_rev.arc_at(i)))),
            idx.index_of(tuple(reversed(idx_rev.arc_at(j)))),
        )
        for i, j in shift_rev.arcs
    )
    assert remapped == reverse(shifted).arcs


def test_functoriality_random():
    rng = random.Random(43)
    for _ in range(25):
        assert functoriality_check(_rand_digraph(rng), _rand_digraph(rng))


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
