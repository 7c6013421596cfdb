from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodcolor.errors import CapExceeded
from prodcolor.fractional import FractionalColoring, fractional_chromatic
from prodcolor import fractional, simplex
from prodcolor.arcshift import arc_shift
from prodcolor.graphs import (
    Graph,
    _product_generators,
    add_loops,
    complete_digraph,
    complete_graph,
    cycle,
    kneser,
    kneser_subsets,
    named,
    tensor_product,
    underline,
)
from prodcolor.harness import FRAC_CATALOG
from prodcolor.objects import fractional_coloring_from_obj
from prodcolor.simplex import add_covering_columns, open_covering_lp
from prodcolor.solvers import chromatic_number, independence_number
from prodcolor.symmetry import _orbits, automorphism_generators

from oracles import (
    FractionTableau,
    brute_automorphisms,
    brute_group,
    brute_is_automorphism,
    brute_maximal_independent_sets,
)


# ---------------------------------------------------------------------------
# simplex core


def test_simplex_hand_example():
    # min x0 + x1 + x2 covering three rows:
    # col0 = {0, 1}, col1 = {1, 2}, col2 = {0, 2}; optimum 3/2, all weights 1/2
    sol = open_covering_lp(3, [(0, 1), (1, 2), (0, 2)]).solution()
    assert sol.value == Fraction(3, 2)
    assert sol.primal == {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert sum(sol.dual) == Fraction(3, 2)


def test_simplex_single_column():
    sol = open_covering_lp(2, [(0, 1)]).solution()
    assert sol.value == 1
    assert sol.primal == {0: Fraction(1)}


def test_simplex_prefers_cheap_cover():
    # covering either by two singletons or one big set; optimum is the big set
    sol = open_covering_lp(2, [(0,), (1,), (0, 1)]).solution()
    assert sol.value == 1


def test_simplex_empty():
    sol = open_covering_lp(0, []).solution()
    assert sol.value == 0 and sol.primal == {}


def test_simplex_empty_lp_takes_no_columns():
    # with no columns, pricing offers no structural candidate
    lp = open_covering_lp(0, [])
    add_covering_columns(lp, [])
    sol = lp.solution()
    assert sol.value == 0 and sol.primal == {} and sol.dual == ()


def test_simplex_iteration_guard_raises_cap_exceeded(monkeypatch):
    # the guard is a cap like the size caps: CapExceeded names it and the count
    monkeypatch.setattr(simplex, "_ITERATION_GUARD", 5)
    with pytest.raises(CapExceeded, match="iteration 6, above the _ITERATION_GUARD cap of 5"):
        fractional_chromatic(kneser(7, 3), max_vertices=35, generators=())


def test_simplex_iteration_guard_bounds_the_whole_lp(monkeypatch):
    # the plain K(7,3) LP takes 526 iterations over its opening solve and its
    # pricing rounds, no one call of which reaches 60; the running total does
    monkeypatch.setattr(simplex, "_ITERATION_GUARD", 60)
    with pytest.raises(CapExceeded, match="simplex LP reached iteration 61, above the"):
        fractional_chromatic(kneser(7, 3), max_vertices=35, generators=())


def test_an_uncovered_row_takes_its_unit_column():
    # row 1 meets no column, so its unit column e_1, id ns + m + 1 = 4, covers
    # it at weight b_1; (0, 0) covers row 0 twice and replaces unit e_0
    sol = open_covering_lp(2, [(0, 0)], [2, 3]).solution()
    assert sol.primal == {0: 1, 4: 3} and sol.value == 4 and sol.dual == (Fraction(1, 2), 1)


def test_simplex_rejects_uncoverable_rows():
    with pytest.raises(ValueError, match=r"column 1 \(\) is empty"):
        open_covering_lp(1, [(0,), ()]).solution()
    with pytest.raises(ValueError, match=r"column 0 \(0, 1, 5\) .*outside 0\.\.1"):
        open_covering_lp(2, [(0, 1, 5)]).solution()
    with pytest.raises(ValueError, match=r"column 0 \(0, -1\) .*outside 0\.\.1"):
        open_covering_lp(2, [(0, -1)]).solution()
    # a coefficient is the number of times a column lists its row, so no
    # column can state a coefficient below 1: (0, 0) is row 0 at coefficient 2
    assert open_covering_lp(1, [(0, 0)]).solution().value == Fraction(1, 2)
    for rhs in ([0, 1], [1], [1, Fraction(1, 2)], [1, -2]):
        with pytest.raises(ValueError, match="rhs must be 2 positive integers"):
            open_covering_lp(2, [(0, 1)], rhs).solution()


def test_simplex_integer_coefficients_and_rhs():
    # rows 0 and 1 need 3 and 2; (0, 0, 1, 1) covers each row twice, so
    # x = 3/2 covers both at value 3/2, and the duals (1/2, 0) price it at 1
    sol = open_covering_lp(2, [(0, 0, 1, 1), (1,)], [3, 2]).solution()
    assert sol.value == Fraction(3, 2)
    assert sol.primal == {0: Fraction(3, 2)}
    assert sol.dual == (Fraction(1, 2), 0)
    # one orbit row of C5 (rhs 5) and its 2-sets: 5/2 = chi_f(C5)
    assert open_covering_lp(1, [(0, 0)], [5]).solution().value == Fraction(5, 2)


def test_simplex_degenerate_instances():
    # one column covering several rows leaves several basic variables at zero
    # once it enters; the pivots must still end at the optimum
    sol = open_covering_lp(4, [(0, 1, 2, 3)]).solution()
    assert sol.value == 1 and sum(sol.dual) == 1
    sol = open_covering_lp(3, [(0, 1, 2), (0, 1, 2), (0, 1)]).solution()
    assert sol.value == 1


@st.composite
def _covering_lps(draw):
    """Up to 8 rows and 14 nonempty columns, every row covered by some column.

    A column lists each of its rows 1 to 3 times (its integer coefficient),
    and each row's right-hand side is 1 to 3; both shrink to the 0/1 LP with
    all right-hand sides 1.
    """
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 14))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    cols = []
    for j in range(k):
        extra = draw(st.sets(st.integers(0, m - 1), min_size=0 if j in owner else 1))
        rows = sorted(extra | {i for i in range(m) if owner[i] == j})
        times = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
        cols.append(tuple(i for i, c in zip(rows, times) for _ in range(c)))
    rhs = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    return m, cols, rhs


def _check_certificate(m, cols, rhs, sol):
    """Primal covers every row to its right-hand side, the duals are a feasible
    dual solution, and the three values agree; a column adds its weight to a
    row once per listing, and the unit column ns + m + i to row i."""
    cover, ns = [Fraction(0)] * m, len(cols)
    for j, w in sol.primal.items():
        assert w > 0
        for i in cols[j] if j < ns else (j - ns - m,):
            cover[i] += w
    assert all(c >= b for c, b in zip(cover, rhs))
    assert len(sol.dual) == m and all(0 <= y <= 1 for y in sol.dual)
    assert all(sum(sol.dual[i] for i in c) <= 1 for c in cols)
    assert sol.value == sum(sol.primal.values()) == sum(y * b for y, b in zip(sol.dual, rhs))


@settings(max_examples=200, deadline=None)
@given(_covering_lps())
# found by the search against a pivot that left the rows off the pivot column
# at the old denominator: that pivot returns value 0 and an empty cover here
@example((5, [(1, 2, 3, 4), (0, 1, 2, 3), (0, 4)], (1,) * 5))
def test_simplex_certificate_on_random_lps(lp):
    # checked with no simplex code: primal covers, dual is feasible, values agree
    m, cols, rhs = lp
    _check_certificate(m, cols, rhs, open_covering_lp(m, cols, rhs).solution())


def _warm_starts(m, cols, rhs, data):
    """The LP opened on the first columns that cover every row, then with the
    rest added in drawn batches; yields the LP after each step."""
    first = next(k for k in range(1, len(cols) + 1) if set().union(*cols[:k]) == set(range(m)))
    master = open_covering_lp(m, cols[:first], rhs)
    yield master
    rest = cols[first:]
    while rest:
        k = data.draw(st.integers(1, len(rest)))
        add_covering_columns(master, rest[:k])
        rest = rest[k:]
        yield master


@settings(max_examples=100, deadline=None)
@given(_covering_lps(), st.data())
def test_added_columns_continue_from_the_basis(lp, data):
    # the warm-started optimum is the one-shot optimum
    m, cols, rhs = lp
    *_, master = _warm_starts(m, cols, rhs, data)
    assert master.columns == cols
    warm, cold = master.solution(), open_covering_lp(m, cols, rhs).solution()
    assert warm.value == cold.value
    _check_certificate(m, cols, rhs, warm)
    scaled = master.prices()
    assert warm.dual == tuple(Fraction(v, master.den) for v in scaled)


@settings(max_examples=200, deadline=None)
@given(_covering_lps(), st.data())
def test_basis_rows_stay_lexicographically_positive(lp, data):
    # the termination argument of the simplex: every row of [x_B | B^-1] is
    # lexicographically positive at the first (unit) basis, and each
    # lexicographic pivot keeps it so, also across added columns
    m, cols, rhs = lp
    for master in _warm_starts(m, cols, rhs, data):
        assert master.den > 0
        for x, row in zip(master.xb, master.binv):
            assert next(v for v in [x, *row] if v) > 0


def _assert_same_pivots(master, oracle):
    sol = master.solution()
    assert (master.iterations, master.basis) == (oracle.iterations, oracle.basis)
    assert sol.primal == oracle.primal() and list(sol.dual) == oracle.dual()


@settings(max_examples=100, deadline=None)
@given(_covering_lps(), st.data())
def test_packed_simplex_pivots_like_a_fraction_tableau(lp, data):
    # the same entering variables, leaving rows, iteration counts and optima
    # as a dense Fraction tableau under the same rules, after the opening
    # solve and after every batch of added columns
    m, cols, rhs = lp
    oracle = None
    for master in _warm_starts(m, cols, rhs, data):
        if oracle is None:
            oracle = FractionTableau(m, cols[: master.ns], rhs)
        else:
            oracle.add(cols[oracle.ns : master.ns])
        _assert_same_pivots(master, oracle)


def _wide_lp():
    """14 columns on 14 rows whose coefficients, 0 to 60 each, sum to 420, and
    b = A x for a positive integer x. y = 1/420 prices every column at exactly
    1, so x, nondegenerate, is the unique optimum, sum(x) its value, and the
    final basis is all 14 columns: den * B^-1 is then the adjugate of a dense
    14 x 14 matrix, whose entries pass 2^63."""
    rng, m, total = random.Random(0), 14, 420
    a = []
    while len(a) < m:
        head = [rng.randint(0, 60) for _ in range(m - 1)]
        if 0 <= total - sum(head) <= 60:
            a.append(head + [total - sum(head)])
    x = [rng.randint(1, 9) for _ in range(m)]
    cols = [tuple(i for i in range(m) for _ in range(col[i])) for col in a]
    return m, cols, [sum(col[i] * xj for col, xj in zip(a, x)) for i in range(m)], sum(x)


_WIDE_LP_UNDER_O = """
import json, sys
from prodcolor.simplex import open_covering_lp
m, cols, rhs = json.load(sys.stdin)
lp = open_covering_lp(m, [tuple(c) for c in cols], rhs)
value = lp.solution().value
print(lp.w, lp.iterations, value.numerator, value.denominator, lp.basis)
"""


def test_packed_columns_repack_wider_before_a_field_overflows():
    m, cols, rhs, value = _wide_lp()
    master = open_covering_lp(m, cols, rhs)
    assert master.w == 128 and max(abs(v) for row in master.binv for v in row) >> 63
    assert sorted(master.basis) == list(range(m)) and master.solution().value == value
    _assert_same_pivots(master, FractionTableau(m, cols, rhs))
    _check_certificate(m, cols, rhs, master.solution())
    # python -O strips asserts; the width rule must not depend on any
    src = os.path.dirname(os.path.dirname(fractional.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WIDE_LP_UNDER_O], input=json.dumps([m, cols, rhs]),
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(None, 4) == [
        "128", str(master.iterations), str(value), "1", str(master.basis) + "\n"
    ]


# column -> {row: coefficient}; a pivot here multiplies the largest entry of
# den * B^-1 by more than the entering column's length, so only the bound on
# the new entries, not the one on the transformed column, sees the overflow
_STEEP_LP = [
    {11: 33, 12: 1},
    {0: 33, 1: 2, 2: 33, 3: 2, 4: 33, 6: 2, 7: 1, 8: 2, 11: 1, 12: 1, 13: 1},
    {12: 33, 13: 1},
    {0: 1, 1: 33, 3: 33, 4: 33, 5: 2, 6: 33, 7: 1, 9: 1, 10: 1, 11: 1, 12: 33, 13: 2, 14: 33, 15: 1},
    {6: 1, 15: 33},
    {0: 1, 1: 1, 3: 1, 4: 1, 6: 33, 7: 1, 8: 33, 9: 33, 10: 1, 12: 1, 13: 1, 14: 1, 15: 2},
    {0: 33, 4: 1},
    {6: 1, 7: 33, 11: 2},
    {4: 33, 5: 1},
    {9: 33, 10: 1},
    {6: 1, 14: 33},
    {1: 33, 2: 1},
    {2: 1, 10: 33},
]
_STEEP_RHS = [5, 25, 6, 9, 59, 56, 56, 17, 25, 31, 51, 31, 57, 2, 36, 9]


def test_packed_columns_repack_before_a_steep_pivot():
    m, rhs = 16, _STEEP_RHS
    cols = [tuple(i for i, a in sorted(col.items()) for _ in range(a)) for col in _STEEP_LP]
    master = open_covering_lp(m, cols, rhs)
    assert master.w == 128
    _assert_same_pivots(master, FractionTableau(m, cols, rhs))
    _check_certificate(m, cols, rhs, master.solution())


def test_added_columns_that_price_out_keep_the_basis():
    # weight 1 on (0, 1) and on the unit column of row 2 (id 2 + 3 + 2) is
    # optimal; (0,) and (2,) price like the units of rows 0 and 2, at reduced
    # cost 0, so one pricing pass confirms the optimum without a pivot
    master = open_covering_lp(3, [(0, 1), (1, 2)])
    before = master.solution()
    add_covering_columns(master, [(0,), (2,)])
    after = master.solution()
    assert before.primal == {0: 1, 7: 1} and after.primal == {0: 1, 9: 1}
    assert after.dual == before.dual
    assert after.iterations == before.iterations + 1


def test_added_columns_are_checked():
    master = open_covering_lp(2, [(0, 1)])
    with pytest.raises(ValueError, match="empty"):
        add_covering_columns(master, [()])
    with pytest.raises(ValueError, match="outside"):
        add_covering_columns(master, [(0, 2)])
    with pytest.raises(ValueError, match=r"column 1 \(-1,\) .*outside"):
        add_covering_columns(master, [(1,), (-1,)])
    add_covering_columns(master, [(0,)])
    assert master.solution().value == 1
    # a repeated row is a coefficient: (0, 0, 1, 1) covers both rows twice
    add_covering_columns(master, [(0, 0, 1, 1)])
    assert master.solution().value == Fraction(1, 2)


# ---------------------------------------------------------------------------
# fractional chromatic values


def test_chi_f_c5():
    value, witness = fractional_chromatic(cycle(5))
    assert value == Fraction(5, 2)
    assert witness.value == Fraction(5, 2)
    assert witness.covers(cycle(5))
    # the known optimum: five 2-element sets at weight 1/2 (hand certificate)
    hand = FractionalColoring(
        tuple(frozenset(s) for s in [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]),
        (Fraction(1, 2),) * 5,
    )
    assert hand.covers(cycle(5)) and hand.value == Fraction(5, 2)


def test_chi_f_complete():
    value, witness = fractional_chromatic(complete_graph(4))
    assert value == 4
    assert witness.covers(complete_graph(4))


def test_chi_f_petersen():
    value, _ = fractional_chromatic(named("petersen"))
    assert value == Fraction(5, 2)


def test_chi_f_kneser_small():
    assert fractional_chromatic(kneser(5, 2))[0] == Fraction(5, 2)
    assert fractional_chromatic(kneser(6, 2))[0] == Fraction(3)


def test_chi_f_kneser_larger():
    # chi_f(K(m,k)) = m/k; these need the cap raised
    assert fractional_chromatic(kneser(7, 3), max_vertices=60)[0] == Fraction(7, 3)
    assert fractional_chromatic(kneser(8, 3), max_vertices=60)[0] == Fraction(8, 3)


def test_chi_f_petersen_squared_beyond_the_default_cap():
    # 100 vertices; listing every maximal independent set first never finished
    p = named("petersen")
    value, witness = fractional_chromatic(tensor_product(p, p), max_vertices=100)
    assert value == Fraction(5, 2) and witness.value == value
    assert witness.covers(tensor_product(p, p))


@pytest.mark.parametrize(
    "sets, weights, message",
    [
        ([[0, 2], [1, 3]], [[1, 2]], "sets and weights must have equal length"),
        ([[0, 2]], [[-1, 2]], "weights must be nonnegative"),
        ([[0, 2], [1, 3]], [[1, 2], [1, -2]], "weights must be nonnegative"),
    ],
    ids=["unequal-lengths", "negative-numerator", "negative-denominator"],
)
def test_fractional_coloring_refuses_malformed_weights(sets, weights, message):
    # built directly and read from its object form, the same check refuses it
    with pytest.raises(ValueError, match=f"^{message}$"):
        FractionalColoring(
            tuple(map(frozenset, sets)), tuple(Fraction(num, den) for num, den in weights)
        )
    with pytest.raises(ValueError, match=f"^{message}$"):
        fractional_coloring_from_obj({"sets": sets, "weights": weights})


def test_chi_f_edgeless_and_empty():
    assert fractional_chromatic(Graph(3))[0] == 1
    value, witness = fractional_chromatic(Graph(0))
    assert value == 0 and witness.sets == ()


def test_chi_f_at_most_chi_and_at_least_clique_ratio():
    for g in (cycle(5), cycle(7), named("petersen"), kneser(5, 2), complete_graph(4)):
        value, _ = fractional_chromatic(g)
        assert value <= chromatic_number(g)
        assert value >= Fraction(g.n, independence_number(g))


def test_chi_f_vertex_transitive_ratio():
    # for these vertex-transitive graphs chi_f equals |V|/alpha exactly
    for g in (cycle(5), cycle(7), named("petersen"), kneser(5, 2)):
        value, _ = fractional_chromatic(g)
        assert value == Fraction(g.n, independence_number(g))


def test_chi_f_product_instance():
    value, _ = fractional_chromatic(tensor_product(complete_graph(3), cycle(5)))
    assert value == Fraction(5, 2)


def test_chi_f_cap_and_loops():
    with pytest.raises(CapExceeded, match="max_vertices"):
        fractional_chromatic(kneser(7, 3))  # 35 vertices > default 30
    with pytest.raises(ValueError):
        fractional_chromatic(add_loops(cycle(5)))


def test_chi_f_deterministic():
    a = fractional_chromatic(named("petersen"))
    b = fractional_chromatic(named("petersen"))
    assert a == b


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_chi_f_random_sandwich(data):
    n = data.draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    value, witness = fractional_chromatic(g)
    assert witness.covers(g)
    assert Fraction(g.n, independence_number(g)) <= value <= chromatic_number(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chi_f_matches_the_lp_over_every_maximal_set(data):
    # column generation reaches the optimum of the LP over all maximal sets
    n = data.draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    value, witness = fractional_chromatic(g)
    assert value == open_covering_lp(n, brute_maximal_independent_sets(g)).solution().value
    assert witness.covers(g) and witness.value == value


def test_covers_rejects_vertices_outside_the_graph():
    k3 = complete_graph(3)
    # -1 would index vertex 2 and 3 would raise IndexError
    for stray in (-1, 3):
        sets = (frozenset({0}), frozenset({1}), frozenset({stray}))
        assert not FractionalColoring(sets, (Fraction(1),) * 3).covers(k3)
    sets = (frozenset({0}), frozenset({1}), frozenset({2}))
    assert FractionalColoring(sets, (Fraction(1),) * 3).covers(k3)


def test_covers_rejects_a_set_holding_a_looped_vertex():
    # a looped vertex lies in no independent set, so no set may hold it
    sets = (frozenset({0, 2}), frozenset({1, 3}), frozenset({4}))
    hand = FractionalColoring(sets, (Fraction(1),) * 3)
    assert hand.covers(cycle(5))
    assert not hand.covers(add_loops(cycle(5)))
    looped_4 = Graph.from_edges(5, cycle(5).edges, [4])
    assert not hand.covers(looped_4)


def test_covers_rejects_a_set_holding_an_edge():
    # the weights cover every vertex of C5 both times, but {0, 1} is an edge
    weights = (Fraction(1),) * 3
    proper = (frozenset({0, 2}), frozenset({1, 3}), frozenset({4}))
    assert FractionalColoring(proper, weights).covers(cycle(5))
    dependent = (frozenset({0, 1}), frozenset({2, 4}), frozenset({3}))
    assert not FractionalColoring(dependent, weights).covers(cycle(5))


# ---------------------------------------------------------------------------
# symmetry reduction: one LP row per orbit of the generated group


def _one_orbit(n, generators):
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for p in generators:
            if p[v] not in seen:
                seen.add(p[v])
                frontier.append(p[v])
    return len(seen) == n


def _averaged_covers(g, witness):
    """The witness spread over its group covers every vertex with weight >= 1
    by independent sets: the averaging step, checked with no package code."""
    group = brute_group(g.n, witness.generators)
    cover = [Fraction(0)] * g.n
    for p in group:
        for s, w in zip(witness.sets, witness.weights):
            image = [p[v] for v in s]
            if any(g.has_edge(u, v) for u, v in combinations(image, 2)):
                return False
            for v in image:
                cover[v] += w / len(group)
    return all(c >= 1 for c in cover)


def _opened_lps(monkeypatch):
    """The list of every LP that fractional_chromatic opens from now on."""
    opened, original = [], fractional.open_covering_lp

    def spy(*args):
        opened.append(original(*args))
        return opened[-1]

    monkeypatch.setattr(fractional, "open_covering_lp", spy)
    return opened


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chi_f_with_generators_matches_the_full_lp(data):
    n = data.draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    autos = brute_automorphisms(g)
    gens = tuple(data.draw(st.lists(st.sampled_from(autos), max_size=3)))
    value, witness = fractional_chromatic(g, generators=gens)
    assert value == fractional_chromatic(g, generators=())[0]
    assert witness.generators == gens and witness.value == value
    assert witness.covers(g) and _averaged_covers(g, witness)


def test_generators_must_be_automorphisms():
    c5 = cycle(5)
    for bad in ((2, 1, 0, 3, 4), (0, 1, 2, 3), (0, 0, 1, 2, 3), (1, 2, 3, 4, 5), (0, "1", 2, 3, 4)):
        with pytest.raises(ValueError, match="generator 1 is not an automorphism"):
            fractional_chromatic(c5, generators=[(1, 2, 3, 4, 0), bad])
    value, witness = fractional_chromatic(c5, generators=[(1, 2, 3, 4, 0)])
    assert value == Fraction(5, 2) and witness.covers(c5)
    assert not witness._replace(generators=((2, 1, 0, 3, 4),)).covers(c5)
    # a 5-cycle that is no automorphism gives the same single orbit row
    assert not witness._replace(generators=((1, 3, 4, 2, 0),)).covers(c5)
    assert not witness._replace(generators=((0, 1, 2, 3),)).covers(c5)


def test_refinement_cells_are_not_orbits():
    # C6 plus two disjoint triangles is 2-regular, so colour refinement puts
    # all 12 vertices in one cell; as an orbit row it would give 12/alpha =
    # 12/5, below chi_f = 3, so the 12-cycle that would make it one orbit
    # must be refused
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
    g = Graph.from_edges(12, edges)
    assert {len(g.neighbors(v)) for v in range(12)} == {2}
    assert independence_number(g) == 5
    assert open_covering_lp(1, [(0,) * 5], [12]).solution().value == Fraction(12, 5)
    assert fractional_chromatic(g)[0] == 3
    rotation = tuple((v + 1) % 12 for v in range(12))
    with pytest.raises(ValueError, match="not an automorphism"):
        fractional_chromatic(g, generators=[rotation])
    fake = FractionalColoring((frozenset({0, 2, 4, 6, 9}),), (Fraction(12, 5),), (rotation,))
    assert not fake.covers(g)


@pytest.mark.parametrize(
    "gname, hname, expected",
    [
        ("petersen", "petersen", Fraction(5, 2)),
        ("c7", "petersen", Fraction(7, 3)),
        # with the two above, the catalog pairs that frac-hedetniemi skips
        # at its LP cap of 30 vertices
        ("c5", "c7", Fraction(7, 3)),
        ("c7", "c7", Fraction(7, 3)),
        ("k4", "petersen", Fraction(5, 2)),
        ("c5", "petersen", Fraction(5, 2)),
    ],
)
def test_chi_f_of_products_with_product_generators(gname, hname, expected, monkeypatch):
    g, h = named(gname), named(hname)
    gh = tensor_product(g, h)
    gens = _product_generators(
        automorphism_generators(g), g.n, automorphism_generators(h), h.n
    )
    opened = _opened_lps(monkeypatch)
    value, witness = fractional_chromatic(gh, max_vertices=100, generators=gens)
    assert [lp.m for lp in opened] == [1]  # one orbit, one row
    assert value == expected and witness.value == value
    assert witness.covers(gh) and witness.generators == gens
    assert Fraction(gh.n, independence_number(gh)) == expected


def test_chi_f_kneser_7_3_without_generators_keeps_its_pivots(monkeypatch):
    # the no-generator LP is the one-row-per-vertex LP, opened from the
    # first-fit classes: 526 simplex iterations over 55 columns, and the
    # witness is the seven stars
    opened = _opened_lps(monkeypatch)
    value, witness = fractional_chromatic(kneser(7, 3), max_vertices=35, generators=())
    assert value == Fraction(7, 3)
    (lp,) = opened
    assert (lp.iterations, len(lp.columns)) == (526, 55)
    subsets = kneser_subsets(7, 3)
    stars = [frozenset(v for v, s in enumerate(subsets) if i in s) for i in (0, 1, 3, 4, 6, 5, 2)]
    assert witness.sets == tuple(stars)
    assert witness.weights == (Fraction(1, 3),) * 7 and witness.generators == ()


@pytest.mark.parametrize(
    "g, path",
    [(kneser(8, 3), (747, 79)), (tensor_product(cycle(5), named("petersen")), (520, 63))],
    ids=["kneser-8-3", "c5-petersen"],
)
def test_regular_graphs_without_generators_keep_their_pivots(g, path, monkeypatch):
    # on a regular graph the pricing search orders equal weights by vertex
    # alone, so the plain LP keeps its simplex iterations and columns
    opened = _opened_lps(monkeypatch)
    value, witness = fractional_chromatic(g, max_vertices=100, generators=())
    assert len({g.degree(v) for v in range(g.n)}) == 1
    assert value == Fraction(g.n, independence_number(g)) and witness.covers(g)
    assert [(lp.iterations, len(lp.columns)) for lp in opened] == [path]


@pytest.mark.parametrize("generators, unit, rows", [((), 17, 6), (None, 7, 2)], ids=["plain", "found"])
def test_a_basic_unit_column_reads_as_its_orbits_least_vertex(monkeypatch, generators, unit, rows):
    # W5's hub is a first-fit class of its own, which prices like the hub's
    # unit column, so the unit stays basic at weight 1; with found generators
    # the hub's orbit is row 1 of 2, and its least (only) vertex is 5
    opened = _opened_lps(monkeypatch)
    value, witness = fractional_chromatic(named("w5"), generators=generators)
    (lp,) = opened
    assert lp.m == rows and lp.solution().primal[unit] == 1
    assert value == Fraction(7, 2) and witness.covers(named("w5"))
    assert dict(zip(witness.sets, witness.weights))[frozenset({5})] == 1


def test_chi_f_double_shift_of_k7_is_3_from_the_first_fit_start():
    # u(delta^2(K_7)) has 252 vertices, one per triple (a, b, c) with a != b
    # != c, and S_7 acts on the triples; a transposition and the 7-cycle
    # generate it, and its two orbits, the 42 triples with a = c and the 210
    # with a != c, are the LP's two rows; no coloring search runs before pricing
    shift1, arcs1 = arc_shift(complete_digraph(7))
    shift2, arcs2 = arc_shift(shift1)
    triples = [(*arcs1[i], arcs1[j][1]) for i, j in arcs2]
    index = {t: v for v, t in enumerate(triples)}
    gens = tuple(
        tuple(index[tuple(sigma[x] for x in t)] for t in triples)
        for sigma in ((1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0))
    )
    u = underline(shift2)
    assert _orbits(u.n, gens)[1] == [42, 210]
    value, witness = fractional_chromatic(u, max_vertices=252, generators=gens)
    assert (u.n, len(u.edges), value) == (252, 1491, 3)
    assert witness.covers(u) and witness.value == 3
    assert not {"chromatic_number", "k_colorable"} & vars(fractional).keys()


def test_catalog_generators_are_automorphisms_with_one_orbit_per_product():
    # frac-hedetniemi finds each factor's generators and takes the products'
    # from them: every product of two catalog graphs has one orbit row
    found = {name: automorphism_generators(named(name)) for name in FRAC_CATALOG}
    for gname in FRAC_CATALOG:
        g, g_gens = named(gname), found[gname]
        assert g_gens and all(brute_is_automorphism(g, p) for p in g_gens)
        for hname in FRAC_CATALOG:
            h = named(hname)
            gens = _product_generators(g_gens, g.n, found[hname], h.n)
            gh = tensor_product(g, h)
            assert all(brute_is_automorphism(gh, p) for p in gens)
            assert _one_orbit(gh.n, gens)


def test_given_generators_are_checked_once_with_one_orbit_computation(monkeypatch):
    # the 18 found generators of Heawood x Heawood, given: each is checked
    # once before the LP, and the final cover check reuses their orbits
    hw = named("heawood")
    g = tensor_product(hw, hw)
    gens = automorphism_generators(g)
    checked, orbits = [], []
    check, orbit = fractional._is_automorphism, fractional._orbits
    monkeypatch.setattr(fractional, "_is_automorphism", lambda *a: checked.append(a) or check(*a))
    monkeypatch.setattr(fractional, "_orbits", lambda *a: orbits.append(a) or orbit(*a))
    value, witness = fractional_chromatic(g, max_vertices=196, generators=gens)
    assert value == 2 and witness.generators == gens and len(gens) == 18
    assert (len(checked), len(orbits)) == (18, 1)


def test_found_generators_are_not_checked_again(monkeypatch):
    # symmetry checks each generator as it finds it, so fractional_chromatic
    # checks only given ones
    p = named("petersen")
    g = tensor_product(p, p)
    checked = []
    check = fractional._is_automorphism
    monkeypatch.setattr(fractional, "_is_automorphism", lambda *a: checked.append(a) or check(*a))
    value, witness = fractional_chromatic(g, max_vertices=100)
    assert value == Fraction(5, 2) and witness.generators and checked == []


def test_a_solution_that_drops_a_set_is_refused(monkeypatch):
    # the cover check on the final witness is the one primal check
    real_solution = simplex.CoverLp.solution

    def dropping(lp):
        solution = real_solution(lp)
        return solution._replace(primal=dict(sorted(solution.primal.items())[1:]))

    monkeypatch.setattr(simplex.CoverLp, "solution", dropping)
    with pytest.raises(RuntimeError, match="infeasible fractional coloring"):
        fractional_chromatic(cycle(5), generators=())


def test_the_lp_solution_checks_that_primal_and_dual_values_agree():
    # the one check that the witness and the fractional clique have equal value
    lp = open_covering_lp(3, [(0, 1), (1, 2), (0, 2)])
    assert lp.solution().value == Fraction(3, 2)
    lp.p[0] += lp.den
    with pytest.raises(RuntimeError, match="primal/dual value mismatch"):
        lp.solution()
