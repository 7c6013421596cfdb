from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodcolor.errors import CapExceeded
from prodcolor.fractional import FractionalColoring, fractional_chromatic
from prodcolor.graphs import (
    Graph,
    add_loops,
    complete_graph,
    cycle,
    kneser,
    named,
    tensor_product,
)
from prodcolor.harness import SuiteConfig, run_suite
from prodcolor.simplex import add_covering_columns, open_covering_lp, solve_covering_lp
from prodcolor.solvers import chromatic_number, independence_number

from oracles import brute_maximal_independent_sets


# ---------------------------------------------------------------------------
# simplex core


def test_simplex_hand_example():
    # min x0 + x1 + x2 covering three rows:
    # col0 = {0, 1}, col1 = {1, 2}, col2 = {0, 2}; optimum 3/2, all weights 1/2
    sol = solve_covering_lp(3, [(0, 1), (1, 2), (0, 2)])
    assert sol.value == Fraction(3, 2)
    assert sol.primal == {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert sum(sol.dual) == Fraction(3, 2)


def test_simplex_single_column():
    sol = solve_covering_lp(2, [(0, 1)])
    assert sol.value == 1
    assert sol.primal == {0: Fraction(1)}


def test_simplex_prefers_cheap_cover():
    # covering either by two singletons or one big set; optimum is the big set
    sol = solve_covering_lp(2, [(0,), (1,), (0, 1)])
    assert sol.value == 1


def test_simplex_empty():
    sol = solve_covering_lp(0, [])
    assert sol.value == 0 and sol.primal == {}


def test_simplex_rejects_uncoverable_rows():
    with pytest.raises(ValueError, match="covered by no column"):
        solve_covering_lp(2, [(0,)])
    with pytest.raises(ValueError, match=r"column 1 \(\) is empty"):
        solve_covering_lp(1, [(0,), ()])
    # a repeated row is not set membership: (0, 0) would count row 0 twice
    with pytest.raises(ValueError, match=r"column 0 \(0, 0\) .*repeats a row"):
        solve_covering_lp(1, [(0, 0)])
    with pytest.raises(ValueError, match=r"column 0 \(0, 1, 5\) .*outside 0\.\.1"):
        solve_covering_lp(2, [(0, 1, 5)])


def test_simplex_degenerate_instances():
    # one column covering several rows leaves several basic variables at zero
    # after phase 1; phase 2 must still end at the optimum
    sol = solve_covering_lp(4, [(0, 1, 2, 3)])
    assert sol.value == 1 and sum(sol.dual) == 1
    sol = solve_covering_lp(3, [(0, 1, 2), (0, 1, 2), (0, 1)])
    assert sol.value == 1


@st.composite
def _covering_lps(draw):
    """Up to 8 rows and 14 nonempty columns, every row covered by some column."""
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 14))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    cols = []
    for j in range(k):
        extra = draw(st.sets(st.integers(0, m - 1), min_size=0 if j in owner else 1))
        cols.append(tuple(sorted(extra | {i for i in range(m) if owner[i] == j})))
    return m, cols


@settings(max_examples=200, deadline=None)
@given(_covering_lps())
# found by the search against a pivot that left the rows off the pivot column
# at the old denominator: that pivot returns value 0 and an empty cover here
@example((5, [(1, 2, 3, 4), (0, 1, 2, 3), (0, 4)]))
def test_simplex_certificate_on_random_lps(lp):
    # checked with no simplex code: primal covers, dual is feasible, values agree
    m, cols = lp
    sol = solve_covering_lp(m, cols)
    cover = [Fraction(0)] * m
    for j, w in sol.primal.items():
        assert w > 0
        for i in cols[j]:
            cover[i] += w
    assert all(c >= 1 for c in cover)
    assert len(sol.dual) == m and all(y >= 0 for y in sol.dual)
    assert all(sum(sol.dual[i] for i in c) <= 1 for c in cols)
    assert sol.value == sum(sol.primal.values()) == sum(sol.dual)


def _warm_starts(m, cols, data):
    """The LP opened on the first columns that cover every row, then with the
    rest added in drawn batches; yields the LP after each step."""
    first = next(k for k in range(1, len(cols) + 1) if set().union(*cols[:k]) == set(range(m)))
    master = open_covering_lp(m, cols[:first])
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
    m, cols = lp
    *_, master = _warm_starts(m, cols, data)
    assert master.columns == cols
    warm, cold = master.solution(), solve_covering_lp(m, cols)
    assert warm.value == cold.value
    cover = [Fraction(0)] * m
    for j, w in warm.primal.items():
        for i in cols[j]:
            cover[i] += w
    assert all(c >= 1 for c in cover)
    assert all(y >= 0 for y in warm.dual) and all(sum(warm.dual[i] for i in c) <= 1 for c in cols)
    assert warm.value == sum(warm.primal.values()) == sum(warm.dual)
    scaled = master.prices()
    assert warm.dual == tuple(Fraction(v, master.den) for v in scaled)


@settings(max_examples=200, deadline=None)
@given(_covering_lps(), st.data())
def test_basis_rows_stay_lexicographically_positive(lp, data):
    # the termination argument of the simplex: every row of [x_B | B^-1] is
    # lexicographically positive at the first (artificial) basis, and each
    # lexicographic pivot keeps it so, also across added columns
    m, cols = lp
    for master in _warm_starts(m, cols, data):
        assert master.den > 0
        for x, row in zip(master.xb, master.binv):
            assert next(v for v in [x, *row] if v) > 0


def test_added_columns_that_price_out_keep_the_basis():
    # weight 1 on (0, 1) and on (1, 2) is optimal and over-covers row 1, so a
    # surplus is basic; (0,) and (2,) have reduced cost 0, so one pricing pass
    # confirms the optimum without a pivot
    master = open_covering_lp(3, [(0, 1), (1, 2)])
    before = master.solution()
    add_covering_columns(master, [(0,), (2,)])
    after = master.solution()
    assert after.primal == before.primal == {0: 1, 1: 1}
    assert after.dual == before.dual
    assert after.iterations == before.iterations + 1


def test_added_columns_are_checked():
    master = open_covering_lp(2, [(0, 1)])
    with pytest.raises(ValueError, match="empty"):
        add_covering_columns(master, [()])
    with pytest.raises(ValueError, match="outside"):
        add_covering_columns(master, [(0, 2)])
    with pytest.raises(ValueError, match=r"column 1 \(0, 0\) .*repeats a row"):
        add_covering_columns(master, [(1,), (0, 0)])
    add_covering_columns(master, [(0,)])
    assert master.solution().value == 1


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


def test_frac_hedetniemi_at_a_raised_cap():
    # at cap 50 the claim also checks c5xc7, c7xc7, k4xpetersen and c5xpetersen
    (report,) = run_suite("fractional", SuiteConfig(max_lp_vertices=50))
    assert report.passed
    checked = report.witness["checked"]
    for pair in (["c5", "c7"], ["c7", "c7"], ["k4", "petersen"], ["c5", "petersen"]):
        assert pair in checked
    assert [s[:2] for s in report.witness["skipped"]] == [["c7", "petersen"], ["petersen", "petersen"]]
    (default,) = run_suite("fractional", SuiteConfig())
    assert len(default.witness["skipped"]) == 6


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
    assert value == solve_covering_lp(n, brute_maximal_independent_sets(g)).value
    assert witness.covers(g) and witness.value == value
