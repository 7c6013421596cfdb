"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the stated time budget. Criteria follow the numbered list in the
project README.
"""

from __future__ import annotations

import time
from fractions import Fraction

from prodcolor.arcshift import (
    arc_shift,
    bound_chain_instance,
    functoriality_check,
    lemma_rel_bounds_check,
    lemma_rel_transforms_check,
    schelp_coloring,
    underline_decomposition_check,
)
from prodcolor.exponential import exp_adjacent, shitov_mu, shitov_theta, verify_mu_clique
from prodcolor.fractional import fractional_chromatic
from prodcolor.graphs import (
    blowup,
    complete_digraph,
    complete_graph,
    cycle,
    kneser,
    named,
    tensor_product,
    underline,
)
from prodcolor.harness import (
    ARC_PROBABILITY,
    EDGE_PROBABILITY,
    SuiteConfig,
    _all_digraphs_up_to,
    _digraph_pairs,
    es_exponential_check,
    random_digraph,
    random_graph,
    run_suite,
    serialize_reports,
    small_graph,
)
from prodcolor.solvers import (
    chromatic_number,
    independence_number,
    is_proper_coloring,
    k_colorable,
)


class _Criterion:
    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} ({elapsed:.1f}s)")
        assert ok, f"criterion {self.number} ({self.name}) failed"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.1f}s"
        )


def test_criterion_01_kneser_lovasz():
    crit = _Criterion(1, "kneser-lovasz", budget_seconds=7 * 60)
    ok = True
    for m, k in ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 3)):
        t0 = time.perf_counter()
        ok &= chromatic_number(kneser(m, k)) == m - 2 * k + 2
        ok &= time.perf_counter() - t0 < 60
    crit.finish(ok)


def test_criterion_02_el_zahar_sauer():
    crit = _Criterion(2, "el-zahar-sauer", budget_seconds=12 * 60)
    ok = True
    for name, expected_vertices in (("k4", 81), ("k5", 243), ("w5", 729)):
        t0 = time.perf_counter()
        report = es_exponential_check(small_graph(name))
        ok &= report.passed and report.vertices == expected_vertices and report.chi == 3
        ok &= time.perf_counter() - t0 < 10 * 60
    crit.finish(ok)


def test_criterion_03_mu_clique():
    crit = _Criterion(3, "clm-clique", budget_seconds=5)
    ok = True
    for q in (1, 2, 3):
        report = verify_mu_clique(named("heawood"), 0, q)
        ok &= report.passed and report.pairs_checked == (2 * q + 2) * (2 * q + 1) // 2
    for graph in (cycle(5), complete_graph(4)):
        report = verify_mu_clique(graph, 0, 1)
        ok &= not report.passed and len(report.violations) > 0
    crit.finish(ok)


def test_criterion_04_theta_mu_adjacent():
    crit = _Criterion(4, "clm-ad", budget_seconds=1)
    ok = True
    for q in (1, 2):
        mu = shitov_mu(named("heawood"), 0, q, 2 * q)
        theta = shitov_theta(named("heawood"), 0, q)
        ok &= exp_adjacent(theta, mu)
    crit.finish(ok)


def test_criterion_05_schelp():
    crit = _Criterion(5, "schelp", budget_seconds=30)
    coloring = schelp_coloring()
    s1, _ = arc_shift(complete_digraph(4))
    s2, _ = arc_shift(s1)
    ug = underline(s2)
    ok = ug.n == 36
    ok &= is_proper_coloring(ug, coloring)
    ok &= coloring.colors_used() == 3
    ok &= k_colorable(ug, 2) is None
    ok &= chromatic_number(ug) == 3
    crit.finish(ok)


def test_criterion_06_lemma_rel():
    crit = _Criterion(6, "lem-rel", budget_seconds=15 * 60)
    cfg = SuiteConfig()
    ok = True
    count = 0
    for d in _all_digraphs_up_to(4):
        count += 1
        ok &= lemma_rel_bounds_check(d).passed
        ok &= lemma_rel_transforms_check(d)
    ok &= count == 1 + 4 + 64 + 4096
    rng = cfg.rng("acceptance-lem-rel")
    for _ in range(100):
        d = random_digraph(rng, 1, 6, ARC_PROBABILITY)
        ok &= lemma_rel_bounds_check(d).passed
        ok &= lemma_rel_transforms_check(d)
    crit.finish(ok)


def test_criterion_07_functoriality():
    crit = _Criterion(7, "functoriality", budget_seconds=2 * 60)
    pairs = _digraph_pairs(SuiteConfig())
    ok = len(pairs) == 100
    for d1, d2 in pairs:
        ok &= functoriality_check(d1, d2)
    crit.finish(ok)


def test_criterion_08_underline_decomposition():
    crit = _Criterion(8, "underline-decomp", budget_seconds=2 * 60)
    pairs = _digraph_pairs(SuiteConfig())
    ok = len(pairs) == 100
    for d1, d2 in pairs:
        ok &= underline_decomposition_check(d1, d2)
    crit.finish(ok)


def test_criterion_09_bound_chain():
    crit = _Criterion(9, "bound-chain", budget_seconds=5 * 60)
    cfg = SuiteConfig()
    rng = cfg.rng("bound-chain")
    ok = True
    for _ in range(50):
        d1 = random_digraph(rng, 1, 5, ARC_PROBABILITY)
        d2 = random_digraph(rng, 1, 5, ARC_PROBABILITY)
        ok &= bound_chain_instance(d1, d2).passed
    crit.finish(ok)


def test_criterion_10_fractional_hedetniemi():
    crit = _Criterion(10, "frac-hedetniemi", budget_seconds=10 * 60)
    catalog = ["k3", "k4", "c5", "c7", "petersen"]
    singles = {name: fractional_chromatic(small_graph(name))[0] for name in catalog}
    ok = singles["c5"] == Fraction(5, 2)
    ok &= singles["petersen"] == Fraction(5, 2)
    skipped = []
    for i, gname in enumerate(catalog):
        for hname in catalog[i:]:
            g, h = small_graph(gname), small_graph(hname)
            if g.n * h.n > 30:
                skipped.append((gname, hname))
                continue
            value, witness = fractional_chromatic(tensor_product(g, h))
            ok &= value == min(singles[gname], singles[hname])
            ok &= witness.value == value
    ok &= ("c5", "c7") in skipped and ("petersen", "petersen") in skipped
    print(f"  (skipped pairs above the 30-vertex cap: {sorted(skipped)})")
    crit.finish(ok)


def test_criterion_11_hedetniemi_min4():
    crit = _Criterion(11, "hedetniemi-min4", budget_seconds=10 * 60)
    cfg = SuiteConfig()
    rng = cfg.rng("acceptance-hedetniemi")
    ok = True
    checked = 0
    while checked < 50:
        g = random_graph(rng, 2, 8, EDGE_PROBABILITY)
        h = random_graph(rng, 2, 8, EDGE_PROBABILITY)
        expected = min(chromatic_number(g), chromatic_number(h))
        if expected > 4:
            continue
        checked += 1
        ok &= chromatic_number(tensor_product(g, h)) == expected
    crit.finish(ok)


def test_criterion_12_blowup_identities():
    crit = _Criterion(12, "blowup-identities", budget_seconds=5 * 60)
    ok = chromatic_number(blowup(cycle(5), 2)) == 5
    for name in ("c5", "petersen", "heawood"):
        g = small_graph(name)
        alpha = independence_number(g)
        for q in (2, 3):
            ok &= independence_number(blowup(g, q)) == alpha
    crit.finish(ok)


def test_criterion_13_determinism():
    crit = _Criterion(13, "determinism", budget_seconds=15 * 60)
    cfg = SuiteConfig(seed=7)
    first = serialize_reports(run_suite("all", cfg), mask_timing=True)
    second = serialize_reports(run_suite("all", cfg), mask_timing=True)
    ok = first == second and len(first) > 0
    crit.finish(ok)
