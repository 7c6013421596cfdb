from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from prodcolor import arcshift, exponential, fractional, graphs, solvers
from prodcolor.arcshift import lemma_rel_bounds_check
from prodcolor.errors import CapExceeded
from prodcolor.graphs import Digraph, complete_graph, cycle
from prodcolor.harness import (
    ARC_PROBABILITY,
    FRAC_CATALOG,
    LEMMA_REL_RANDOM_MAX_N,
    SuiteConfig,
    _CLAIMS,
    _claim_lem_rel,
    _digraph_classes_up_to,
    es_exponential_check,
    multiplicativity_check,
    random_digraph,
    run_suite,
    serialize_reports,
)
from prodcolor.solvers import Coloring

from oracles import all_labelled_digraphs, brute_canonical_digraph


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_suite_registry_covers_all_claims():
    suites = {suite for suite, _ in _CLAIMS.values() if suite is not None}
    assert suites == {"shitov", "exponential", "products", "arc-shift", "fractional"}
    for suite in suites:
        ids = [r.claim_id for r in run_suite(suite)]
        assert ids == sorted(cid for cid, (s, _) in _CLAIMS.items() if s == suite)
    # a row with a suite has a runner, and a row without one has none
    assert all((suite is None) == (runner is None) for suite, runner in _CLAIMS.values())


def test_run_all_includes_out_of_scope_entries():
    reports = run_suite("all")
    ids = [r.claim_id for r in reports]
    assert ids == sorted(_CLAIMS)
    out_of_scope = {cid for cid, (suite, _) in _CLAIMS.items() if suite is None}
    assert out_of_scope == {"thm-main", "thm-shitov"}
    for r in reports:
        if r.claim_id in out_of_scope:
            assert (r.passed, r.status, r.witness, r.elapsed) == (
                None, "out-of-scope: scale", None, 0.0
            )
            assert set(r.params) == {"note"}
        else:
            assert r.status == "pass", (r.claim_id, r.witness)


def test_shitov_suite_has_labeled_negative_controls():
    reports = run_suite("shitov")
    clique = next(r for r in reports if r.claim_id == "clm-clique")
    assert clique.status == "pass"
    negatives = [i for i in clique.witness if i["negative_control"]]
    assert negatives and all(i["violations"] for i in negatives)
    positives = [i for i in clique.witness if not i["negative_control"]]
    assert positives and all(not i["violations"] for i in positives)


def test_determinism_same_config():
    a = serialize_reports(run_suite("arc-shift"), mask_timing=True)
    b = serialize_reports(run_suite("arc-shift"), mask_timing=True)
    assert a == b


def test_different_seeds_differ_somewhere():
    a = run_suite("products")
    b = run_suite("products", SuiteConfig(seed=8))
    assert serialize_reports(a, mask_timing=True) != serialize_reports(b, mask_timing=True)


def test_jobs_accepts_only_one():
    a = serialize_reports(run_suite("fractional"), mask_timing=True)
    b = serialize_reports(run_suite("fractional", jobs=1), mask_timing=True)
    assert a == b
    for jobs in (0, 2, 3):
        with pytest.raises(ValueError, match="jobs must be 1"):
            run_suite("fractional", jobs=jobs)


def test_reports_are_json():
    reports = run_suite("fractional")
    parsed = json.loads(serialize_reports(reports))
    assert isinstance(parsed, list)
    assert parsed[0]["claim_id"] == "frac-hedetniemi"
    # fractions arrive as [numerator, denominator]
    assert parsed[0]["witness"]["singles"]["c5"] == [5, 2]


def test_report_timing_masked():
    reports = run_suite("fractional")
    assert reports[0].elapsed > 0.0
    (obj,) = json.loads(serialize_reports(reports, mask_timing=True))
    assert obj["elapsed"] == 0.0
    (unmasked,) = json.loads(serialize_reports(reports))
    assert unmasked["elapsed"] == reports[0].elapsed


def test_multiplicativity_check_instances():
    report = multiplicativity_check(complete_graph(3), complete_graph(4), complete_graph(4))
    assert not report.vacuous and report.passed
    report = multiplicativity_check(cycle(5), complete_graph(3), complete_graph(3))
    assert not report.vacuous and report.passed
    report = multiplicativity_check(complete_graph(3), complete_graph(2), complete_graph(2))
    assert report.vacuous and report.passed


def test_es_exponential_check_k4():
    report = es_exponential_check(complete_graph(4))
    assert report.vertices == 81 and report.chi == 3 and report.passed


def test_es_exponential_check_rejects_small_chi():
    with pytest.raises(ValueError, match="chi >= 4"):
        es_exponential_check(cycle(5))


def test_digraph_classes_match_brute_canonical_forms():
    classes = _digraph_classes_up_to(4)
    assert Counter(d.n for d, _ in classes) == {1: 1, 2: 3, 3: 16, 4: 218}
    # built unchecked, so check each against the validating constructor
    assert all(d == Digraph.from_arcs(d.n, d.arcs) for d, _ in classes)
    forms = [(d.n, brute_canonical_digraph(d)) for d, _ in classes]
    assert len(set(forms)) == len(forms)
    orbits = Counter((d.n, brute_canonical_digraph(d)) for d in all_labelled_digraphs(4))
    assert set(forms) == set(orbits)
    assert all(orbit == orbits[form] for (_, orbit), form in zip(classes, forms))
    assert sum(orbits.values()) == 1 + 4 + 64 + 4096


def test_digraph_classes_refuse_six_vertices():
    with pytest.raises(CapExceeded, match="digraph classes on 6 vertices"):
        _digraph_classes_up_to(6)


def test_lemma_rel_is_invariant_under_relabelling():
    rng = random.Random(59)
    for _ in range(30):
        d = random_digraph(rng, 1, LEMMA_REL_RANDOM_MAX_N, ARC_PROBABILITY)
        assert d == Digraph.from_arcs(d.n, d.arcs)  # built unchecked
        report = lemma_rel_bounds_check(d)
        for _ in range(3):
            p = list(range(d.n))
            rng.shuffle(p)
            relabelled = Digraph.from_arcs(d.n, [(p[x], p[y]) for x, y in d.arcs])
            relabelled_report, transforms_hold = arcshift._lemma_rel(relabelled)
            assert relabelled_report == report and transforms_hold


def test_lem_rel_witness_counts_classes_and_labelled_digraphs():
    params, ok, witness = _claim_lem_rel(SuiteConfig())
    assert ok and params["exhaustive_n"] == 4
    assert witness["exhaustive_classes"] == 1 + 3 + 16 + 218
    assert witness["labelled_covered"] == 1 + 4 + 64 + 4096


def test_lem_rel_colors_each_distinct_graph_once(monkeypatch):
    # the classes and random digraphs share few underline graphs: 676
    # colorings when each digraph colored its own two, 275 distinct graphs
    met, colored = [], []
    underline, optimal = arcshift.underline, solvers.optimal_coloring
    monkeypatch.setattr(arcshift, "underline", lambda d: met.append(underline(d)) or met[-1])
    monkeypatch.setattr(solvers, "optimal_coloring", lambda g: colored.append(g) or optimal(g))
    _, ok, _ = _claim_lem_rel(SuiteConfig(seed=7))
    assert ok
    assert len(colored) == len(set(colored)) == len(set(met)) == 275
    # nothing is kept between calls: each run colors every graph again
    counts = []
    for _ in range(2):
        colored.clear()
        assert all(report.passed for report in run_suite("arc-shift", SuiteConfig(seed=7)))
        counts.append(len(colored))
    assert counts[0] == counts[1] == 275


def test_lem_rel_fails_on_a_broken_up_transform(monkeypatch):
    # coloring_up's output gives every arc colour 0: its own check, the one
    # check of that output, must fail the claim, also under python -O
    monkeypatch.setattr(arcshift, "Coloring", lambda colors, k: Coloring((0,) * len(colors), k))
    _, ok, witness = _claim_lem_rel(SuiteConfig())
    assert not ok and witness["failures"]
    representatives = [{"n": d.n, "arcs": sorted(d.arcs)} for d, _ in _digraph_classes_up_to(4)]
    assert any(f in representatives for f in witness["failures"])


# each seeded-instance claim made to fail on some of its draws: the module and
# function patched, the stand-in, the keys of a failure entry, how many fail,
# and the sha256 of the masked report, which pins the failures, the instance
# rows and the pass flag
_real_bound_chain = arcshift.bound_chain_instance
_real_product = graphs.tensor_product
_PAIR_KEYS = {"pair", "n1", "n2"}
_BROKEN = {
    "hedetniemi-min4": (
        graphs, "tensor_product",
        lambda g, h: _real_product(g, h) if g.n != h.n else complete_graph(5),
        {"g", "h", "expected", "actual"}, 9,
        "7ab8241a41ee50abcf79c6d14ca6c0a662a925c7b228313e57912afc47dbe46c",
    ),
    "functoriality": (
        arcshift, "functoriality_check", lambda d1, d2: d1.n != d2.n,
        _PAIR_KEYS, 20, "72bffcd264193eefc756211ee0bd28b67619673939d8dbb784ad9974a553b624",
    ),
    "underline-decomp": (
        arcshift, "underline_decomposition_check",
        lambda d1, d2: len(d1.arcs) <= len(d2.arcs), _PAIR_KEYS, 34,
        "6cd1b61ae1f3074304af32ec0c287832c8af707783f2747a9e78cb5ff8cbc5b8",
    ),
    "bound-chain": (
        arcshift, "bound_chain_instance",
        lambda d1, d2: _real_bound_chain(d1, d2)._replace(passed=d1.n != d2.n),
        {"pair", "chi_product", "chi_product_reversed", "chi_underline_product"}, 9,
        "e31752abf7f1c6d68ad136df53bcf4ecc1b1dc800a868af68e1daefff5763bf4",
    ),
}


@pytest.mark.parametrize("claim_id", sorted(_BROKEN))
def test_a_failing_seeded_instance_records_its_witness(monkeypatch, claim_id):
    module, name, stand_in, keys, failing, sha = _BROKEN[claim_id]
    monkeypatch.setattr(module, name, stand_in)
    (report,) = [r for r in run_suite(_CLAIMS[claim_id][0]) if r.claim_id == claim_id]
    witness = report.witness
    assert (report.passed, report.status) == (False, "fail")
    assert witness["pairs_checked"] == len(witness["instances"]) == report.params["pairs"]
    assert len(witness["failures"]) == failing
    assert all(set(f) == keys for f in witness["failures"])
    if claim_id == "hedetniemi-min4":
        first = witness["failures"][0]
        assert set(first["g"]) == set(first["h"]) == {"n", "edges"}
        assert first["actual"] == 5
    text = serialize_reports([report], mask_timing=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_es_k3_is_decided_without_materializing(monkeypatch):
    # chi is taken on the retract onto the maximal boxes; the report still
    # counts every map of K_3^G, so its bytes do not move
    (expected,) = [r for r in run_suite("exponential") if r.claim_id == "es-k3"]

    def refuse(*args, **kwargs):
        raise AssertionError("es-k3 materialized K_3^G")

    monkeypatch.setattr(exponential, "materialize_exponential", refuse)
    params, ok, witness = _CLAIMS["es-k3"][1](SuiteConfig())
    assert (params, ok, witness) == (expected.params, expected.passed, expected.witness)
    assert [(i["vertices"], i["chi"]) for i in witness] == [(81, 3), (243, 3), (729, 3)]


# each fixed claim made to fail: the module and function patched, and the
# stand-in, which breaks what the claim checks
_real_chi = solvers.chromatic_number
_real_chi_f = fractional.fractional_chromatic
_real_mu_clique = exponential.verify_mu_clique
_real_schelp = arcshift.schelp_coloring


def _chi_f_wrong_on_products(g, **options):
    value, witness = _real_chi_f(g, **options)
    if any(g == graphs.named(name) for name in FRAC_CATALOG):
        return value, witness
    return value + 1, witness


_WRONG = {
    # the negative controls no longer fail
    "clm-clique": (
        exponential, "verify_mu_clique",
        lambda g, v, q: _real_mu_clique(g, v, q)._replace(violations=()),
    ),
    "clm-ad": (exponential, "exp_adjacent", lambda f, g: False),
    # the corrupted coloring passes, so the claim's negative control fails
    "ob-image": (exponential, "observation_image_check", lambda ctx, coloring: True),
    # chi(K_3^G) reads 4, and the base still reads at least 4
    "es-k3": (solvers, "chromatic_number", lambda g: _real_chi(g) + 1),
    "univ-prop": (solvers, "is_homomorphism", lambda g, h, hom: False),
    "kneser-lovasz": (graphs, "kneser", lambda m, k: complete_graph(m)),
    # no homomorphism anywhere, so K2 -> K3 is missed and no case is vacuous
    "multiplicativity": (solvers, "find_homomorphism", lambda g, h: None),
    "schelp": (
        arcshift, "schelp_coloring",
        lambda: Coloring((0,) * len(_real_schelp().colors), 3),
    ),
    "frac-hedetniemi": (fractional, "fractional_chromatic", _chi_f_wrong_on_products),
}


@pytest.mark.parametrize("claim_id", sorted(_WRONG))
def test_a_broken_check_fails_its_claim(monkeypatch, claim_id):
    module, name, stand_in = _WRONG[claim_id]
    monkeypatch.setattr(module, name, stand_in)
    (report,) = [r for r in run_suite(_CLAIMS[claim_id][0]) if r.claim_id == claim_id]
    assert (report.passed, report.status) == (False, "fail")
    if claim_id == "frac-hedetniemi":
        witness = report.witness
        assert witness["exact_values_ok"]
        assert len(witness["failures"]) == len(witness["checked"]) > 0
        assert all(set(f) == {"g", "h", "expected", "actual"} for f in witness["failures"])
        assert all(f["actual"] == f["expected"] + 1 for f in witness["failures"])
