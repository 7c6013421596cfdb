from __future__ import annotations

import json

import pytest

from prodcolor.graphs import complete_graph, cycle
from prodcolor.harness import (
    SUITES,
    SuiteConfig,
    _CLAIMS,
    es_exponential_check,
    multiplicativity_check,
    report_to_obj,
    run_suite,
    serialize_reports,
    thm_main_kneser_check,
)


LIGHT = SuiteConfig(
    seed=7,
    hedetniemi_pairs=4,
    digraph_pairs=4,
    bound_chain_pairs=3,
    lemma_rel_exhaustive_n=2,
    lemma_rel_random=3,
    es_bases=("k4",),
    mu_clique_qs=(1,),
    frac_catalog=("k3", "c5"),
)


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", LIGHT)


def test_suite_registry_covers_all_claims():
    assigned = sorted(cid for ids in SUITES.values() for cid in ids)
    assert assigned == sorted(_CLAIMS)


def test_run_all_includes_out_of_scope_entries():
    reports = run_suite("all", LIGHT)
    ids = [r.claim_id for r in reports]
    assert ids == sorted(ids)
    assert set(ids) == set(_CLAIMS) | {"thm-main", "thm-shitov"}
    by_id = {r.claim_id: r for r in reports}
    assert by_id["thm-main"].status == "out-of-scope: scale"
    assert by_id["thm-shitov"].passed is None
    for cid in _CLAIMS:
        assert by_id[cid].status == "pass", (cid, by_id[cid].witness)


def test_shitov_suite_has_labeled_negative_controls():
    reports = run_suite("shitov", LIGHT)
    clique = next(r for r in reports if r.claim_id == "clm-clique")
    assert clique.status == "pass"
    negatives = [i for i in clique.witness if i["negative_control"]]
    assert negatives and all(i["violations"] for i in negatives)
    positives = [i for i in clique.witness if not i["negative_control"]]
    assert positives and all(not i["violations"] for i in positives)


def test_determinism_same_config():
    a = serialize_reports(run_suite("arc-shift", LIGHT), mask_timing=True)
    b = serialize_reports(run_suite("arc-shift", LIGHT), mask_timing=True)
    assert a == b


def test_different_seeds_differ_somewhere():
    a = run_suite("products", LIGHT)
    b = run_suite("products", SuiteConfig(**{**LIGHT.__dict__, "seed": 8}))
    assert serialize_reports(a, mask_timing=True) != serialize_reports(b, mask_timing=True)


def test_jobs_accepts_only_one():
    a = serialize_reports(run_suite("fractional", LIGHT), mask_timing=True)
    b = serialize_reports(run_suite("fractional", LIGHT, jobs=1), mask_timing=True)
    assert a == b
    for jobs in (0, 2, 3):
        with pytest.raises(ValueError, match="jobs must be 1"):
            run_suite("fractional", LIGHT, jobs=jobs)


def test_reports_are_json():
    reports = run_suite("fractional", LIGHT)
    parsed = json.loads(serialize_reports(reports))
    assert isinstance(parsed, list)
    assert parsed[0]["claim_id"] == "frac-hedetniemi"
    # fractions arrive as [numerator, denominator]
    assert parsed[0]["witness"]["singles"]["c5"] == [5, 2]


def test_report_timing_masked():
    reports = run_suite("fractional", LIGHT)
    obj = report_to_obj(reports[0], mask_timing=True)
    assert obj["elapsed"] == 0.0


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


def test_thm_main_kneser_consistency():
    for d, c, expected in ((2, 2, 2), (3, 2, 4), (2, 3, 2)):
        report = thm_main_kneser_check(d, c)
        assert report.expected == expected
        assert report.actual == expected and report.passed


def test_thm_main_kneser_cap():
    from prodcolor.errors import CapExceeded

    with pytest.raises(CapExceeded, match="solver cap"):
        thm_main_kneser_check(5, 3)  # C(15, 3) = 455 vertices
