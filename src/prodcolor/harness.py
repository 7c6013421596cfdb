"""Verification suites: each registered claim maps to an executable check.

A suite run produces one ClaimReport per claim id, with parameters, a pass
flag, a witness payload, and elapsed time. Reports are deterministic
functions of the SuiteConfig (timing aside): random instances come from
seeded generators with a documented distribution (n uniform in its range,
each edge or arc present independently with a fixed probability), and all
collections are emitted in sorted order.

Negative controls are part of the contract: the shitov suite always includes
girth-below-6 bases on which the mu-clique check must fail with an explicit
witness, and those instances are labeled as negative controls in the report.

Two headline constructions are registered with status "out-of-scope: scale"
instead of being silently omitted: their hypotheses need blow-up factors of
order 2^(p-1) * p^2 for p in the hundreds, far beyond any materializable
instance.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import arcshift, exponential, fractional, graphs, solvers
from .errors import CapExceeded
from .graphs import Digraph, Graph


@dataclass(frozen=True)
class SuiteConfig:
    """Seed, instance caps, and sample counts for the verification suites."""

    seed: int = 7
    hedetniemi_pairs: int = 50
    digraph_pairs: int = 100
    bound_chain_pairs: int = 50
    lemma_rel_exhaustive_n: int = 4
    lemma_rel_random: int = 100
    es_bases: tuple[str, ...] = ("k4", "k5", "w5")
    mu_clique_qs: tuple[int, ...] = (1, 2, 3)
    frac_catalog: tuple[str, ...] = ("k3", "k4", "c5", "c7", "petersen")
    max_lp_vertices: int = fractional.DEFAULT_MAX_LP_VERTICES
    max_exp_vertices: int = exponential.DEFAULT_MAX_EXP_VERTICES
    max_exp_pairs: int = exponential.DEFAULT_MAX_EXP_PAIRS

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one registered claim."""

    claim_id: str
    params: dict[str, Any]
    passed: bool | None  # None when the claim is not checkable at desk scale
    status: str  # "pass" | "fail" | "out-of-scope: scale"
    witness: Any
    elapsed: float


OUT_OF_SCOPE = "out-of-scope: scale"


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, float) and value != value:  # NaN guard
        return None
    return value


def report_to_obj(report: ClaimReport, mask_timing: bool = False) -> dict[str, Any]:
    obj = {
        "claim_id": report.claim_id,
        "params": _jsonable(report.params),
        "passed": report.passed,
        "status": report.status,
        "witness": _jsonable(report.witness),
        "elapsed": 0.0 if mask_timing else report.elapsed,
    }
    return obj


def serialize_reports(reports: list[ClaimReport], mask_timing: bool = False) -> str:
    return json.dumps(
        [report_to_obj(r, mask_timing) for r in reports],
        sort_keys=True,
        indent=2,
    ) + "\n"


# ---------------------------------------------------------------------------
# instances

# tests/test_acceptance.py builds its instances through this name
small_graph = graphs.named

# the seeded random instances draw their vertex count uniformly up to these
# maxima, and keep each edge or arc independently with these probabilities
HEDETNIEMI_MAX_N = 8
EDGE_PROBABILITY = 0.5
DIGRAPH_PAIRS_MAX_N = 5
LEMMA_REL_RANDOM_MAX_N = 6
ARC_PROBABILITY = 0.4


def random_graph(rng: random.Random, n_min: int, n_max: int, p: float) -> Graph:
    n = rng.randint(n_min, n_max)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_digraph(rng: random.Random, n_min: int, n_max: int, p: float) -> Digraph:
    n = rng.randint(n_min, n_max)
    arcs = [
        (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p
    ]
    return Digraph.from_arcs(n, arcs)


def _digraph_pairs(cfg: SuiteConfig) -> list[tuple[Digraph, Digraph]]:
    # shared between the functoriality and underline-decomposition claims
    rng = cfg.rng("digraph-pairs")
    return [
        (
            random_digraph(rng, 1, DIGRAPH_PAIRS_MAX_N, ARC_PROBABILITY),
            random_digraph(rng, 1, DIGRAPH_PAIRS_MAX_N, ARC_PROBABILITY),
        )
        for _ in range(cfg.digraph_pairs)
    ]


# ---------------------------------------------------------------------------
# harness-level checks (used standalone and by the suites)


@dataclass(frozen=True)
class MultiplicativityReport:
    """Instance evaluation of: G !-> Q and H !-> Q implies G x H !-> Q."""

    vacuous: bool
    passed: bool
    g_maps_to_q: bool
    h_maps_to_q: bool
    product_maps_to_q: bool | None


def multiplicativity_check(q: Graph, g: Graph, h: Graph) -> MultiplicativityReport:
    g_to_q = solvers.find_homomorphism(g, q) is not None
    h_to_q = solvers.find_homomorphism(h, q) is not None
    if g_to_q or h_to_q:
        return MultiplicativityReport(True, True, g_to_q, h_to_q, None)
    prod_to_q = solvers.find_homomorphism(graphs.tensor_product(g, h), q) is not None
    return MultiplicativityReport(False, not prod_to_q, g_to_q, h_to_q, prod_to_q)


@dataclass(frozen=True)
class EsExponentialReport:
    """chi of the materialized K_3^G for a base with chi(G) >= 4."""

    base_chi: int
    vertices: int
    chi: int
    passed: bool


def es_exponential_check(
    g: Graph,
    max_vertices: int = exponential.DEFAULT_MAX_EXP_VERTICES,
    max_pairs: int = exponential.DEFAULT_MAX_EXP_PAIRS,
) -> EsExponentialReport:
    base_chi = solvers.chromatic_number(g)
    if base_chi < 4:
        raise ValueError(f"base must have chi >= 4, got {base_chi}")
    ctx = exponential.ExpContext(g, 3)
    expo = exponential.materialize_exponential(ctx, max_vertices, max_pairs)
    chi = solvers.chromatic_number(expo)
    return EsExponentialReport(base_chi, expo.n, chi, chi == 3)


@dataclass(frozen=True)
class KneserCheckReport:
    """chi(K(dc, c)) against the closed form dc - 2c + 2."""

    m: int
    k: int
    expected: int
    actual: int
    passed: bool


def thm_main_kneser_check(d: int, c: int, max_vertices: int = 100) -> KneserCheckReport:
    from math import comb

    m, k = d * c, c
    vertices = comb(m, k)
    if vertices > max_vertices:
        raise CapExceeded(
            f"K({m}, {k}) has {vertices} vertices, above the solver cap of {max_vertices}"
        )
    expected = m - 2 * k + 2
    actual = solvers.chromatic_number(graphs.kneser(m, k))
    return KneserCheckReport(m, k, expected, actual, actual == expected)


# ---------------------------------------------------------------------------
# claim runners: each returns (params, ok, witness)


def _case_table(params: dict, cases, check: Callable[..., dict]) -> tuple[dict, bool, Any]:
    """Run check(*case) per case; the claim passes iff every instance's "ok" holds."""
    instances = [check(*case) for case in cases]
    return params, all(i["ok"] for i in instances), instances


def _claim_clm_clique(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    def case(name: str, q: int, negative_control: bool) -> dict:
        report = exponential.verify_mu_clique(graphs.named(name), 0, q)
        return {
            "graph": name,
            "q": q,
            "negative_control": negative_control,
            "pairs": report.pairs_checked,
            "violations": list(report.violations),
            # a negative control is ok when it fails with a witness
            "ok": bool(report.violations) == negative_control,
        }

    cases = [("heawood", q, False) for q in cfg.mu_clique_qs]
    cases += [("c5", 1, True), ("k4", 1, True)]
    return _case_table({"center": 0}, cases, case)


def _clm_ad_case(q: int) -> dict:
    heawood = graphs.named("heawood")
    t, b = 2 * q, 2 * q + 1
    mu = exponential.shitov_mu(heawood, 0, q, t)
    theta = exponential.shitov_theta(heawood, 0, q, b=b, t=t)
    adjacent = exponential.exp_adjacent(theta, mu)
    shared = theta.exp.image & mu.exp.image
    return {
        "q": q,
        "b": b,
        "t": t,
        "adjacent": adjacent,
        "image_intersection": sorted(shared),
        "ok": adjacent and shared == frozenset({t}),
    }


def _claim_clm_ad(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    return _case_table({"graph": "heawood", "center": 0}, [(1,), (2,)], _clm_ad_case)


def _claim_ob_image(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    ctx = exponential.ExpContext(graphs.named("k4"), 3)
    expo = exponential.materialize_exponential(ctx, cfg.max_exp_vertices, cfg.max_exp_pairs)
    raw = solvers.k_colorable(expo, 3)
    if raw is None:
        raise RuntimeError("K_3^K4 has no proper 3-coloring, but its chi is 3")
    coloring = exponential.normalize_on_constants(ctx, raw)
    positive = exponential.observation_image_check(ctx, coloring)

    # negative control: recolor one non-constant map outside its image; the
    # constants stay normalized, so the checker must report False
    constants = {exponential.constant_map(ctx, i).index() for i in range(3)}
    corrupted_index = -1
    corrupted = list(coloring.colors)
    for tindex in range(expo.n):
        if tindex in constants:
            continue
        values = exponential.index_to_map(ctx, tindex).values
        outside = [col for col in range(3) if col not in values]
        if outside:
            corrupted_index = tindex
            corrupted[tindex] = outside[0]
            break
    negative_ok = corrupted_index >= 0 and not exponential.observation_image_check(
        ctx, solvers.Coloring(tuple(corrupted), 3)
    )
    ok = positive and negative_ok
    witness = {
        "base": "k4",
        "c": 3,
        "positive": positive,
        "corrupted_map": corrupted_index,
        "negative_control": negative_ok,
    }
    return {"base": "k4", "c": 3}, ok, witness


def _claim_es_k3(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    def case(name: str) -> dict:
        report = es_exponential_check(graphs.named(name), cfg.max_exp_vertices, cfg.max_exp_pairs)
        return {"base": name, "vertices": report.vertices, "chi": report.chi, "ok": report.passed}

    cases = [(name,) for name in cfg.es_bases]
    return _case_table({"bases": list(cfg.es_bases)}, cases, case)


def _claim_univ_prop(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    def case(gname: str, hname: str, c: int) -> dict:
        ok = exponential.universal_property_check(
            graphs.named(gname), graphs.named(hname), c, cfg.max_exp_vertices, cfg.max_exp_pairs
        )
        return {"g": gname, "h": hname, "c": c, "ok": ok}

    cases = [("k2", "k3", 2), ("c5", "c5", 3)]
    return _case_table({"cases": len(cases)}, cases, case)


def _kneser_lovasz_case(d: int, c: int) -> dict:
    report = thm_main_kneser_check(d, c)
    return {
        "m": report.m,
        "k": report.k,
        "expected": report.expected,
        "actual": report.actual,
        "ok": report.passed,
    }


def _claim_kneser_lovasz(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    return _case_table({"cases": 3}, [(2, 2), (3, 2), (2, 3)], _kneser_lovasz_case)


def _claim_hedetniemi_min4(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    rng = cfg.rng("hedetniemi")
    instances = []
    failures = []
    attempts = 0
    while len(instances) < cfg.hedetniemi_pairs:
        attempts += 1
        if attempts > 100 * cfg.hedetniemi_pairs:
            raise RuntimeError("could not draw enough pairs with min chi <= 4")
        g = random_graph(rng, 2, HEDETNIEMI_MAX_N, EDGE_PROBABILITY)
        h = random_graph(rng, 2, HEDETNIEMI_MAX_N, EDGE_PROBABILITY)
        expected = min(solvers.chromatic_number(g), solvers.chromatic_number(h))
        if expected > 4:
            continue
        actual = solvers.chromatic_number(graphs.tensor_product(g, h))
        instances.append([g.n, len(g.edges), h.n, len(h.edges), expected, actual])
        if actual != expected:
            failures.append(
                {
                    "g": {"n": g.n, "edges": sorted(g.edges)},
                    "h": {"n": h.n, "edges": sorted(h.edges)},
                    "expected": expected,
                    "actual": actual,
                }
            )
    ok = not failures
    witness = {
        "pairs_checked": len(instances),
        "instances": instances,
        "failures": failures,
    }
    return {"pairs": cfg.hedetniemi_pairs, "max_n": HEDETNIEMI_MAX_N}, ok, witness


def _multiplicativity_case(qname: str, gname: str, hname: str, expect_vacuous: bool) -> dict:
    report = multiplicativity_check(graphs.named(qname), graphs.named(gname), graphs.named(hname))
    return {
        "q": qname,
        "g": gname,
        "h": hname,
        "vacuous": report.vacuous,
        "ok": report.passed and report.vacuous == expect_vacuous,
    }


def _claim_multiplicativity(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    cases = [
        ("k3", "k4", "k4", False),
        ("c5", "k3", "k3", False),
        ("k3", "k2", "k2", True),  # K2 -> K3 exists, so the implication is vacuous
    ]
    return _case_table({"cases": len(cases)}, cases, _multiplicativity_case)


def _claim_schelp(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    coloring = arcshift.schelp_coloring()
    d4 = graphs.complete_digraph(4)
    shift1, _ = arcshift.arc_shift(d4)
    shift2, _ = arcshift.arc_shift(shift1)
    ug = graphs.underline(shift2)
    proper = solvers.is_proper_coloring(ug, coloring)
    colors_used = coloring.colors_used()
    chi = solvers.chromatic_number(ug)
    ok = proper and colors_used == 3 and chi == 3
    witness = {
        "vertices": ug.n,
        "proper": proper,
        "colors_used": colors_used,
        "chi": chi,
    }
    return {"digraph": "complete-4"}, ok, witness


def _all_digraphs_up_to(n_max: int):
    for n in range(1, n_max + 1):
        possible = [(x, y) for x in range(n) for y in range(n) if x != y]
        for mask in range(1 << len(possible)):
            arcs = [possible[i] for i in range(len(possible)) if mask >> i & 1]
            yield Digraph.from_arcs(n, arcs)


def _claim_lem_rel(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    failures = []

    def check(d: Digraph) -> list[int]:
        report = arcshift.lemma_rel_bounds_check(d)
        if not (report.passed and arcshift.lemma_rel_transforms_check(d)):
            failures.append({"n": d.n, "arcs": sorted(d.arcs)})
        return [d.n, len(d.arcs), report.chi_d, report.chi_shift, report.lower, report.upper]

    exhaustive = 0
    for d in _all_digraphs_up_to(cfg.lemma_rel_exhaustive_n):
        check(d)
        exhaustive += 1
    rng = cfg.rng("lem-rel")
    instances = [
        check(random_digraph(rng, 1, LEMMA_REL_RANDOM_MAX_N, ARC_PROBABILITY))
        for _ in range(cfg.lemma_rel_random)
    ]
    witness = {
        "exhaustive_instances": exhaustive,
        "random_instances": instances,
        "failures": failures,
    }
    params = {
        "exhaustive_n": cfg.lemma_rel_exhaustive_n,
        "random": cfg.lemma_rel_random,
        "random_max_n": LEMMA_REL_RANDOM_MAX_N,
    }
    return params, not failures, witness


def _digraph_pair_claim(
    cfg: SuiteConfig, check: Callable[[Digraph, Digraph], bool]
) -> tuple[dict, bool, Any]:
    """Run a label-equality check over the seeded digraph pairs."""
    failures = []
    instances = []
    pairs = _digraph_pairs(cfg)
    for i, (d1, d2) in enumerate(pairs):
        good = check(d1, d2)
        instances.append([d1.n, len(d1.arcs), d2.n, len(d2.arcs), good])
        if not good:
            failures.append({"pair": i, "n1": d1.n, "n2": d2.n})
    witness = {"pairs_checked": len(pairs), "instances": instances, "failures": failures}
    return {"pairs": cfg.digraph_pairs, "max_n": DIGRAPH_PAIRS_MAX_N}, not failures, witness


def _claim_bound_chain(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    rng = cfg.rng("bound-chain")
    failures = []
    instances = []
    for i in range(cfg.bound_chain_pairs):
        d1 = random_digraph(rng, 1, DIGRAPH_PAIRS_MAX_N, ARC_PROBABILITY)
        d2 = random_digraph(rng, 1, DIGRAPH_PAIRS_MAX_N, ARC_PROBABILITY)
        report = arcshift.bound_chain_instance(d1, d2)
        instances.append(
            [
                report.chi_product,
                report.chi_product_reversed,
                report.chi_underline_product,
                report.passed,
            ]
        )
        if not report.passed:
            failures.append(
                {
                    "pair": i,
                    "chi_product": report.chi_product,
                    "chi_product_reversed": report.chi_product_reversed,
                    "chi_underline_product": report.chi_underline_product,
                }
            )
    ok = not failures
    witness = {
        "pairs_checked": cfg.bound_chain_pairs,
        "instances": instances,
        "failures": failures,
    }
    return {"pairs": cfg.bound_chain_pairs, "max_n": DIGRAPH_PAIRS_MAX_N}, ok, witness


def _claim_frac_hedetniemi(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    singles = {}
    for name in cfg.frac_catalog:
        value, _ = fractional.fractional_chromatic(graphs.named(name), cfg.max_lp_vertices)
        singles[name] = value
    checked = []
    skipped = []
    failures = []
    names = sorted(cfg.frac_catalog)
    for i, gname in enumerate(names):
        for hname in names[i:]:
            g, h = graphs.named(gname), graphs.named(hname)
            if g.n * h.n > cfg.max_lp_vertices:
                skipped.append([gname, hname, g.n * h.n])
                continue
            expected = min(singles[gname], singles[hname])
            actual, _ = fractional.fractional_chromatic(
                graphs.tensor_product(g, h), cfg.max_lp_vertices
            )
            checked.append([gname, hname])
            if actual != expected:
                failures.append(
                    {"g": gname, "h": hname, "expected": expected, "actual": actual}
                )
    pinned = {"c5": Fraction(5, 2), "petersen": Fraction(5, 2)}
    exact_ok = all(
        singles[name] == value for name, value in pinned.items() if name in singles
    )
    ok = not failures and exact_ok
    witness = {
        "singles": singles,
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
        "exact_values_ok": exact_ok,
    }
    return {"catalog": list(names), "cap": cfg.max_lp_vertices}, ok, witness


_CLAIMS: dict[str, Callable[[SuiteConfig], tuple[dict, bool, Any]]] = {
    "clm-clique": _claim_clm_clique,
    "clm-ad": _claim_clm_ad,
    "ob-image": _claim_ob_image,
    "es-k3": _claim_es_k3,
    "univ-prop": _claim_univ_prop,
    "kneser-lovasz": _claim_kneser_lovasz,
    "hedetniemi-min4": _claim_hedetniemi_min4,
    "multiplicativity": _claim_multiplicativity,
    "schelp": _claim_schelp,
    "lem-rel": _claim_lem_rel,
    "functoriality": lambda cfg: _digraph_pair_claim(cfg, arcshift.functoriality_check),
    "underline-decomp": lambda cfg: _digraph_pair_claim(
        cfg, arcshift.underline_decomposition_check
    ),
    "bound-chain": _claim_bound_chain,
    "frac-hedetniemi": _claim_frac_hedetniemi,
}

_OOS_NOTE = (
    "hypotheses need blow-up factor q >= 2^(p-1)*p^2 with p in the hundreds; "
    "instance checks cover the desk-scale constructions instead"
)

SUITES: dict[str, tuple[str, ...]] = {
    "shitov": ("clm-ad", "clm-clique", "ob-image"),
    "exponential": ("es-k3", "univ-prop"),
    "products": ("hedetniemi-min4", "kneser-lovasz", "multiplicativity"),
    "arc-shift": ("bound-chain", "functoriality", "lem-rel", "schelp", "underline-decomp"),
    "fractional": ("frac-hedetniemi",),
}


def run_suite(name: str, cfg: SuiteConfig | None = None, *, jobs: int = 1) -> list[ClaimReport]:
    """Run a named suite; "all" runs every claim plus the out-of-scope registrations.

    Claims run one after another; the report list is sorted by claim id.
    ``jobs`` accepts only 1. It remains so that callers still passing
    ``jobs=1`` (benchmarks/workloads.py) keep working; any other value raises
    ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    cfg = cfg or SuiteConfig()
    if name == "all":
        claim_ids = sorted(_CLAIMS)
    else:
        try:
            claim_ids = sorted(SUITES[name])
        except KeyError:
            known = ", ".join(sorted(SUITES) + ["all"])
            raise ValueError(f"unknown suite {name!r} (known: {known})") from None
    reports = []
    for claim_id in claim_ids:
        start = time.perf_counter()
        params, ok, witness = _CLAIMS[claim_id](cfg)
        elapsed = time.perf_counter() - start
        reports.append(
            ClaimReport(claim_id, params, ok, "pass" if ok else "fail", witness, elapsed)
        )
    if name == "all":
        reports += [
            ClaimReport(cid, {"note": _OOS_NOTE}, None, OUT_OF_SCOPE, None, 0.0)
            for cid in ("thm-main", "thm-shitov")
        ]
    reports.sort(key=lambda r: r.claim_id)
    return reports
