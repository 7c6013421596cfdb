"""Verification suites: each registered claim maps to an executable check.

One table, ``_CLAIMS``, registers every claim: its row names the suite that
runs it and the runner. A suite run produces one ClaimReport per claim id,
with parameters, a pass flag, a witness payload, and elapsed time. Reports
are deterministic functions of the SuiteConfig's seed (timing aside): random
instances come from seeded generators with a documented distribution (n
uniform in its range, each edge or arc present independently with a fixed
probability), and all collections are emitted in sorted order. The claims
run at the default size caps of ``errors``.

Negative controls are part of the contract: the shitov suite always includes
girth-below-6 bases on which the mu-clique check must fail with an explicit
witness, and those instances are labeled as negative controls in the report.

Two headline constructions are rows with no suite and no runner: only the
suite "all" reports them, with status "out-of-scope: scale", instead of
silently omitting them. Their hypotheses need blow-up factors of order
2^(p-1) * p^2 for p in the hundreds, far beyond any materializable instance.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable

from . import arcshift, exponential, fractional, graphs, solvers, symmetry
from ._record import Record
from .errors import DEFAULT_MAX_LP_VERTICES, CapExceeded
from .graphs import Digraph, Graph


class SuiteConfig(Record):
    """The seed of the verification suites' random instances."""

    seed: int = 7

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")


class ClaimReport(Record):
    """Outcome of one registered claim."""

    claim_id: str
    params: dict[str, Any]
    passed: bool | None  # None when the claim is not checkable at desk scale
    status: str  # "pass" | "fail" | "out-of-scope: scale"
    witness: Any
    elapsed: float


OUT_OF_SCOPE = "out-of-scope: scale"


def serialize_reports(reports: list[ClaimReport], mask_timing: bool = False) -> str:
    if mask_timing:
        reports = [r._replace(elapsed=0.0) for r in reports]
    from . import objects

    return objects.dumps(reports, indent=2) + "\n"


# ---------------------------------------------------------------------------
# instances

# the seeded random instances draw their vertex count uniformly up to these
# maxima, and keep each edge or arc independently with these probabilities
HEDETNIEMI_MAX_N = 8
EDGE_PROBABILITY = 0.5
DIGRAPH_PAIRS_MAX_N = 5
LEMMA_REL_RANDOM_MAX_N = 6
ARC_PROBABILITY = 0.4

# how many seeded random instances each claim draws
HEDETNIEMI_PAIRS = 50
DIGRAPH_PAIRS = 100
BOUND_CHAIN_PAIRS = 50
LEMMA_REL_RANDOM = 100

# the fixed instances: lem-rel covers every digraph up to this many vertices,
# es-k3 and clm-clique take these bases and blow-up factors, and
# frac-hedetniemi pairs up this catalog
LEMMA_REL_EXHAUSTIVE_N = 4
ES_BASES = ("k4", "k5", "w5")
MU_CLIQUE_QS = (1, 2, 3)
FRAC_CATALOG = ("k3", "k4", "c5", "c7", "petersen")


def random_graph(rng: random.Random, n_min: int, n_max: int, p: float) -> Graph:
    n = rng.randint(n_min, n_max)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_digraph(rng: random.Random, n_min: int, n_max: int, p: float) -> Digraph:
    n = rng.randint(n_min, n_max)
    arcs = frozenset(
        (x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p
    )
    return Digraph._built(n, arcs)


def _digraph_pairs(cfg: SuiteConfig, label: str, count: int) -> list[tuple[Digraph, Digraph]]:
    rng = cfg.rng(label)
    return [
        (
            random_digraph(rng, 1, DIGRAPH_PAIRS_MAX_N, ARC_PROBABILITY),
            random_digraph(rng, 1, DIGRAPH_PAIRS_MAX_N, ARC_PROBABILITY),
        )
        for _ in range(count)
    ]


def _hedetniemi_pairs(cfg: SuiteConfig) -> list[tuple[Graph, Graph, int]]:
    """The seeded graph pairs (g, h, min chi) whose min chi is at most 4."""
    rng = cfg.rng("hedetniemi")
    pairs = []
    for _ in range(100 * HEDETNIEMI_PAIRS):
        g = random_graph(rng, 2, HEDETNIEMI_MAX_N, EDGE_PROBABILITY)
        h = random_graph(rng, 2, HEDETNIEMI_MAX_N, EDGE_PROBABILITY)
        expected = min(solvers.chromatic_number(g), solvers.chromatic_number(h))
        if expected <= 4:
            pairs.append((g, h, expected))
            if len(pairs) == HEDETNIEMI_PAIRS:
                return pairs
    raise RuntimeError("could not draw enough pairs with min chi <= 4")


# ---------------------------------------------------------------------------
# harness-level checks (used standalone and by the suites)


class MultiplicativityReport(Record):
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


class EsExponentialReport(Record):
    """chi of K_3^G for a base with chi(G) >= 4; vertices counts all 3^n maps."""

    base_chi: int
    vertices: int
    chi: int
    passed: bool


def es_exponential_check(g: Graph) -> EsExponentialReport:
    """El-Zahar–Sauer: chi(K_3^G) = 3 when chi(G) >= 4.

    chi is taken on the retract of K_3^G onto its maximal boxes
    (exponential.retract), which has the same chi; K_3^G itself is never
    materialized.
    """
    base_chi = solvers.chromatic_number(g)
    if base_chi < 4:
        raise ValueError(f"base must have chi >= 4, got {base_chi}")
    ctx = exponential.ExpContext(g, 3)
    chi = solvers.chromatic_number(exponential.retract(ctx)[0])
    return EsExponentialReport(base_chi, ctx.num_maps, chi, chi == 3)


# ---------------------------------------------------------------------------
# claim runners, each returning (params, ok, witness), and the cases they run


def _case_table(params: dict, cases, check: Callable[..., dict]) -> tuple[dict, bool, Any]:
    """Run check(*case) per case; the claim passes iff every instance's "ok" holds."""
    instances = [check(*case) for case in cases]
    return params, all(i["ok"] for i in instances), instances


def _instance_table(params: dict, draws, case: Callable[..., tuple]) -> tuple[dict, bool, Any]:
    """Run case(i, *draw) on the i-th seeded draw; the claim passes iff no case fails.

    A case returns its instance row, and its failure dict or None when it holds.
    """
    instances, failures = [], []
    for i, draw in enumerate(draws):
        row, failure = case(i, *draw)
        instances.append(row)
        if failure is not None:
            failures.append(failure)
    witness = {"pairs_checked": len(instances), "instances": instances, "failures": failures}
    return params, not failures, witness


def _clm_clique_case(name: str, q: int, negative_control: bool) -> dict:
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


def _clm_ad_case(q: int) -> dict:
    heawood = graphs.named("heawood")
    t, b = 2 * q, 2 * q + 1
    mu = exponential.shitov_mu(heawood, 0, q, t)
    theta = exponential.shitov_theta(heawood, 0, q, b=b, t=t)
    adjacent = exponential.exp_adjacent(theta, mu)
    shared = theta.image & mu.image
    return {
        "q": q,
        "b": b,
        "t": t,
        "adjacent": adjacent,
        "image_intersection": sorted(shared),
        "ok": adjacent and shared == frozenset({t}),
    }


def _claim_ob_image(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    ctx = exponential.ExpContext(graphs.named("k4"), 3)
    expo = exponential.materialize_exponential(ctx)
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


def _es_k3_case(name: str) -> dict:
    report = es_exponential_check(graphs.named(name))
    return {"base": name, "vertices": report.vertices, "chi": report.chi, "ok": report.passed}


def _univ_prop_case(gname: str, hname: str, c: int) -> dict:
    ok = exponential.universal_property_check(graphs.named(gname), graphs.named(hname), c)
    return {"g": gname, "h": hname, "c": c, "ok": ok}


def _kneser_lovasz_case(d: int, c: int) -> dict:
    # Lovasz: chi(K(m, k)) = m - 2k + 2, here with m = dc and k = c
    m, k = d * c, c
    expected = m - 2 * k + 2
    actual = solvers.chromatic_number(graphs.kneser(m, k))
    return {"m": m, "k": k, "expected": expected, "actual": actual, "ok": actual == expected}


def _hedetniemi_case(_: int, g: Graph, h: Graph, expected: int) -> tuple[list, dict | None]:
    actual = solvers.chromatic_number(graphs.tensor_product(g, h))
    row = [g.n, len(g.edges), h.n, len(h.edges), expected, actual]
    if actual == expected:
        return row, None
    return row, {
        "g": {"n": g.n, "edges": sorted(g.edges)},
        "h": {"n": h.n, "edges": sorted(h.edges)},
        "expected": expected,
        "actual": actual,
    }


def _multiplicativity_case(qname: str, gname: str, hname: str, expect_vacuous: bool) -> dict:
    report = multiplicativity_check(graphs.named(qname), graphs.named(gname), graphs.named(hname))
    return {
        "q": qname,
        "g": gname,
        "h": hname,
        "vacuous": report.vacuous,
        "ok": report.passed and report.vacuous == expect_vacuous,
    }


def _claim_schelp(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    coloring = arcshift.schelp_coloring()
    ug = arcshift._schelp_shift()[0]
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


# the seen flags take one byte per arc mask, 2^(n(n-1)) bytes: 1 MB at 5
# vertices, 1 GB at 6
LEMMA_REL_EXHAUSTIVE_MAX_N = 5


def _digraph_classes_up_to(n_max: int) -> list[tuple[Digraph, int]]:
    """One digraph per isomorphism class on 1..n_max vertices, with its orbit size.

    The n(n-1) possible arcs are indexed in lexicographic order, so a digraph
    is an arc mask and each vertex permutation is a table from arc index to
    arc index. The masks are walked in increasing order; the first one not
    yet seen is the least mask of its class, and its whole orbit is marked
    seen. The representatives and their order are the same on every run.
    """
    if n_max > LEMMA_REL_EXHAUSTIVE_MAX_N:
        raise CapExceeded(
            f"digraph classes on {n_max} vertices are above the cap of "
            f"{LEMMA_REL_EXHAUSTIVE_MAX_N} vertices: the class walk would flag "
            f"2^{n_max * (n_max - 1)} arc masks"
        )
    classes = []
    for n in range(1, n_max + 1):
        possible = [(x, y) for x in range(n) for y in range(n) if x != y]
        index = {arc: i for i, arc in enumerate(possible)}
        tables = [[index[p[x], p[y]] for x, y in possible] for p in permutations(range(n))]
        seen = bytearray(1 << len(possible))
        for mask in range(len(seen)):
            if seen[mask]:
                continue
            bits = [i for i in range(len(possible)) if mask >> i & 1]
            orbit = 0
            for table in tables:
                image = 0
                for i in bits:
                    image |= 1 << table[i]
                if not seen[image]:
                    seen[image] = 1
                    orbit += 1
            classes.append((Digraph._built(n, frozenset(possible[i] for i in bits)), orbit))
    return classes


def _claim_lem_rel(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    # chi, the arc shift and both transforms commute with relabelling, so
    # one digraph per isomorphism class decides the exhaustive part; the
    # digraphs share few underline graphs, each colored once in this call
    failures = []
    colorings: dict = {}

    def check(d: Digraph) -> list[int]:
        report, transforms_hold = arcshift._lemma_rel(d, colorings)
        if not (report.passed and transforms_hold):
            failures.append({"n": d.n, "arcs": sorted(d.arcs)})
        return [d.n, len(d.arcs), report.chi_d, report.chi_shift, report.lower, report.upper]

    classes = _digraph_classes_up_to(LEMMA_REL_EXHAUSTIVE_N)
    for d, _ in classes:
        check(d)
    rng = cfg.rng("lem-rel")
    instances = [
        check(random_digraph(rng, 1, LEMMA_REL_RANDOM_MAX_N, ARC_PROBABILITY))
        for _ in range(LEMMA_REL_RANDOM)
    ]
    witness = {
        "exhaustive_classes": len(classes),
        "labelled_covered": sum(orbit for _, orbit in classes),
        "random_instances": instances,
        "failures": failures,
    }
    params = {
        "exhaustive_n": LEMMA_REL_EXHAUSTIVE_N,
        "random": LEMMA_REL_RANDOM,
        "random_max_n": LEMMA_REL_RANDOM_MAX_N,
    }
    return params, not failures, witness


def _label_case(check: Callable[[Digraph, Digraph], bool]) -> Callable[..., tuple]:
    """The case of a label-equality check over the seeded digraph pairs."""

    def case(i: int, d1: Digraph, d2: Digraph) -> tuple[list, dict | None]:
        good = check(d1, d2)
        row = [d1.n, len(d1.arcs), d2.n, len(d2.arcs), good]
        return row, None if good else {"pair": i, "n1": d1.n, "n2": d2.n}

    return case


def _bound_chain_case(i: int, d1: Digraph, d2: Digraph) -> tuple[list, dict | None]:
    report = arcshift.bound_chain_instance(d1, d2)
    chis = {
        "chi_product": report.chi_product,
        "chi_product_reversed": report.chi_product_reversed,
        "chi_underline_product": report.chi_underline_product,
    }
    return [*chis.values(), report.passed], None if report.passed else {"pair": i, **chis}


def _claim_frac_hedetniemi(cfg: SuiteConfig) -> tuple[dict, bool, Any]:
    # every catalog graph is vertex-transitive, so its found generators, and
    # the product generators of two of them, give each LP below one orbit row
    gens, singles = {}, {}
    for name in FRAC_CATALOG:
        g = graphs.named(name)
        gens[name] = symmetry.automorphism_generators(g)
        singles[name], _ = fractional.fractional_chromatic(g, generators=gens[name])
    checked = []
    skipped = []
    failures = []
    names = sorted(FRAC_CATALOG)
    for i, gname in enumerate(names):
        for hname in names[i:]:
            g, h = graphs.named(gname), graphs.named(hname)
            if g.n * h.n > DEFAULT_MAX_LP_VERTICES:
                skipped.append([gname, hname, g.n * h.n])
                continue
            expected = min(singles[gname], singles[hname])
            actual, _ = fractional.fractional_chromatic(
                graphs.tensor_product(g, h),
                generators=graphs._product_generators(gens[gname], g.n, gens[hname], h.n),
            )
            checked.append([gname, hname])
            if actual != expected:
                failures.append(
                    {"g": gname, "h": hname, "expected": expected, "actual": actual}
                )
    pinned = {"c5": Fraction(5, 2), "petersen": Fraction(5, 2)}
    exact_ok = all(singles[name] == value for name, value in pinned.items())
    ok = not failures and exact_ok
    witness = {
        "singles": singles,
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
        "exact_values_ok": exact_ok,
    }
    return {"catalog": list(names), "cap": DEFAULT_MAX_LP_VERTICES}, ok, witness


# each claim id maps to its suite and its runner; the two headline
# constructions have neither, and only "all" reports them, as out of scope
_CLAIMS: dict[str, tuple[str | None, Callable[[SuiteConfig], tuple[dict, bool, Any]] | None]] = {
    "clm-clique": ("shitov", lambda cfg: _case_table(
        {"center": 0},
        [("heawood", q, False) for q in MU_CLIQUE_QS] + [("c5", 1, True), ("k4", 1, True)],
        _clm_clique_case,
    )),
    "clm-ad": ("shitov", lambda cfg: _case_table(
        {"graph": "heawood", "center": 0}, [(1,), (2,)], _clm_ad_case
    )),
    "ob-image": ("shitov", _claim_ob_image),
    "es-k3": ("exponential", lambda cfg: _case_table(
        {"bases": list(ES_BASES)}, [(name,) for name in ES_BASES], _es_k3_case
    )),
    "univ-prop": ("exponential", lambda cfg: _case_table(
        {"cases": 2}, [("k2", "k3", 2), ("c5", "c5", 3)], _univ_prop_case
    )),
    "kneser-lovasz": ("products", lambda cfg: _case_table(
        {"cases": 3}, [(2, 2), (3, 2), (2, 3)], _kneser_lovasz_case
    )),
    "hedetniemi-min4": ("products", lambda cfg: _instance_table(
        {"pairs": HEDETNIEMI_PAIRS, "max_n": HEDETNIEMI_MAX_N},
        _hedetniemi_pairs(cfg),
        _hedetniemi_case,
    )),
    "multiplicativity": ("products", lambda cfg: _case_table(
        {"cases": 3},
        [
            ("k3", "k4", "k4", False),
            ("c5", "k3", "k3", False),
            ("k3", "k2", "k2", True),  # K2 -> K3 exists, so the implication is vacuous
        ],
        _multiplicativity_case,
    )),
    "schelp": ("arc-shift", _claim_schelp),
    "lem-rel": ("arc-shift", _claim_lem_rel),
    # the two label-equality checks draw the same seeded digraph pairs
    "functoriality": ("arc-shift", lambda cfg: _instance_table(
        {"pairs": DIGRAPH_PAIRS, "max_n": DIGRAPH_PAIRS_MAX_N},
        _digraph_pairs(cfg, "digraph-pairs", DIGRAPH_PAIRS),
        _label_case(arcshift.functoriality_check),
    )),
    "underline-decomp": ("arc-shift", lambda cfg: _instance_table(
        {"pairs": DIGRAPH_PAIRS, "max_n": DIGRAPH_PAIRS_MAX_N},
        _digraph_pairs(cfg, "digraph-pairs", DIGRAPH_PAIRS),
        _label_case(arcshift.underline_decomposition_check),
    )),
    "bound-chain": ("arc-shift", lambda cfg: _instance_table(
        {"pairs": BOUND_CHAIN_PAIRS, "max_n": DIGRAPH_PAIRS_MAX_N},
        _digraph_pairs(cfg, "bound-chain", BOUND_CHAIN_PAIRS),
        _bound_chain_case,
    )),
    "frac-hedetniemi": ("fractional", _claim_frac_hedetniemi),
    "thm-main": (None, None),
    "thm-shitov": (None, None),
}

_OOS_NOTE = (
    "hypotheses need blow-up factor q >= 2^(p-1)*p^2 with p in the hundreds; "
    "instance checks cover the desk-scale constructions instead"
)


def run_suite(name: str, cfg: SuiteConfig | None = None, *, jobs: int = 1) -> list[ClaimReport]:
    """Run the claims whose rows name this suite; "all" runs every row.

    Claims run one after another in claim-id order, the order of the reports.
    ``jobs`` accepts only 1. It remains so that callers still passing
    ``jobs=1`` (benchmarks/workloads.py) keep working; any other value raises
    ValueError.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    known = sorted({suite for suite, _ in _CLAIMS.values() if suite}) + ["all"]
    if name not in known:
        raise ValueError(f"unknown suite {name!r} (known: {', '.join(known)})")
    cfg = cfg or SuiteConfig()
    reports = []
    for claim_id, (suite, runner) in sorted(_CLAIMS.items()):
        if name not in (suite, "all"):
            continue
        if runner is None:
            reports.append(
                ClaimReport(claim_id, {"note": _OOS_NOTE}, None, OUT_OF_SCOPE, None, 0.0)
            )
            continue
        start = time.perf_counter()
        params, ok, witness = runner(cfg)
        elapsed = time.perf_counter() - start
        reports.append(
            ClaimReport(claim_id, params, ok, "pass" if ok else "fail", witness, elapsed)
        )
    return reports
