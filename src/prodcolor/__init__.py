"""prodcolor: categorical graph products, exponential graphs, arc-shift
digraphs, and exact chromatic invariants, with a claim-verification harness.

The public names below load lazily: ``import prodcolor`` imports no layer,
and the first access to a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "errors": ("CapExceeded", "ParseError"),
        "graphs": (
            "CATALOG", "Digraph", "Graph", "add_loops", "blowup", "circular_clique",
            "complete_digraph", "complete_graph", "cycle", "digraph_product", "distances",
            "kneser", "kneser_subsets", "named", "reverse", "tensor_product", "underline",
        ),
        "solvers": (
            "Coloring", "HomMap", "chromatic_number", "find_homomorphism", "girth",
            "independence_number", "is_homomorphism", "is_proper_coloring", "k_colorable",
            "max_weight_independent_set", "maximal_independent_sets", "optimal_coloring",
        ),
        "fractional": ("FractionalColoring", "fractional_chromatic"),
        "symmetry": ("automorphism_generators",),
        "exponential": (
            "ExpContext", "ExpMap", "NormalizationError", "constant_map", "exp_adjacent",
            "index_to_map", "is_simple", "materialize_exponential", "maximal_boxes",
            "observation_image_check", "retract", "shitov_mu", "shitov_theta",
            "universal_property_check", "verify_mu_clique",
        ),
        "arcshift": (
            "SetColoring", "arc_shift", "bound_chain_instance", "coloring_down", "coloring_up",
            "functoriality_check", "is_proper_set_coloring", "lemma_rel_bounds_check",
            "schelp_coloring", "schelp_triples", "underline_decomposition_check",
        ),
        "harness": (
            "ClaimReport", "SuiteConfig", "es_exponential_check", "multiplicativity_check",
            "run_suite",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound in this module
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
