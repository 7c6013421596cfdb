"""Command-line front end.

Subcommands generate graphs, compute invariants, build the exponential and
arc-shift constructions, and run verification suites. Graphs flow between
commands as edge-list text on stdin/stdout, so calls compose under pipes:

    prodcolor gen kneser 5 2 | prodcolor invariant chi

Only the requested payload goes to stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 usage or input error, 2 computation cap exceeded,
3 claim failure (verify).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import arcshift, exponential, fractional, graphs, harness, serialize, solvers
from .errors import CapExceeded, ParseError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> graphs.Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return serialize.graph_from_obj(json.loads(text))
    return serialize.parse_graph(text)


def _load_digraph(path: str) -> graphs.Digraph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return serialize.digraph_from_obj(json.loads(text))
    return serialize.parse_digraph(text)


def _emit_graph(g: graphs.Graph, args) -> None:
    if args.format == "obj":
        print(json.dumps(serialize.graph_to_obj(g), sort_keys=True))
    elif args.format == "dot":
        sys.stdout.write(serialize.graph_to_dot(g, args.one_based))
    else:
        sys.stdout.write(serialize.serialize_graph(g, args.one_based))


def _emit_digraph(d: graphs.Digraph, args) -> None:
    if args.format == "obj":
        print(json.dumps(serialize.digraph_to_obj(d), sort_keys=True))
    elif args.format == "dot":
        sys.stdout.write(serialize.digraph_to_dot(d, args.one_based))
    else:
        sys.stdout.write(serialize.serialize_digraph(d, args.one_based))


def _emit_obj(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "named":
        g = graphs.named(args.params[0])
    elif kind == "complete":
        g = graphs.complete_graph(int(args.params[0]))
    elif kind == "cycle":
        g = graphs.cycle(int(args.params[0]))
    elif kind == "kneser":
        g = graphs.kneser(int(args.params[0]), int(args.params[1]))
    elif kind == "circ":
        g = graphs.circular_clique(int(args.params[0]), int(args.params[1]))
    elif kind == "blowup":
        q = int(args.params[0])
        src = args.params[1] if len(args.params) > 1 else "-"
        g = graphs.blowup(_load_graph(src), q)
    elif kind == "product":
        g = graphs.tensor_product(_load_graph(args.params[0]), _load_graph(args.params[1]))
    elif kind == "loops":
        src = args.params[0] if args.params else "-"
        g = graphs.add_loops(_load_graph(src))
    else:
        raise _UsageError(f"unknown gen kind {kind!r}")
    _emit_graph(g, args)
    return 0


def _cmd_dgen(args) -> int:
    if args.kind == "complete":
        d = graphs.complete_digraph(int(args.params[0]))
    elif args.kind == "parse":
        src = args.params[0] if args.params else "-"
        d = _load_digraph(src)
    else:
        raise _UsageError(f"unknown dgen kind {args.kind!r}")
    _emit_digraph(d, args)
    return 0


def _cmd_invariant(args) -> int:
    rest = list(args.rest)
    vertex = 0
    if args.which == "dist":
        if not rest:
            raise _UsageError("invariant dist needs a source vertex")
        try:
            vertex = int(rest.pop(0))
        except ValueError:
            raise _UsageError("invariant dist needs an integer source vertex") from None
        if args.one_based:
            vertex -= 1
    if len(rest) > 1:
        raise _UsageError(f"unexpected arguments: {rest[1:]}")
    g = _load_graph(rest[0] if rest else "-")
    if args.which == "chi":
        print(solvers.chromatic_number(g))
    elif args.which == "chif":
        value, witness = fractional.fractional_chromatic(g, args.max_lp_vertices)
        if args.format == "obj":
            _emit_obj(
                {
                    "value": [value.numerator, value.denominator],
                    "coloring": serialize.fractional_coloring_to_obj(witness),
                }
            )
        else:
            print(value)
    elif args.which == "alpha":
        print(solvers.independence_number(g))
    elif args.which == "girth":
        gg = solvers.girth(g)
        print("inf" if gg == float("inf") else gg)
    elif args.which == "dist":
        dist = graphs.distances(g, vertex)
        print(" ".join("inf" if d == float("inf") else str(d) for d in dist))
    return 0


def _cmd_hom(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    hom = solvers.find_homomorphism(g, h)
    if hom is None:
        print("none")
    else:
        off = 1 if args.one_based else 0
        print(" ".join(str(w + off) for w in hom.mapping))
    return 0


def _parse_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise _UsageError(f"bad value list {text!r}") from None


def _cmd_exp(args) -> int:
    if args.action == "materialize":
        g = _load_graph(args.input)
        ctx = exponential.ExpContext(g, args.c)
        expo = exponential.materialize_exponential(
            ctx, args.max_exp_vertices, args.max_exp_pairs
        )
        _emit_graph(expo, args)
        return 0
    if args.action == "adjacent":
        if args.f is None or args.g is None:
            raise _UsageError("exp adjacent needs --f and --g value lists")
        g = _load_graph(args.input)
        ctx = exponential.ExpContext(g, args.c)
        f = exponential.ExpMap(ctx, _parse_values(args.f))
        gm = exponential.ExpMap(ctx, _parse_values(args.g))
        print("true" if exponential.exp_adjacent(f, gm) else "false")
        return 0
    if args.action in ("mu", "theta"):
        g = _load_graph(args.input)
        if args.action == "mu":
            m = exponential.shitov_mu(g, args.vertex, args.q, args.t)
        else:
            m = exponential.shitov_theta(g, args.vertex, args.q, b=args.b, t=args.t)
        if args.format == "obj":
            _emit_obj(
                {
                    "base": serialize.graph_to_obj(g),
                    "q": args.q,
                    "c": m.ctx.c,
                    "values": list(m.exp.values),
                    "simple": m.simple,
                }
            )
        else:
            off = 1 if args.one_based else 0
            print(" ".join(str(v + off) for v in m.exp.values))
        return 0
    if args.action == "verify-mu-clique":
        g = _load_graph(args.input)
        report = exponential.verify_mu_clique(g, args.vertex, args.q)
        if args.format == "obj":
            _emit_obj(
                {
                    "passed": report.passed,
                    "pairs_checked": report.pairs_checked,
                    "violations": harness._jsonable(report.violations),
                }
            )
        else:
            print(f"pass: {str(report.passed).lower()} ({report.pairs_checked} pairs)")
            for t, tp, edge, value in report.violations:
                print(f"violation: t={t} t'={tp} edge={edge} shared={value}")
        return 0
    raise _UsageError(f"unknown exp action {args.action!r}")


def _load_coloring(path: str) -> solvers.Coloring:
    return serialize.coloring_from_obj(json.loads(_read_text(path)))


def _cmd_shift(args) -> int:
    if args.action == "build":
        d = _load_digraph(args.input)
        shifted, index = arcshift.arc_shift(d)
        if args.format == "obj":
            _emit_obj(
                {
                    "shift": serialize.digraph_to_obj(shifted),
                    "arc_index": [list(a) for a in index.arcs],
                }
            )
        else:
            _emit_digraph(shifted, args)
        return 0
    if args.action == "down":
        if args.coloring is None:
            raise _UsageError("shift down needs --coloring FILE")
        d = _load_digraph(args.input)
        sc = arcshift.coloring_down(d, _load_coloring(args.coloring))
        _emit_obj(serialize.set_coloring_to_obj(sc))
        return 0
    if args.action == "up":
        if args.set_coloring is None:
            raise _UsageError("shift up needs --set-coloring FILE")
        d = _load_digraph(args.input)
        sc = serialize.set_coloring_from_obj(json.loads(_read_text(args.set_coloring)))
        coloring = arcshift.coloring_up(d, sc)
        _emit_obj(serialize.coloring_to_obj(coloring))
        return 0
    if args.action == "schelp":
        coloring = arcshift.schelp_coloring()
        triples = arcshift.schelp_triples()
        off = 1 if args.one_based else 0
        for (i, j, k), color in zip(triples, coloring.colors):
            print(f"{i + off} {j + off} {k + off} -> {color + off}")
        d4 = graphs.complete_digraph(4)
        s1, _ = arcshift.arc_shift(d4)
        s2, _ = arcshift.arc_shift(s1)
        proper = solvers.is_proper_coloring(graphs.underline(s2), coloring)
        print(f"{coloring.colors_used()} colors, proper: {str(proper).lower()}")
        return 0
    if args.action == "functoriality":
        d1 = _load_digraph(args.d1)
        d2 = _load_digraph(args.d2)
        print("true" if arcshift.functoriality_check(d1, d2) else "false")
        return 0
    if args.action == "bounds":
        d = _load_digraph(args.input)
        report = arcshift.lemma_rel_bounds_check(d)
        _emit_obj(
            {
                "chi_d": report.chi_d,
                "chi_shift": report.chi_shift,
                "lower": report.lower,
                "upper": report.upper,
                "passed": report.passed,
            }
        )
        return 0
    if args.action == "chain":
        d1 = _load_digraph(args.d1)
        d2 = _load_digraph(args.d2)
        report = arcshift.bound_chain_instance(d1, d2)
        _emit_obj(
            {
                "chi_product": report.chi_product,
                "chi_product_reversed": report.chi_product_reversed,
                "chi_underline_product": report.chi_underline_product,
                "passed": report.passed,
            }
        )
        return 0
    raise _UsageError(f"unknown shift action {args.action!r}")


def _cmd_verify(args) -> int:
    cfg = harness.SuiteConfig(
        seed=args.seed,
        max_lp_vertices=args.max_lp_vertices,
        max_exp_vertices=args.max_exp_vertices,
        max_exp_pairs=args.max_exp_pairs,
    )
    reports = harness.run_suite(args.suite, cfg)
    if args.format == "obj":
        sys.stdout.write(harness.serialize_reports(reports, mask_timing=args.mask_timing))
    else:
        for r in reports:
            elapsed = "     -" if args.mask_timing else f"{r.elapsed:6.2f}"
            print(f"{r.claim_id:<18} {r.status:<20} {elapsed}s")
    failed = [r for r in reports if r.status == "fail"]
    if failed:
        print(f"{len(failed)} claim(s) failed", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="prodcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "obj", "dot"], default="text")
        p.add_argument("--one-based", action="store_true", dest="one_based",
                       help="display vertices/colors 1-based (storage stays 0-based)")

    p = sub.add_parser("gen", help="generate or transform a graph")
    p.add_argument("kind", choices=["named", "complete", "cycle", "kneser", "circ",
                                    "blowup", "product", "loops"])
    p.add_argument("params", nargs="*")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dgen", help="generate or parse a digraph")
    p.add_argument("kind", choices=["complete", "parse"])
    p.add_argument("params", nargs="*")
    common(p)
    p.set_defaults(func=_cmd_dgen)

    p = sub.add_parser("invariant", help="compute an exact invariant")
    p.add_argument("which", choices=["chi", "chif", "alpha", "girth", "dist"])
    p.add_argument("rest", nargs="*",
                   help="for dist: source vertex, then optional input file")
    p.add_argument("--max-lp-vertices", type=int,
                   default=fractional.DEFAULT_MAX_LP_VERTICES)
    common(p)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("hom", help="search for a homomorphism G -> H")
    p.add_argument("g")
    p.add_argument("h")
    common(p)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("exp", help="exponential graph operations")
    p.add_argument("action", choices=["materialize", "adjacent", "mu", "theta",
                                      "verify-mu-clique"])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("-c", type=int, default=3, help="palette size")
    p.add_argument("--f", help="first map values, comma separated")
    p.add_argument("--g", help="second map values, comma separated")
    p.add_argument("-v", "--vertex", type=int, default=0, help="center vertex")
    p.add_argument("-q", type=int, default=1, help="blow-up factor")
    p.add_argument("-t", type=int, default=None)
    p.add_argument("-b", type=int, default=None)
    p.add_argument("--max-exp-vertices", type=int,
                   default=exponential.DEFAULT_MAX_EXP_VERTICES)
    p.add_argument("--max-exp-pairs", type=int,
                   default=exponential.DEFAULT_MAX_EXP_PAIRS)
    common(p)
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser("shift", help="arc-shift operations")
    p.add_argument("action", choices=["build", "down", "up", "schelp",
                                      "functoriality", "bounds", "chain"])
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("d2", nargs="?", default="-")
    p.add_argument("--coloring", help="coloring JSON file (down)")
    p.add_argument("--set-coloring", dest="set_coloring",
                   help="set-coloring JSON file (up)")
    common(p)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite_word", nargs="?", default="suite",
                   help="the literal word 'suite' (optional)")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--mask-timing", action="store_true", dest="mask_timing")
    p.add_argument("--max-lp-vertices", type=int,
                   default=fractional.DEFAULT_MAX_LP_VERTICES)
    p.add_argument("--max-exp-vertices", type=int,
                   default=exponential.DEFAULT_MAX_EXP_VERTICES)
    p.add_argument("--max-exp-pairs", type=int,
                   default=exponential.DEFAULT_MAX_EXP_PAIRS)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _absorb_extras(args, extra: list[str]) -> None:
    """Attach positional tokens that argparse left behind.

    argparse binds optional positionals at the first positional run, so a
    file name after an option (as in ``exp materialize -c 3 FILE``) arrives
    here; slot such tokens into the still-default positionals in order.
    """
    bad = [t for t in extra if t.startswith("-") and t != "-"]
    if bad:
        raise _UsageError(f"unrecognized arguments: {' '.join(bad)}")
    queue = list(extra)
    if not queue:
        return
    if hasattr(args, "rest"):
        args.rest = list(args.rest) + queue
        return
    if hasattr(args, "params"):
        args.params = list(args.params) + queue
        return
    for name in ("input", "d2"):
        if queue and hasattr(args, name) and getattr(args, name) == "-":
            setattr(args, name, queue.pop(0))
    if queue:
        raise _UsageError(f"unexpected arguments: {' '.join(queue)}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        _absorb_extras(args, extra)
        if args.command == "shift" and args.action in ("functoriality", "chain"):
            args.d1 = args.input
        if args.command == "verify":
            if args.suite_word != "suite":
                # both positionals given without the 'suite' keyword
                args.suite = args.suite_word
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
