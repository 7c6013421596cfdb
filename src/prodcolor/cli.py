"""Command-line front end.

Subcommands generate graphs, compute invariants, build the exponential and
arc-shift constructions, and run verification suites. Graphs flow between
commands as edge-list text on stdin/stdout, so calls compose under pipes:

    prodcolor gen kneser 5 2 | prodcolor invariant chi

Every subcommand but hom takes a kind, then a list of positionals whose
count the kind fixes (``invariant dist VERTEX [FILE]``; verify takes
``[suite] [NAME]``); hom takes the two files G and H. A missing FILE is
stdin. A file may follow options (``exp materialize -c 3 FILE``), and a
surplus positional is a usage error.

Only the requested payload goes to stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 usage or input error, 2 computation cap exceeded,
3 claim failure (verify, or exp verify-mu-clique on a failing check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# graphs and serialize carry every command's input and output; each handler
# imports the layers it computes with, so a stage loads only what it runs
from . import graphs, serialize
from .errors import (
    DEFAULT_MAX_EXP_EDGES,
    DEFAULT_MAX_EXP_VERTICES,
    DEFAULT_MAX_LP_VERTICES,
    CapExceeded,
    ParseError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


# json loads only in the stages that read or write an object
def _parse_obj(text: str):
    import json

    return json.loads(text)


def _load_graph(path: str) -> graphs.Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return serialize.graph_from_obj(_parse_obj(text))
    return serialize.parse_graph(text)


def _load_digraph(path: str) -> graphs.Digraph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return serialize.digraph_from_obj(_parse_obj(text))
    return serialize.parse_digraph(text)


def _emit_obj(value) -> None:
    import json

    print(json.dumps(serialize.to_obj(value), sort_keys=True))


def _emit_graph(g: graphs.Graph, args) -> None:
    if args.format == "obj":
        _emit_obj(g)
    elif args.format == "dot":
        sys.stdout.write(serialize.graph_to_dot(g, args.one_based))
    else:
        sys.stdout.write(serialize.serialize_graph(g, args.one_based))


def _emit_digraph(d: graphs.Digraph, args) -> None:
    if args.format == "obj":
        _emit_obj(d)
    elif args.format == "dot":
        sys.stdout.write(serialize.digraph_to_dot(d, args.one_based))
    else:
        sys.stdout.write(serialize.serialize_digraph(d, args.one_based))


# ---------------------------------------------------------------------------
# positionals: every subcommand but hom takes a kind, then a list of params

_FILE = "an optional input file"
_TWO_FILES = "one or two input files (a missing second one is stdin)"


def _file(p: list[str], i: int = 0) -> str:
    """The i-th param, or "-" (stdin) when it is not given."""
    return p[i] if len(p) > i else "-"


# command -> kind -> (fewest, most, what) params; gen and dgen add the builder
# that makes the kind's graph or digraph from them
_KINDS = {
    "gen": {
        "named": (1, 1, "a catalog name", lambda p: graphs.named(p[0])),
        "complete": (1, 1, "n", lambda p: graphs.complete_graph(int(p[0]))),
        "cycle": (1, 1, "n", lambda p: graphs.cycle(int(p[0]))),
        "kneser": (2, 2, "m and k", lambda p: graphs.kneser(int(p[0]), int(p[1]))),
        "circ": (2, 2, "p and q", lambda p: graphs.circular_clique(int(p[0]), int(p[1]))),
        "blowup": (1, 2, "q and an optional input file",
                   lambda p: graphs.blowup(_load_graph(_file(p, 1)), int(p[0]))),
        "product": (2, 2, "two input files",
                    lambda p: graphs.tensor_product(_load_graph(p[0]), _load_graph(p[1]))),
        "loops": (0, 1, _FILE, lambda p: graphs.add_loops(_load_graph(_file(p)))),
    },
    "dgen": {
        "complete": (1, 1, "n", lambda p: graphs.complete_digraph(int(p[0]))),
        "parse": (0, 1, _FILE, lambda p: _load_digraph(_file(p))),
    },
    "invariant": {
        **dict.fromkeys(["chi", "chif", "alpha", "girth"], (0, 1, _FILE)),
        "dist": (1, 2, "a source vertex and an optional input file"),
    },
    "exp": dict.fromkeys(["materialize", "adjacent", "mu", "theta", "verify-mu-clique"],
                         (0, 1, _FILE)),
    "shift": {
        "build": (0, 1, _FILE),
        "down": (0, 1, _FILE),
        "up": (0, 1, _FILE),
        "schelp": (0, 0, "no positionals"),
        "functoriality": (1, 2, _TWO_FILES),
        "bounds": (0, 1, _FILE),
        "chain": (1, 2, _TWO_FILES),
    },
    # verify has no kind positional: its params are [suite] [NAME]
    "verify": {"suite": (0, 1, "an optional suite name")},
}


def _params(args) -> list[str]:
    fewest, most, what = _KINDS[args.command][args.kind][:3]
    if not fewest <= len(args.params) <= most:
        raise _UsageError(f"{args.command} {args.kind} takes {what}, got {args.params}")
    return args.params


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    """gen and dgen: build the kind's graph or digraph and emit it."""
    build = _KINDS[args.command][args.kind][3]
    args.emit(build(_params(args)), args)
    return 0


def _cmd_invariant(args) -> int:
    from . import solvers

    p = _params(args)
    vertex = 0
    if args.kind == "dist":
        try:
            vertex = int(p.pop(0))
        except ValueError:
            raise _UsageError("invariant dist needs an integer source vertex") from None
        if args.one_based:
            vertex -= 1
    g = _load_graph(_file(p))
    if args.kind == "chi":
        if args.format == "obj":
            coloring = solvers.optimal_coloring(g)
            _emit_obj({"value": coloring.k, "coloring": coloring})
        else:
            print(solvers.chromatic_number(g))
    elif args.kind == "chif":
        from . import fractional

        value, witness = fractional.fractional_chromatic(g, args.max_lp_vertices)
        if args.format == "obj":
            _emit_obj({"value": value, "coloring": witness})
        else:
            print(value)
    elif args.kind == "alpha":
        print(solvers.independence_number(g))
    elif args.kind == "girth":
        gg = solvers.girth(g)
        print("inf" if gg == float("inf") else gg)
    elif args.kind == "dist":
        dist = graphs.distances(g, vertex)
        print(" ".join("inf" if d == float("inf") else str(d) for d in dist))
    return 0


def _cmd_hom(args) -> int:
    from . import solvers

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
    from . import exponential

    path = _file(_params(args))
    if args.kind == "materialize":
        g = _load_graph(path)
        ctx = exponential.ExpContext(g, args.c)
        expo = exponential.materialize_exponential(
            ctx, args.max_exp_vertices, args.max_exp_edges
        )
        _emit_graph(expo, args)
        return 0
    if args.kind == "adjacent":
        if args.f is None or args.g is None:
            raise _UsageError("exp adjacent needs --f and --g value lists")
        g = _load_graph(path)
        ctx = exponential.ExpContext(g, args.c)
        f = exponential.ExpMap(ctx, _parse_values(args.f))
        gm = exponential.ExpMap(ctx, _parse_values(args.g))
        print("true" if exponential.exp_adjacent(f, gm) else "false")
        return 0
    if args.kind in ("mu", "theta"):
        g = _load_graph(path)
        if args.kind == "mu":
            m = exponential.shitov_mu(g, args.vertex, args.q, args.t)
        else:
            m = exponential.shitov_theta(g, args.vertex, args.q, b=args.b, t=args.t)
        if args.format == "obj":
            _emit_obj(
                {"base": g, "q": args.q, "c": m.ctx.c, "values": m.exp.values, "simple": m.simple}
            )
        else:
            off = 1 if args.one_based else 0
            print(" ".join(str(v + off) for v in m.exp.values))
        return 0
    # verify-mu-clique
    report = exponential.verify_mu_clique(_load_graph(path), args.vertex, args.q)
    if args.format == "obj":
        _emit_obj(report)
    else:
        print(f"pass: {str(report.passed).lower()} ({report.pairs_checked} pairs)")
        for t, tp, edge, value in report.violations:
            print(f"violation: t={t} t'={tp} edge={edge} shared={value}")
    return 0 if report.passed else 3


def _cmd_shift(args) -> int:
    from . import arcshift, solvers

    p = _params(args)
    if args.kind == "build":
        d = _load_digraph(_file(p))
        shifted, arcs = arcshift.arc_shift(d)
        if args.format == "obj":
            _emit_obj({"shift": shifted, "arc_index": arcs})
        else:
            _emit_digraph(shifted, args)
        return 0
    if args.kind == "down":
        if args.coloring is None:
            raise _UsageError("shift down needs --coloring FILE")
        d = _load_digraph(_file(p))
        coloring = serialize.coloring_from_obj(_parse_obj(_read_text(args.coloring)))
        sc = arcshift.coloring_down(d, coloring)
        _emit_obj(sc)
        return 0
    if args.kind == "up":
        if args.set_coloring is None:
            raise _UsageError("shift up needs --set-coloring FILE")
        d = _load_digraph(_file(p))
        sc = serialize.set_coloring_from_obj(_parse_obj(_read_text(args.set_coloring)))
        coloring = arcshift.coloring_up(d, sc)
        _emit_obj(coloring)
        return 0
    if args.kind == "schelp":
        coloring = arcshift.schelp_coloring()
        triples = arcshift.schelp_triples()
        off = 1 if args.one_based else 0
        for (i, j, k), color in zip(triples, coloring.colors):
            print(f"{i + off} {j + off} {k + off} -> {color + off}")
        proper = solvers.is_proper_coloring(arcshift._schelp_shift()[0], coloring)
        print(f"{coloring.colors_used()} colors, proper: {str(proper).lower()}")
        return 0
    if args.kind == "functoriality":
        d1 = _load_digraph(_file(p))
        d2 = _load_digraph(_file(p, 1))
        print("true" if arcshift.functoriality_check(d1, d2) else "false")
        return 0
    if args.kind == "bounds":
        d = _load_digraph(_file(p))
        _emit_obj(arcshift.lemma_rel_bounds_check(d))
        return 0
    # chain
    d1 = _load_digraph(_file(p))
    d2 = _load_digraph(_file(p, 1))
    _emit_obj(arcshift.bound_chain_instance(d1, d2))
    return 0


def _cmd_verify(args) -> int:
    from . import harness

    if args.params[:1] == ["suite"]:  # the word 'suite' is optional
        del args.params[0]
    p = _params(args)
    reports = harness.run_suite(p[0] if p else "all", harness.SuiteConfig(args.seed))
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


# subcommand -> its handler and its one-line help in the full parser's listing
_COMMANDS = {
    "gen": (_cmd_gen, "generate or transform a graph"),
    "dgen": (_cmd_gen, "generate or parse a digraph"),
    "invariant": (_cmd_invariant, "compute an exact invariant"),
    "hom": (_cmd_hom, "search for a homomorphism G -> H"),
    "exp": (_cmd_exp, "exponential graph operations"),
    "shift": (_cmd_shift, "arc-shift operations"),
    "verify": (_cmd_verify, "run a verification suite"),
}


def _add_arguments(p: _Parser, command: str) -> None:
    """Give p the arguments of one subcommand, in the order its help lists them."""
    p.set_defaults(command=command, func=_COMMANDS[command][0])
    if command == "verify":
        p.add_argument("params", nargs="*",
                       help="the optional word 'suite', then an optional suite name (default all)")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--mask-timing", action="store_true", dest="mask_timing")
        p.add_argument("--format", choices=["text", "obj"], default="text")
        p.set_defaults(kind="suite")
        return
    if command == "hom":
        p.add_argument("g")
        p.add_argument("h")
    else:
        p.add_argument("kind", choices=list(_KINDS[command]))
        p.add_argument("params", nargs="*", help="; ".join(
            f"{kind}: {entry[2]}" for kind, entry in _KINDS[command].items()))
    if command == "invariant":
        p.add_argument("--max-lp-vertices", type=int, default=DEFAULT_MAX_LP_VERTICES)
    elif command == "exp":
        p.add_argument("-c", type=int, default=3, help="palette size")
        p.add_argument("--f", help="first map values, comma separated")
        p.add_argument("--g", help="second map values, comma separated")
        p.add_argument("-v", "--vertex", type=int, default=0, help="center vertex")
        p.add_argument("-q", type=int, default=1, help="blow-up factor")
        p.add_argument("-t", type=int, default=None)
        p.add_argument("-b", type=int, default=None)
        p.add_argument("--max-exp-vertices", type=int, default=DEFAULT_MAX_EXP_VERTICES)
        p.add_argument("--max-exp-edges", type=int, default=DEFAULT_MAX_EXP_EDGES)
    elif command == "shift":
        p.add_argument("--coloring", help="coloring JSON file (down)")
        p.add_argument("--set-coloring", dest="set_coloring",
                       help="set-coloring JSON file (up)")
    p.add_argument("--format", choices=["text", "obj", "dot"], default="text")
    p.add_argument("--one-based", action="store_true", dest="one_based",
                   help="display vertices/colors 1-based (storage stays 0-based)")
    if command in ("gen", "dgen"):
        p.set_defaults(emit=_emit_graph if command == "gen" else _emit_digraph)


def _build_parser() -> _Parser:
    """The parser of every subcommand, for the top-level help and errors."""
    parser = _Parser(prog="prodcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=summary), command)
    return parser


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """The parsed arguments and the unparsed rest.

    A known command at argv[0] takes all the rest, as a subparser of the
    full parser would, so only that command's parser is built: it is the
    subparser the full parser would make, and prints the same help and
    errors. Anything else (no arguments, ``--help``, an unknown command)
    goes to the full parser.
    """
    if argv[:1] and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"prodcolor {argv[0]}")
        _add_arguments(parser, argv[0])
        return parser.parse_known_args(argv[1:])
    return _build_parser().parse_known_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        # argparse binds positionals only in their first run, so a file given
        # after an option (``exp materialize -c 3 FILE``) comes back unparsed
        args, extra = _parse(sys.argv[1:] if argv is None else argv)
        bad = [t for t in extra if t.startswith("-") and t != "-"]
        if bad or (extra and "params" not in args):  # hom takes just its two files
            raise _UsageError(f"unrecognized arguments: {' '.join(bad or extra)}")
        if extra:
            args.params += extra
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
    except (ValueError, OSError) as exc:  # json's JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
