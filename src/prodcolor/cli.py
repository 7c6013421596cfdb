"""Command-line front end.

Subcommands generate graphs, compute invariants, build the exponential and
arc-shift constructions, and run verification suites. Graphs flow between
commands as edge-list text on stdin/stdout, so calls compose under pipes:

    prodcolor gen kneser 5 2 | prodcolor invariant chi

Every subcommand but hom and verify takes a kind, then a list of positionals
whose count the kind fixes (``invariant dist VERTEX [FILE]``); hom takes the
two files G and H, and verify ``[suite] [NAME]``. A missing FILE is stdin. A
file may follow options (``exp materialize -c 3 FILE``). A surplus positional
is a usage error, as are a positional that must be an integer and is not, an
option the kind does not use (even at its default), a format it does not write,
a missing required option, and --one-based with --format obj, which is always
0-based.

Only the requested payload goes to stdout; diagnostics go to stderr.
Exit codes: 0 success, 1 usage or input error, 2 computation cap exceeded,
3 claim failure (verify, or exp verify-mu-clique on a failing check).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# the value types and serialize carry every command's text input and output;
# graphs' constructions, objects and each layer a handler computes with are
# imported where they are used, so a stage loads only what it runs
from . import serialize
from ._graph import Digraph, Graph
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


def _graphs():
    """The graphs module, imported only by the builders and invariant dist."""
    from . import graphs

    return graphs


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        from . import objects

        return objects.graph_from_obj(_parse_obj(text))
    return serialize.parse_graph(text)


def _load_digraph(path: str) -> Digraph:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        from . import objects

        return objects.digraph_from_obj(_parse_obj(text))
    return serialize.parse_digraph(text)


def _emit_obj(value) -> None:
    from . import objects

    print(objects.dumps(value))


def _emit_graph(g, args) -> None:
    """Write a Graph or a Digraph in the format args name."""
    if args.format == "obj":
        _emit_obj(g)
        return
    directed = isinstance(g, Digraph)
    if args.format == "dot":
        write = serialize.digraph_to_dot if directed else serialize.graph_to_dot
    else:
        write = serialize.serialize_digraph if directed else serialize.serialize_graph
    sys.stdout.write(write(g, args.one_based))


# ---------------------------------------------------------------------------
# positionals and options: a kind names its params, formats and options

_FILE = "an optional input file"
_TWO_FILES = "one or two input files (a missing second one is stdin)"


def _file(p: list[str], i: int = 0) -> str:
    """The i-th param, or "-" (stdin) when it is not given."""
    return p[i] if len(p) > i else "-"


def _int(args, i: int, what: str) -> int:
    """The i-th param as an integer, or a usage error naming what it is."""
    try:
        return int(args.params[i])
    except ValueError:
        raise _UsageError(f"{args.command} {args.kind} needs an integer {what}") from None


# dest -> (flags, then the value's name in --help and in a "needs" error; type;
# default; help). Options parse with default SUPPRESS, so args holds just those given.
_OPTIONS = {
    "max_lp_vertices": ("--max-lp-vertices", int, DEFAULT_MAX_LP_VERTICES,
                        "cap on the vertices of a graph whose chi_f LP is solved; "
                        "exit 2 above it"),
    "c": ("-c", int, 3, "palette size"),
    "f": ("--f VALUES", str, None, "first map values, comma separated"),
    "g": ("--g VALUES", str, None, "second map values, comma separated"),
    "vertex": ("-v --vertex", int, 0, "center vertex"),
    "q": ("-q", int, 1, "blow-up factor"),
    "t": ("-t COLOR", int, None,
          "a color of the secondary block 2q..4q+1: mu's value at distance 3 or more, "
          "theta's within distance 1, where it defaults to 2q"),
    "b": ("-b COLOR", int, None,
          "theta's color beyond distance 1: a color of the secondary block other than t, "
          "by default 2q+1 (2q if t is 2q+1)"),
    "max_exp_vertices": ("--max-exp-vertices", int, DEFAULT_MAX_EXP_VERTICES,
                         "cap on the maps of K_c^G, its vertices; exit 2 above it"),
    "max_exp_edges": ("--max-exp-edges", int, DEFAULT_MAX_EXP_EDGES,
                      "cap on the edges of K_c^G; exit 2 above it"),
    "coloring": ("--coloring FILE", str, None, "coloring JSON file"),
    "set_coloring": ("--set-coloring FILE", str, None, "set-coloring JSON file"),
    "seed": ("--seed", int, 7, "seed of the suites' random instances"),
    "mask_timing": ("--mask-timing", bool, False,
                    "write each claim's time as 0 (obj) or - (text), so equal seeds "
                    "give equal bytes"),
    "format": ("--format", str, None,  # a kind's default is its first format
               "output format; the default is text, or obj where the kind writes only obj"),
    "one_based": ("--one-based", bool, False,
                  "display vertices/colors 1-based (storage stays 0-based)"),
}
_DRAWN = ("text obj dot", "one_based")  # a kind that writes a graph or digraph

# command -> kind -> (fewest, most, what) params, the formats it writes and
# the options it uses (! marks a required one); gen and dgen add the builder
# that makes the kind's graph or digraph from the parsed args. hom's one kind
# has no name, and verify's is the optional word 'suite'.
_KINDS = {
    "gen": {
        "named": (1, 1, "a catalog name", *_DRAWN, lambda a: _graphs().named(a.params[0])),
        "complete": (1, 1, "n", *_DRAWN, lambda a: _graphs().complete_graph(_int(a, 0, "n"))),
        "cycle": (1, 1, "n", *_DRAWN, lambda a: _graphs().cycle(_int(a, 0, "n"))),
        "kneser": (2, 2, "m and k", *_DRAWN,
                   lambda a: _graphs().kneser(_int(a, 0, "m"), _int(a, 1, "k"))),
        "circ": (2, 2, "p and q", *_DRAWN,
                 lambda a: _graphs().circular_clique(_int(a, 0, "p"), _int(a, 1, "q"))),
        "blowup": (1, 2, "q and an optional input file", *_DRAWN,  # q before reading stdin
                   lambda a: _graphs().blowup(q=_int(a, 0, "q"), g=_load_graph(_file(a.params, 1)))),
        "product": (2, 2, "two input files", *_DRAWN,
                    lambda a: _graphs().tensor_product(*map(_load_graph, a.params))),
        "loops": (0, 1, _FILE, *_DRAWN,
                  lambda a: _graphs().add_loops(_load_graph(_file(a.params)))),
    },
    "dgen": {
        "complete": (1, 1, "n", *_DRAWN, lambda a: _graphs().complete_digraph(_int(a, 0, "n"))),
        "parse": (0, 1, _FILE, *_DRAWN, lambda a: _load_digraph(_file(a.params))),
    },
    "invariant": {
        "chi": (0, 1, _FILE, "text obj", ""),
        "chif": (0, 1, _FILE, "text obj", "max_lp_vertices"),
        "alpha": (0, 1, _FILE, "text", ""),
        "girth": (0, 1, _FILE, "text", ""),
        "dist": (1, 2, "a source vertex and an optional input file", "text", "one_based"),
    },
    "hom": {"": (2, 2, "two input files G and H", "text", "one_based")},
    "exp": {
        "materialize": (0, 1, _FILE, _DRAWN[0], "c max_exp_vertices max_exp_edges one_based"),
        "adjacent": (0, 1, _FILE, "text", "c f! g!"),
        "mu": (0, 1, _FILE, "text obj", "vertex q t! one_based"),
        "theta": (0, 1, _FILE, "text obj", "vertex q t b one_based"),
        "verify-mu-clique": (0, 1, _FILE, "text obj", "vertex q"),
    },
    "shift": {
        "build": (0, 1, _FILE, *_DRAWN),
        "down": (0, 1, _FILE, "obj", "coloring!"),
        "up": (0, 1, _FILE, "obj", "set_coloring!"),
        "schelp": (0, 0, "no positionals", "text", "one_based"),
        "functoriality": (1, 2, _TWO_FILES, "text", ""),
        "bounds": (0, 1, _FILE, "obj", ""),
        "chain": (1, 2, _TWO_FILES, "obj", ""),
    },
    "verify": {"suite": (0, 1, "an optional suite name (default all)", "text obj",
                         "seed mask_timing")},
}


def _uses(command: str, kind: str) -> dict[str, bool]:
    """The options the kind uses, each mapped to whether it is required."""
    formats, options = _KINDS[command][kind][3:5]
    options += "" if formats == "text" else " format"  # a text-only kind takes no --format
    return {o.rstrip("!"): o.endswith("!") for o in options.split()}


def _params(args) -> list[str]:
    """The kind's params, once they and the options given fit the kind."""
    fewest, most, what, formats = _KINDS[args.command][args.kind][:4]
    name, uses = f"{args.command} {args.kind}".rstrip(), _uses(args.command, args.kind)
    if not fewest <= len(args.params) <= most:
        raise _UsageError(f"{name} takes {what}, got {args.params}")
    for dest, (flags, _, default, _) in _OPTIONS.items():
        if dest in args and dest not in uses:
            raise _UsageError(f"{name} does not use {flags}")
        if dest not in args and uses.get(dest):
            raise _UsageError(f"{name} needs {flags}")
        vars(args).setdefault(dest, formats.split()[0] if dest == "format" else default)
    if args.format not in formats.split():
        raise _UsageError(f"{name} does not write --format {args.format}")
    if args.one_based and args.format == "obj":
        raise _UsageError(f"{name} --one-based: obj output is always 0-based")
    return args.params


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    """gen and dgen: build the kind's graph or digraph and emit it."""
    _params(args)
    _emit_graph(_KINDS[args.command][args.kind][5](args), args)
    return 0


def _cmd_invariant(args) -> int:
    p = _params(args)
    if args.kind == "dist":
        vertex = _int(args, 0, "source vertex")
        p.pop(0)
    g = _load_graph(_file(p))
    if args.kind in ("chi", "alpha", "girth"):  # chif and dist need no solver
        from . import solvers
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
        off = 1 if args.one_based else 0
        if not 0 <= vertex - off < g.n:  # named as given, not as shifted
            raise ValueError(f"vertex {vertex} out of range for n={g.n}" + " (1-based)" * off)
        dist = _graphs().distances(g, vertex - off)
        print(" ".join("inf" if d == float("inf") else str(d) for d in dist))
    return 0


def _cmd_hom(args) -> int:
    from . import solvers

    g, h = (_load_graph(path) for path in _params(args))
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

    g = _load_graph(_file(_params(args)))
    if args.kind == "materialize":
        ctx = exponential.ExpContext(g, args.c)
        expo = exponential.materialize_exponential(
            ctx, args.max_exp_vertices, args.max_exp_edges
        )
        _emit_graph(expo, args)
        return 0
    if args.kind == "adjacent":
        ctx = exponential.ExpContext(g, args.c)
        f = exponential.ExpMap(ctx, _parse_values(args.f))
        gm = exponential.ExpMap(ctx, _parse_values(args.g))
        print("true" if exponential.exp_adjacent(f, gm) else "false")
        return 0
    if args.kind in ("mu", "theta"):
        if args.kind == "mu":
            m = exponential.shitov_mu(g, args.vertex, args.q, args.t)
        else:
            m = exponential.shitov_theta(g, args.vertex, args.q, b=args.b, t=args.t)
        if args.format == "obj":
            _emit_obj(
                {"base": g, "q": args.q, "c": m.ctx.c, "values": m.values,
                 "simple": exponential.is_simple(m, args.q)}
            )
        else:
            off = 1 if args.one_based else 0
            print(" ".join(str(v + off) for v in m.values))
        return 0
    # verify-mu-clique
    report = exponential.verify_mu_clique(g, args.vertex, args.q)
    if args.format == "obj":
        _emit_obj(report)
    else:
        print(f"pass: {str(report.passed).lower()} ({report.pairs_checked} pairs)")
        for t, tp, edge, value in report.violations:
            print(f"violation: t={t} t'={tp} edge={edge} shared={value}")
    return 0 if report.passed else 3


def _cmd_shift(args) -> int:
    from . import arcshift

    p = _params(args)
    if args.kind == "schelp":
        from . import solvers

        coloring = arcshift.schelp_coloring()
        triples = arcshift.schelp_triples()
        off = 1 if args.one_based else 0
        for (i, j, k), color in zip(triples, coloring.colors):
            print(f"{i + off} {j + off} {k + off} -> {color + off}")
        proper = solvers.is_proper_coloring(arcshift._schelp_shift()[0], coloring)
        print(f"{coloring.colors_used()} colors, proper: {str(proper).lower()}")
        return 0
    d = _load_digraph(_file(p))  # every other kind reads a digraph, and two take a second
    if args.kind == "build":
        shifted, arcs = arcshift.arc_shift(d)
        if args.format == "obj":
            _emit_obj({"shift": shifted, "arc_index": arcs})
        else:
            _emit_graph(shifted, args)
    elif args.kind == "down":
        from . import objects

        coloring = objects.coloring_from_obj(_parse_obj(_read_text(args.coloring)))
        _emit_obj(arcshift.coloring_down(d, coloring))
    elif args.kind == "up":
        from . import objects

        sc = objects.set_coloring_from_obj(_parse_obj(_read_text(args.set_coloring)))
        _emit_obj(arcshift.coloring_up(d, sc))
    elif args.kind == "functoriality":
        print("true" if arcshift.functoriality_check(d, _load_digraph(_file(p, 1))) else "false")
    elif args.kind == "bounds":
        _emit_obj(arcshift.lemma_rel_bounds_check(d))
    else:  # chain
        _emit_obj(arcshift.bound_chain_instance(d, _load_digraph(_file(p, 1))))
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
    """Give p the arguments of one subcommand, in the order its help lists them.

    Its options are those its kinds use; an option's help names them unless all do.
    """
    p.set_defaults(command=command, func=_COMMANDS[command][0])
    kinds = _KINDS[command]
    if len(kinds) > 1:
        p.add_argument("kind", choices=list(kinds))
        by_text: dict[str, list[str]] = {}  # kinds with equal text are named once
        for kind, entry in kinds.items():
            by_text.setdefault(entry[2], []).append(kind)
        what = "; ".join(f"{', '.join(names)}: {text}" for text, names in by_text.items())
    else:
        [(kind, entry)] = kinds.items()
        p.set_defaults(kind=kind)
        what = f"the optional word {kind!r}, then {entry[2]}" if kind else entry[2]
    p.add_argument("params", nargs="*", help=what)
    for dest, (flags, type_, _, text) in _OPTIONS.items():
        users = [kind for kind in kinds if dest in _uses(command, kind)]
        if not users:
            continue
        if len(users) < len(kinds):
            text = f"{text} ({', '.join(users)})".lstrip()
        settings = {"action": "store_true"} if type_ is bool else {"type": type_}
        names = flags.split()
        if names[-1][0] != "-":  # the word after the flags names the value
            settings["metavar"] = names.pop()
        if dest == "format":  # every format some kind of the command writes
            formats = " ".join(kinds[kind][3] for kind in users).split()
            settings["choices"] = list(dict.fromkeys(formats))
        p.add_argument(*names, dest=dest,
                       default=argparse.SUPPRESS, help=text, **settings)


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
        if bad:
            raise _UsageError(f"unrecognized arguments: {' '.join(bad)}")
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
