from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest

from prodcolor import cli, objects, simplex
from prodcolor.graphs import complete_digraph, kneser, named
from prodcolor.objects import coloring_from_obj, fractional_coloring_from_obj
from prodcolor.serialize import parse_digraph, parse_graph, serialize_digraph, serialize_graph
from prodcolor.solvers import is_proper_coloring


def run(capsys, *argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_named(capsys):
    code, out, _ = run(capsys, "gen", "named", "heawood")
    assert code == 0
    assert parse_graph(out) == named("heawood")
    _, k4_named, _ = run(capsys, "gen", "named", "k4")
    _, k4_complete, _ = run(capsys, "gen", "complete", "4")
    assert k4_named == k4_complete


def test_gen_kneser_pipe_invariant_chi(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "kneser", "5", "2")
    assert code == 0
    code, out, _ = run(capsys, "invariant", "chi", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "3"


def test_invariant_chif(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    code, out, _ = run(capsys, "invariant", "chif", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "5/2"


def test_invariant_chi_witness_ignores_edge_line_order(capsys, monkeypatch):
    # one edge set in two line orders parses to equal graphs, so it gets one
    # coloring; peeling in the edge set's order once gave these two
    body = ["0 2", "2 5", "2 6", "2 7", "3 5", "3 6", "4 6", "4 7", "4 8", "6 8", "7 8"]
    outs = []
    for lines in (body, body[::-1]):
        text = "\n".join(["9 11", *lines]) + "\n"
        code, out, _ = run(capsys, "invariant", "chi", "--format", "obj",
                           stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == (
        '{"coloring": {"colors": [1, 0, 0, 0, 1, 1, 2, 2, 0], "k": 3}, "value": 3}\n'
    )


def test_invariant_alpha_girth_dist(capsys, monkeypatch, tmp_path):
    gfile = tmp_path / "petersen.txt"
    gfile.write_text(serialize_graph(named("petersen")))
    code, out, _ = run(capsys, "invariant", "alpha", str(gfile))
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "invariant", "girth", str(gfile))
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "invariant", "dist", "0", str(gfile))
    assert code == 0
    assert out == "0 1 2 2 1 1 2 2 2 2\n"
    # a 1-based source vertex 1 is vertex 0; an out-of-range one is named as given
    assert run(capsys, "invariant", "dist", "1", "--one-based", str(gfile)) == (0, out, "")
    for argv, err in [
        (["0", "--one-based"], "vertex 0 out of range for n=10 (1-based)"),
        (["11", "--one-based"], "vertex 11 out of range for n=10 (1-based)"),
        (["10"], "vertex 10 out of range for n=10"),
    ]:
        assert run(capsys, "invariant", "dist", *argv, str(gfile)) == (1, "", f"error: {err}\n")


def test_gen_product_and_blowup(capsys, monkeypatch, tmp_path):
    k2 = tmp_path / "k2.txt"
    code, out, _ = run(capsys, "gen", "complete", "2")
    k2.write_text(out)
    code, out, _ = run(capsys, "gen", "product", str(k2), str(k2))
    assert code == 0
    g = parse_graph(out)
    assert g.n == 4 and len(g.edges) == 2
    code, out, _ = run(capsys, "gen", "blowup", "2", str(k2))
    assert code == 0
    assert parse_graph(out).n == 4


def test_gen_loops_roundtrip(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    code, out, _ = run(capsys, "gen", "loops", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert parse_graph(out).loops == frozenset(range(5))


def test_gen_obj_format(capsys):
    code, out, _ = run(capsys, "gen", "complete", "3", "--format", "obj")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and len(obj["edges"]) == 3


def test_gen_dot_format(capsys):
    code, out, _ = run(capsys, "gen", "complete", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {") and "0 -- 1;" in out


def test_one_based_display(capsys):
    code, out, _ = run(capsys, "gen", "complete", "2", "--one-based")
    assert code == 0
    assert "1 2" in out


def test_dgen_and_shift_build(capsys, monkeypatch):
    code, out, _ = run(capsys, "dgen", "complete", "2")
    assert code == 0
    assert parse_digraph(out).arcs == frozenset({(0, 1), (1, 0)})
    code, out, _ = run(capsys, "shift", "build", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    shifted = parse_digraph(out)
    assert shifted.n == 2 and len(shifted.arcs) == 2


def test_shift_schelp(capsys):
    code, out, _ = run(capsys, "shift", "schelp")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 37
    assert lines[-1] == "3 colors, proper: true"


@pytest.mark.parametrize(
    "flags, sha",
    [
        ([], "365494a75dc95799ecbd4e3d659077ab3e050fd00a2a30b9bd462316ecf02ef9"),
        (["--one-based"], "d8b5ebd7393cae5708650e1ea1afaaa1a33e72d4936a46dae595e646aee04881"),
    ],
)
def test_shift_schelp_bytes_are_pinned(capsys, flags, sha):
    import hashlib

    code, out, _ = run(capsys, "shift", "schelp", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_shift_bounds(capsys, monkeypatch):
    code, out, _ = run(capsys, "dgen", "complete", "4")
    code, out, _ = run(capsys, "shift", "bounds", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    obj = json.loads(out)
    assert obj == {"chi_d": 4, "chi_shift": 4, "lower": 2, "upper": 4, "passed": True}


def test_shift_chain_and_functoriality(capsys, tmp_path):
    d = tmp_path / "d.txt"
    run(capsys, "dgen", "complete", "3")
    out = capsys.readouterr()
    # regenerate to a file for the two-argument commands
    code, text, _ = run(capsys, "dgen", "complete", "3")
    d.write_text(text)
    code, out, _ = run(capsys, "shift", "chain", str(d), str(d))
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    code, out, _ = run(capsys, "shift", "functoriality", str(d), str(d))
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("kind", ["functoriality", "chain"])
def test_shift_two_digraph_kinds_read_a_missing_second_file_from_stdin(
    capsys, monkeypatch, tmp_path, kind
):
    _, text, _ = run(capsys, "dgen", "complete", "3")
    d = tmp_path / "d.txt"
    d.write_text(text)
    _, both_files, _ = run(capsys, "shift", kind, str(d), str(d))
    code, out, _ = run(capsys, "shift", kind, str(d), stdin=text, monkeypatch=monkeypatch)
    assert code == 0 and out == both_files
    # with no file both digraphs would be stdin, so the form is a usage error
    code, out, err = run(capsys, "shift", kind, stdin=text, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.strip() == (
        f"shift {kind} takes one or two input files (a missing second one is stdin), got []"
    )


def test_shift_down_and_up(capsys, monkeypatch, tmp_path):
    dfile = tmp_path / "digon.txt"
    code, text, _ = run(capsys, "dgen", "complete", "2")
    dfile.write_text(text)
    coloring = tmp_path / "col.json"
    coloring.write_text(json.dumps({"k": 2, "colors": [0, 1]}))
    code, out, _ = run(capsys, "shift", "down", str(dfile), "--coloring", str(coloring))
    assert code == 0
    obj = json.loads(out)
    assert obj["sets"] == [[0], [1]]
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({"k": 2, "sets": [[0], [1]]}))
    code, out, _ = run(capsys, "shift", "up", str(dfile), "--set-coloring", str(sets))
    assert code == 0
    assert json.loads(out) == {"k": 2, "colors": [1, 0]}


def test_exp_materialize_and_adjacent(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "complete", "2")
    k2_text = out
    code, out, _ = run(
        capsys, "exp", "materialize", "-c", "2", stdin=k2_text, monkeypatch=monkeypatch
    )
    assert code == 0
    g = parse_graph(out)
    assert g.n == 4 and g.edges == frozenset({(0, 3)}) and g.loops == frozenset({1, 2})
    code, out, _ = run(
        capsys,
        "exp", "adjacent", "-c", "2", "--f", "0,0", "--g", "1,1",
        stdin=k2_text, monkeypatch=monkeypatch,
    )
    assert code == 0 and out.strip() == "true"


def test_exp_mu_theta_verify(capsys, monkeypatch, tmp_path):
    hw = tmp_path / "heawood.txt"
    hw.write_text(serialize_graph(named("heawood")))
    code, out, _ = run(capsys, "exp", "mu", str(hw), "-v", "0", "-q", "1", "-t", "2")
    assert code == 0
    values = [int(t) for t in out.split()]
    assert len(values) == 14 and values[0] == 0
    code, out, _ = run(capsys, "exp", "theta", str(hw), "-v", "0", "-q", "1")
    assert code == 0
    assert set(int(t) for t in out.split()) == {2, 3}
    code, out, _ = run(capsys, "exp", "verify-mu-clique", str(hw), "-v", "0", "-q", "1")
    assert code == 0
    assert out.startswith("pass: true (6 pairs)")


def test_hom(capsys, tmp_path):
    c5 = tmp_path / "c5.txt"
    k3 = tmp_path / "k3.txt"
    code, text, _ = run(capsys, "gen", "cycle", "5")
    c5.write_text(text)
    code, text, _ = run(capsys, "gen", "complete", "3")
    k3.write_text(text)
    code, out, _ = run(capsys, "hom", str(c5), str(k3))
    assert code == 0
    assert len(out.split()) == 5
    code, out, _ = run(capsys, "hom", str(k3), str(c5))
    assert code == 0 and out.strip() == "none"


def test_verify_suite(capsys):
    code, out, err = run(
        capsys, "verify", "suite", "fractional", "--seed", "7", "--format", "obj",
        "--mask-timing",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["claim_id"] == "frac-hedetniemi"
    assert reports[0]["status"] == "pass"


def test_verify_table_output(capsys):
    code, out, _ = run(capsys, "verify", "exponential")
    assert code == 0
    assert "es-k3" in out and "pass" in out


def test_verify_deterministic_output(capsys):
    code, a, _ = run(capsys, "verify", "suite", "fractional", "--format", "obj",
                     "--mask-timing")
    code, b, _ = run(capsys, "verify", "suite", "fractional", "--format", "obj",
                     "--mask-timing")
    assert a == b


def test_verify_claim_failure_exit_code(capsys, monkeypatch):
    from prodcolor import harness

    def fake_run(name, cfg):
        return [harness.ClaimReport("fake", {}, False, "fail", None, 0.0)]

    monkeypatch.setattr(harness, "run_suite", fake_run)
    code, out, err = run(capsys, "verify", "suite", "all")
    assert code == 3
    assert "failed" in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "gen", "mystery")
    assert code == 1
    code, _, err = run(capsys, "invariant", "chi", "/nonexistent/file.txt")
    assert code == 1
    code, _, err = run(capsys, "exp", "adjacent")
    assert code == 1 and "--f" in err
    code, _, err = run(capsys, "verify", "--jobs", "2")
    assert code == 1 and "--jobs" in err
    code, _, err = run(capsys, "verify", "--max-exp-pairs", "5")
    assert code == 1 and "--max-exp-pairs" in err
    # the suite runs at the default caps, and verify has no 1-based or dot output
    for option in (
        ["--max-lp-vertices", "50"],
        ["--max-exp-vertices", "10"],
        ["--max-exp-edges", "10"],
        ["--one-based"],
        ["--format", "dot"],
    ):
        code, out, err = run(capsys, "verify", "products", *option)
        assert code == 1 and option[0] in err and out == ""


def test_parse_error_exit_1(capsys, monkeypatch):
    code, _, err = run(capsys, "invariant", "chi", stdin="2 1\n0 5\n", monkeypatch=monkeypatch)
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["invariant", "chi"], '{"edges": []}', "missing key 'n'"),
        (["shift", "up", "--set-coloring", "SETS"], "3 0\n", "missing key 'sets'"),
        (["invariant", "chi"], '{"n": 3, "edges": [[0, 1, 2]]}',
         "edges[0] must be a list of 2 integers, got [0, 1, 2]"),
        (["invariant", "chi"], '{"n": 3, "edges": 5}', "edges must be a list, got int"),
        # a misspelt key is refused, not dropped: read as no loops, this graph has chi 2
        (["invariant", "chi"], '{"n": 2, "edges": [[0, 1]], "loop": [0]}', "unknown key 'loop'"),
        (["shift", "up", "--set-coloring", "SIZED"], "2 0\n", "unknown key 'size'"),
    ],
    ids=[
        "graph-without-n", "set-coloring-without-sets", "edge-of-three", "edges-not-a-list",
        "misspelt-loops", "set-coloring-with-size",
    ],
)
def test_malformed_json_input_exit_1(capsys, monkeypatch, tmp_path, argv, stdin, message):
    sets, sized = tmp_path / "sets.json", tmp_path / "sized.json"
    sets.write_text('{"k": 2}')
    sized.write_text('{"k": 2, "sets": [[0], [1]], "size": 1}')
    argv = [{"SETS": str(sets), "SIZED": str(sized)}.get(a, a) for a in argv]
    code, _, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 1
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        # the text reader names the header's line, as it names a repeated edge's
        (["gen", "loops"], "3 1 loops: 0 0\n0 1\n",
         "line 1: loop vertex 0 repeats in the loop list"),
        # an edge is unordered, so its reverse repeats it
        (["gen", "loops"], '{"n": 2, "edges": [[0, 1], [1, 0]]}', "edges[1] repeats edges[0]"),
        (["gen", "loops"], '{"n": 3, "loops": [2, 0, 2]}', "loops[2] repeats loops[0]"),
        (["dgen", "parse"], '{"n": 2, "arcs": [[0, 1], [1, 0], [0, 1]]}',
         "arcs[2] repeats arcs[0]"),
    ],
    ids=["text-loop", "obj-edge", "obj-loop", "obj-arc"],
)
def test_a_repeat_in_either_input_form_exits_1(capsys, monkeypatch, argv, stdin, message):
    code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == f"input error: {message}\n"


_PETERSEN, _K3_ARCS = serialize_graph(named("petersen")), serialize_digraph(complete_digraph(3))


def test_a_set_coloring_listing_a_member_twice_exits_1(capsys, monkeypatch, tmp_path):
    # read as sets, [1, 2, 1] would be {1, 2} and shift up would write a coloring
    sets = tmp_path / "sets.json"
    sets.write_text('{"k": 4, "sets": [[0], [1, 2, 1], [1, 3]]}')
    code, out, err = run(capsys, "shift", "up", "--set-coloring", str(sets), stdin=_K3_ARCS,
                         monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == "input error: sets[1][2] repeats sets[1][0]\n"


@pytest.mark.parametrize(
    "argv, stdin, key, read",
    [
        (["gen", "named", "grotzsch", "--format", "obj"], None, None, objects.graph_from_obj),
        (["gen", "loops", "--format", "obj"], serialize_graph(named("k3")), None,
         objects.graph_from_obj),
        (["shift", "build", "--format", "obj"], _K3_ARCS, "shift", objects.digraph_from_obj),
        (["exp", "mu", "-v", "0", "-q", "1", "-t", "2", "--format", "obj"],
         serialize_graph(named("heawood")), "base", objects.graph_from_obj),
        (["dgen", "complete", "3", "--format", "obj"], None, None, objects.digraph_from_obj),
        (["invariant", "chi", "--format", "obj"], _PETERSEN, "coloring", coloring_from_obj),
        (["shift", "up", "--set-coloring", "SETS"], _K3_ARCS, None, coloring_from_obj),
        (["shift", "down", "--coloring", "COLORS"], _K3_ARCS, None, objects.set_coloring_from_obj),
        (["invariant", "chif", "--format", "obj"], _PETERSEN, "coloring",
         fractional_coloring_from_obj),
    ],
    ids=[
        "gen", "gen-loops", "shift-build", "exp-mu-base", "dgen", "chi-coloring", "shift-up",
        "shift-down", "chif-coloring",
    ],
)
def test_objects_the_cli_writes_read_back(capsys, monkeypatch, tmp_path, argv, stdin, key, read):
    # the readers refuse unknown keys, so each of the five types reads back
    # from what the CLI writes, to the same object
    files = {
        "SETS": '{"k": 4, "sets": [[0], [1, 2], [1, 3]]}',
        "COLORS": '{"k": 3, "colors": [1, 2, 0, 2, 0, 1]}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, _ = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    obj = json.loads(out)
    obj = obj if key is None else obj[key]
    assert code == 0 and objects.to_obj(read(obj)) == obj


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["invariant", "dist", "x"], None, "invariant dist needs an integer source vertex"),
        (["exp", "adjacent", "-c", "2", "--f", "0,a", "--g", "1,1"], "2 1\n0 1\n",
         "bad value list '0,a'"),
        (["shift", "down"], None, "shift down needs --coloring FILE"),
        (["shift", "up"], None, "shift up needs --set-coloring FILE"),
        (["exp", "mu"], "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n", "exp mu needs -t COLOR"),
        (["gen", "complete", "x"], None, "gen complete needs an integer n"),
        (["gen", "cycle", "5.0"], None, "gen cycle needs an integer n"),
        (["gen", "kneser", "3", "x"], None, "gen kneser needs an integer k"),
        (["gen", "circ", "x", "2"], None, "gen circ needs an integer p"),
        (["gen", "blowup", "x"], None, "gen blowup needs an integer q"),
        (["dgen", "complete", "x"], None, "dgen complete needs an integer n"),
    ],
    ids=["dist-vertex", "adjacent-values", "down-coloring", "up-set-coloring", "mu-t",
         "complete-n", "cycle-n", "kneser-k", "circ-p", "blowup-q", "dcomplete-n"],
)
def test_bad_or_missing_option_value_exit_1(capsys, monkeypatch, argv, stdin, message):
    code, out, err = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["gen", "kneser", "5"], "gen kneser takes m and k"),
        (["gen", "named"], "gen named takes a catalog name"),
        (["gen", "cycle", "5", "6"], "gen cycle takes n"),
        (["dgen", "complete"], "dgen complete takes n"),
    ],
)
def test_gen_parameter_count_exit_1(capsys, argv, needs):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(needs)


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "build", "D", "/nonexistent/file"],
        ["shift", "down", "D", "D", "--coloring", "COL"],
        ["shift", "up", "D", "D", "--set-coloring", "SETS"],
        ["shift", "bounds", "D", "D"],
        ["shift", "schelp", "anything"],
        ["verify", "products", "nonsense"],
        ["hom", "C5", "C5", "C5"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_surplus_positional_exit_1(capsys, tmp_path, argv):
    # every such file exists and parses, so only the surplus can fail the call
    f = _files(tmp_path)
    paths = {"D": f["k3d"], "C5": f["c5"], "COL": f["col"], "SETS": f["sets"]}
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out) == (1, "")
    assert err


@pytest.mark.parametrize(
    "command, kind", [(c, k) for c, kinds in cli._KINDS.items() for k in kinds]
)
def test_one_positional_too_many_exit_1(capsys, command, kind):
    # verify's kind is its optional word 'suite', so its argv reads the same
    # way; hom's kind has no name, so its argv is just the files
    most = cli._KINDS[command][kind][1]
    name = f"{command} {kind}".rstrip()
    code, out, err = run(capsys, *name.split(), *["x"] * (most + 1))
    assert (code, out) == (1, "")
    assert err.startswith(f"{name} takes")


# ---------------------------------------------------------------------------
# each kind takes only the options it uses: a gate over cli._KINDS x cli._OPTIONS

_KIND_PAIRS = [(c, k) for c, kinds in cli._KINDS.items() for k in kinds]

# one call of each kind that succeeds; a name from _files stands for its path.
# An option in the call is checked by dropping it, and any other option the
# kind uses by adding it at its _AWAY value. verify's seed shows only in obj
# output, so its call writes obj
_CALLS = {
    ("gen", "named"): ["petersen"],
    ("gen", "complete"): ["3"],
    ("gen", "cycle"): ["5"],
    ("gen", "kneser"): ["5", "2"],
    ("gen", "circ"): ["5", "2"],
    ("gen", "blowup"): ["2", "c5"],
    ("gen", "product"): ["c5", "c5"],
    ("gen", "loops"): ["c5"],
    ("dgen", "complete"): ["3"],
    ("dgen", "parse"): ["dx"],
    ("invariant", "chi"): ["c5"],
    ("invariant", "chif"): ["c5"],
    ("invariant", "alpha"): ["c5"],
    ("invariant", "girth"): ["c5"],
    ("invariant", "dist"): ["1", "c5"],
    ("hom", ""): ["c5", "c5"],
    ("exp", "materialize"): ["c5"],
    ("exp", "adjacent"): ["c5", "--f", "0,1,0,1,2", "--g", "1,0,1,0,1"],
    ("exp", "mu"): ["c5", "-t", "4"],
    ("exp", "theta"): ["c5"],
    ("exp", "verify-mu-clique"): ["c5"],
    ("shift", "build"): ["k3d"],
    ("shift", "down"): ["k3d", "--coloring", "col"],
    ("shift", "up"): ["k3d", "--set-coloring", "sets"],
    ("shift", "schelp"): [],
    ("shift", "functoriality"): ["k3d", "dx"],
    ("shift", "bounds"): ["dx"],
    ("shift", "chain"): ["k3d", "dx"],
    ("verify", "suite"): ["products", "--mask-timing", "--format", "obj"],
}
# -c 2 refuses adjacent's value 2; the caps are below C5's sizes
_AWAY = {"max_lp_vertices": "2", "c": "2", "vertex": "1", "q": "2", "t": "3", "b": "4",
         "max_exp_vertices": "3", "max_exp_edges": "0", "seed": "8"}


def _flag(dest: str) -> str:
    return cli._OPTIONS[dest][0].split()[0]


def _given(dest: str, value: str) -> list[str]:
    """dest's flag with value, or alone for an on/off flag."""
    return [_flag(dest)] if cli._OPTIONS[dest][1] is bool else [_flag(dest), value]


def _without(call: list[str], dest: str) -> list[str]:
    i = call.index(_flag(dest))
    return call[:i] + call[i + len(_given(dest, "")):]


def test_every_kind_has_a_call():
    assert set(_CALLS) == set(_KIND_PAIRS)


@pytest.mark.parametrize("command, kind", _KIND_PAIRS)
def test_an_option_the_kind_does_not_use_exits_1(capsys, tmp_path, command, kind):
    # each is given at its default (--format at text), so counting by value
    # would miss it; the options of other commands fail in argparse instead
    files = _files(tmp_path)
    head = [command, *([kind] if kind else []), *[files.get(a, a) for a in _CALLS[command, kind]]]
    uses = cli._uses(command, kind)
    for dest, (_, _, default, _) in cli._OPTIONS.items():
        if dest not in uses:
            value = "text" if dest == "format" else str(1 if default is None else default)
            code, out, err = _outcome(capsys, [*head, *_given(dest, value)])
            assert (code, out) == (1, ""), dest
            assert _flag(dest) in err


@pytest.mark.parametrize("command, kind", _KIND_PAIRS)
def test_each_option_the_kind_uses_changes_its_outcome(capsys, tmp_path, command, kind):
    files = _files(tmp_path)

    def outcome(call):
        argv = [command, *([kind] if kind else []), *[files.get(a, a) for a in call]]
        return _outcome(capsys, argv)

    call = _CALLS[command, kind]
    base = outcome(call)
    assert base[0] in (0, 3), base  # C5 fails the mu-clique check, and exits 3
    uses = cli._uses(command, kind)
    for dest, required in uses.items():
        if dest == "format":
            continue
        if _flag(dest) in call:
            changed = outcome(_without(call, dest))
            if required:
                assert changed[:2] == (1, "") and _flag(dest) in changed[2], dest
        else:
            changed = outcome([*call, *_given(dest, _AWAY.get(dest, ""))])
        assert changed != base, dest
    if "format" not in uses:
        return
    formats = cli._KINDS[command][kind][3].split()
    current = call[call.index("--format") + 1] if "--format" in call else formats[0]
    plain = _without(call, "format") if "--format" in call else call
    for fmt in {"text", "obj", "dot"} - {current}:
        code, out, err = changed = outcome([*plain, "--format", fmt])
        if fmt in formats:
            assert code == base[0] and changed != base, fmt
        else:  # a format the kind does not write
            assert (code, out) == (1, "") and "--format" in err, fmt
    if "one_based" in uses and "obj" in formats:  # obj output is always 0-based
        code, out, err = outcome([*plain, "--format", "obj", "--one-based"])
        assert (code, out) == (1, "") and "--one-based" in err


@pytest.mark.parametrize("dest", list(cli._OPTIONS))
def test_every_option_has_help(dest):
    assert cli._OPTIONS[dest][3].strip()


_REQUIRED = [(c, k, d) for c, k in _KIND_PAIRS for d, req in cli._uses(c, k).items() if req]


@pytest.mark.parametrize("command, kind, dest", _REQUIRED)
def test_a_missing_value_is_named_as_help_names_it(capsys, tmp_path, command, kind, dest):
    # the words after "needs" in the usage error, flag and value name, are
    # those the command's --help lists for the option
    import re

    files = _files(tmp_path)
    call = _without(_CALLS[command, kind], dest)
    code, out, err = _outcome(capsys, [command, kind, *[files.get(a, a) for a in call]])
    assert (code, out) == (1, "")
    prefix = f"{command} {kind} needs "
    assert err.startswith(prefix) and err.endswith("\n")
    needs = err[len(prefix):-1]
    assert needs == cli._OPTIONS[dest][0] and " " in needs
    code, help_text, _ = _outcome(capsys, [command, "--help"])
    assert code == ("SystemExit", 0)
    # the option's own line in the listing, where argparse never wraps it
    assert re.search(rf"^  {re.escape(needs)}(  |$)", help_text, re.M)


def test_readme_command_table_matches_kinds():
    # per (command, kind): {flag: required}, and the formats --format lists
    import re
    from pathlib import Path

    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Command line", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| subcommand"))
    table, command = {}, None
    for row in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        command = cells[0].strip("`") or command  # a blank cell continues the command above
        options = re.findall(r"`(-[^`]*)`( \(required\))?", cells[3])
        formats = [re.findall(r"\w+", spec.split(" ", 1)[1]) for spec, _ in options
                   if spec.startswith("--format")]
        entry = ({spec.split()[0]: bool(req) for spec, req in options}, formats)
        for kind in re.findall(r"`([^`]+)`", cells[1]) or list(cli._KINDS[command]):
            table[command, kind] = entry
    expected = {}
    for command, kind in _KIND_PAIRS:
        uses = cli._uses(command, kind)
        formats = [cli._KINDS[command][kind][3].split()] if "format" in uses else []
        expected[command, kind] = ({_flag(d): required for d, required in uses.items()}, formats)
    assert table == expected


def test_help_names_kinds_with_equal_positionals_once(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # argparse wraps help at hyphens too
    code, out, _ = _outcome(capsys, ["exp", "--help"])
    assert code == ("SystemExit", 0)
    text = " ".join(out.split())
    assert "materialize, adjacent, mu, theta, verify-mu-clique: an optional input file" in text
    assert text.count("an optional input file") == 1


@pytest.mark.parametrize(
    "argv", [[], ["gen"], ["dgen"], ["invariant"], ["hom"], ["exp"], ["shift"], ["verify"]]
)
def test_help_exits_0(capsys, argv):
    # argparse formats help strings only when asked, so a bad one shows only here
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: prodcolor", *argv]))


def _outcome(capsys, argv: list[str]) -> tuple:
    """The exit code (or SystemExit's code, as help raises it), stdout and stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "--help"] for command in cli._COMMANDS),
        [],
        ["--help"],
        ["nosuch", "chi"],
        ["invariant"],
        ["invariant", "nosuch"],
        ["invariant", "chi", "--bogus"],
        ["gen", "named", "petersen", "extra"],
        ["hom", "a", "b", "c"],
    ],
    ids=lambda argv: "-".join(argv) or "none",
)
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    built = []
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or full())
    one = _outcome(capsys, argv)
    # the full parser is built only when argv[0] names no command
    assert bool(built) == (argv[:1] == [] or argv[0] not in cli._COMMANDS)
    monkeypatch.setattr(cli, "_parse", lambda argv: full().parse_known_args(argv))
    assert _outcome(capsys, argv) == one
    assert one[0] in (1, ("SystemExit", 0))


def test_cap_exceeded_exit_2(capsys, monkeypatch, tmp_path):
    hw = tmp_path / "heawood.txt"
    hw.write_text(serialize_graph(named("heawood")))
    code, _, err = run(capsys, "exp", "materialize", str(hw), "-c", "3")
    assert code == 2
    assert "cap" in err


def test_edge_cap_exit_2(capsys, monkeypatch):
    # K_3^{W5} has 729 maps, within the vertex cap, and 372 edges
    w5 = serialize_graph(named("w5"))
    code, _, err = run(
        capsys, "exp", "materialize", "-c", "3", "--max-exp-edges", "10",
        stdin=w5, monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "372 edges exceed the max_edges cap of 10" in err


def test_simplex_iteration_guard_exit_2(capsys, monkeypatch):
    # invariant chif finds K(7,3)'s automorphisms, so its LP has one orbit row
    # and needs 2 iterations in all; a guard of 1 stops it at the second
    monkeypatch.setattr(simplex, "_ITERATION_GUARD", 1)
    code, out, err = run(
        capsys, "invariant", "chif", "--max-lp-vertices", "35",
        stdin=serialize_graph(kneser(7, 3)), monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert err == (
        "cap exceeded: simplex LP reached iteration 2, above the _ITERATION_GUARD cap of 1\n"
    )


def test_unknown_suite_exit_1(capsys):
    code, _, err = run(capsys, "verify", "suite", "bogus")
    assert code == 1
    assert "unknown suite" in err


def test_payload_only_on_stdout(capsys):
    code, out, err = run(capsys, "gen", "named", "petersen")
    assert code == 0
    assert err == ""
    assert parse_graph(out) is not None


def test_cross_process_determinism():
    import os
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "prodcolor",
        "verify", "suite", "exponential", "--format", "obj", "--mask-timing",
    ]
    runs = []
    for hashseed in ("1", "77"):
        env = {**os.environ, "PYTHONHASHSEED": hashseed}
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1] and runs[0]


def test_file_after_flags(capsys, tmp_path):
    # positional input given after options must still bind
    k4 = tmp_path / "k4.txt"
    code, text, _ = run(capsys, "gen", "complete", "4")
    k4.write_text(text)
    code, out, _ = run(capsys, "exp", "materialize", "-c", "3", str(k4))
    assert code == 0
    assert out.splitlines()[0] == "81 57" and parse_graph(out).n == 81
    code, out, _ = run(capsys, "invariant", "chif", "--max-lp-vertices", "40", str(k4))
    assert code == 0 and out.strip() == "4"
    d = tmp_path / "d.txt"
    code, text, _ = run(capsys, "dgen", "complete", "3")
    d.write_text(text)
    code, out, _ = run(capsys, "shift", "chain", "--format", "obj", str(d), str(d))
    assert code == 0 and json.loads(out)["passed"] is True
    code, _, err = run(capsys, "exp", "materialize", "--bogus-flag", str(k4))
    assert code == 1 and "bogus" in err


def test_import_loads_no_numpy():
    # the package has no runtime dependencies; a cold import must not pull numpy in
    import os
    import subprocess
    import sys

    import prodcolor

    src = os.path.dirname(os.path.dirname(prodcolor.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import prodcolor, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# exact --format obj bytes: one JSON line per command, keys sorted

C5_OBJ = '{"edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]], "loops": [], "n": 5}'


def _files(tmp_path) -> dict[str, str]:
    texts = {
        "c5": serialize_graph(named("c5")),
        "k3d": "3 6\n0 -> 1\n0 -> 2\n1 -> 0\n1 -> 2\n2 -> 0\n2 -> 1\n",
        "dx": "4 5\n0 -> 1\n1 -> 2\n2 -> 0\n2 -> 3\n3 -> 2\n",
        "col": '{"k": 3, "colors": [1, 2, 0, 2, 0, 1]}',
        "sets": '{"k": 3, "sets": [[0], [1], [2]]}',
        "unequal": '{"k": 4, "sets": [[0], [1, 2], [1, 3]]}',
    }
    paths = {}
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_gen_obj_bytes_with_loops(capsys, tmp_path):
    f = _files(tmp_path)
    code, out, _ = run(capsys, "gen", "loops", f["c5"], "--format", "obj")
    assert code == 0
    assert out == (
        '{"edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]], "loops": [0, 1, 2, 3, 4], "n": 5}\n'
    )
    code, out, _ = run(capsys, "gen", "cycle", "5", "--format", "obj")
    assert code == 0 and out == C5_OBJ + "\n"


def test_dgen_obj_bytes(capsys, monkeypatch, tmp_path):
    f = _files(tmp_path)
    code, out, _ = run(capsys, "dgen", "complete", "3", "--format", "obj")
    assert code == 0
    assert out == '{"arcs": [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]], "n": 3}\n'
    code, out, _ = run(capsys, "dgen", "parse", f["dx"], "--format", "obj")
    assert code == 0
    assert out == '{"arcs": [[0, 1], [1, 2], [2, 0], [2, 3], [3, 2]], "n": 4}\n'
    # an object read back, written as dot
    code, dot, _ = run(capsys, "dgen", "parse", "--format", "dot", stdin=out,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert dot == "digraph {\n" + "".join(f"  {v};\n" for v in range(4)) + "".join(
        f"  {x} -> {y};\n" for x, y in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]
    ) + "}\n"


def test_shift_obj_bytes(capsys, tmp_path):
    f = _files(tmp_path)
    code, out, _ = run(capsys, "shift", "build", f["k3d"], "--format", "obj")
    assert code == 0
    assert out == (
        '{"arc_index": [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]], '
        '"shift": {"arcs": [[0, 2], [0, 3], [1, 4], [1, 5], [2, 0], [2, 1], '
        '[3, 4], [3, 5], [4, 0], [4, 1], [5, 2], [5, 3]], "n": 6}}\n'
    )
    code, out, _ = run(capsys, "shift", "down", f["k3d"], "--coloring", f["col"],
                       "--format", "obj")
    assert code == 0
    assert out == '{"k": 3, "sets": [[1, 2], [0, 2], [0, 1]]}\n'
    code, out, _ = run(capsys, "shift", "up", f["k3d"], "--set-coloring", f["sets"],
                       "--format", "obj")
    assert code == 0
    assert out == '{"colors": [1, 2, 0, 2, 0, 1], "k": 3}\n'
    # sets of unequal sizes, each arc's head set not inside its tail set
    code, out, _ = run(capsys, "shift", "up", f["k3d"], "--set-coloring", f["unequal"],
                       "--format", "obj")
    assert code == 0
    assert out == '{"colors": [1, 1, 0, 3, 0, 2], "k": 4}\n'
    code, out, _ = run(capsys, "shift", "bounds", f["dx"], "--format", "obj")
    assert code == 0
    assert out == '{"chi_d": 3, "chi_shift": 3, "lower": 2, "passed": true, "upper": 3}\n'
    code, out, _ = run(capsys, "shift", "chain", f["k3d"], f["dx"], "--format", "obj")
    assert code == 0
    assert out == (
        '{"chi_product": 3, "chi_product_reversed": 3, '
        '"chi_underline_product": 3, "passed": true}\n'
    )


def test_exp_mu_theta_obj_bytes(capsys, tmp_path):
    f = _files(tmp_path)
    code, out, _ = run(capsys, "exp", "mu", f["c5"], "-q", "2", "-t", "5", "--format", "obj")
    assert code == 0
    assert out == (
        '{"base": ' + C5_OBJ + ', "c": 10, "q": 2, "simple": false, '
        '"values": [0, 1, 2, 3, 0, 1, 0, 1, 2, 3]}\n'
    )
    code, out, _ = run(capsys, "exp", "theta", f["c5"], "-q", "1", "--format", "obj")
    assert code == 0
    assert out == (
        '{"base": ' + C5_OBJ + ', "c": 6, "q": 1, "simple": true, "values": [2, 2, 3, 3, 2]}\n'
    )
    # fibers of two vertices each: "simple" reads every vertex of a fiber
    code, out, _ = run(capsys, "exp", "theta", f["c5"], "-q", "2", "--format", "obj")
    assert code == 0
    assert out == (
        '{"base": ' + C5_OBJ + ', "c": 10, "q": 2, "simple": true, '
        '"values": [4, 4, 4, 4, 5, 5, 5, 5, 4, 4]}\n'
    )


def test_exp_verify_mu_clique_obj_bytes(capsys, tmp_path):
    # C5 has girth 5, so every pair of mu maps shares a value on some edge
    f = _files(tmp_path)
    code, out, _ = run(capsys, "exp", "verify-mu-clique", f["c5"], "-q", "1",
                       "--format", "obj")
    assert code == 3  # a failing check exits 3, as verify does
    pairs = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
    violations = ", ".join(f"[{t}, {tp}, [[2, 0], [3, 0]], 0]" for t, tp in pairs)
    assert out == f'{{"pairs_checked": 6, "passed": false, "violations": [{violations}]}}\n'
    # the text form lists the same violations, one line each
    code, out, _ = run(capsys, "exp", "verify-mu-clique", f["c5"], "-q", "1")
    assert code == 3
    assert out == "pass: false (6 pairs)\n" + "".join(
        f"violation: t={t} t'={tp} edge=((2, 0), (3, 0)) shared=0\n" for t, tp in pairs
    )


def test_invariant_chif_obj_is_the_coloring_fields(capsys, tmp_path):
    f = _files(tmp_path)
    code, out, _ = run(capsys, "invariant", "chif", f["c5"], "--format", "obj")
    assert code == 0
    # the generators are found: a reflection and the rotation, so the LP has
    # one orbit row and {0, 2} at weight 5/2 covers it
    assert out == (
        '{"coloring": {"generators": [[0, 4, 3, 2, 1], [1, 2, 3, 4, 0]], "sets": [[0, 2]], '
        '"weights": [[5, 2]]}, "value": [5, 2]}\n'
    )
    witness = fractional_coloring_from_obj(json.loads(out)["coloring"])
    assert witness.value == Fraction(5, 2) and witness.covers(named("c5"))


def test_invariant_chi_obj_is_the_value_and_an_optimal_coloring(capsys, tmp_path):
    f = _files(tmp_path)
    code, out, _ = run(capsys, "invariant", "chi", f["c5"], "--format", "obj")
    assert code == 0
    assert out == '{"coloring": {"colors": [2, 1, 0, 1, 0], "k": 3}, "value": 3}\n'
    coloring = coloring_from_obj(json.loads(out)["coloring"])
    assert is_proper_coloring(named("c5"), coloring)
    code, out, _ = run(capsys, "invariant", "chi", f["c5"])
    assert code == 0 and out == "3\n"
    _, text, _ = run(capsys, "gen", "named", "grotzsch")
    (tmp_path / "grotzsch").write_text(text)
    code, out, _ = run(capsys, "invariant", "chi", str(tmp_path / "grotzsch"), "--format", "obj")
    obj = json.loads(out)
    assert code == 0 and obj["value"] == 4
    assert is_proper_coloring(named("grotzsch"), coloring_from_obj(obj["coloring"]))


def test_masked_suite_bytes_are_pinned(capsys):
    # the reproducibility contract: the same hash is checked under python -O in CI
    import hashlib

    code, out, _ = run(capsys, "verify", "suite", "all", "--format", "obj", "--mask-timing")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4796a5b1559a0df4e5c06a036683f377a7429d6a6fb1665656eecc3d15cc3ccb"
    )
