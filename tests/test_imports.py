"""Which prodcolor modules a cold import or CLI stage loads, and the lazy package surface."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import prodcolor

SRC = os.path.dirname(os.path.dirname(prodcolor.__file__))

# runs one CLI command, then reports on stderr's last line its exit code, whether
# it loaded the standard library's fractions (which pulls in decimal and numbers),
# json, dataclasses, inspect and heapq, and the prodcolor.* modules it loaded
_CHILD = """
import sys
from prodcolor.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("prodcolor."))
stdlib = [m in sys.modules for m in ("fractions", "json", "dataclasses", "inspect", "heapq")]
print(code, *stdlib, *loaded, file=sys.stderr)
"""

# every stage reads or writes a graph through the value types of _graph; the
# catalog and constructions of graphs load only where a stage builds a graph
# (gen) or a layer it runs imports them (arcshift)
READ = {"_graph", "_record", "cli", "errors", "serialize"}
GEN = READ | {"graphs"}
CHI = READ | {"solvers"}
# the object form, which only a stage that reads or writes an object imports,
# and the private module that solvers import on first use
OBJ = "objects"
MIS = "_independent_sets"
ALL = {p.stem for p in Path(prodcolor.__file__).parent.glob("*.py")} - {"__init__", "__main__"}

C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
C5_OBJ = '{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}'
DIGON = "2 2\n0 -> 1\n1 -> 0\n"
DIGON_SHIFT_COLORING = '{"colors": [0, 1], "k": 2}'


def _child(args: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
    )


def test_import_loads_no_layer():
    code = "import prodcolor, sys; print(*[m for m in sys.modules if m.startswith('prodcolor.')])"
    proc = _child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize(
    "argv, stdin, expected, fractions, json",
    [
        (["gen", "named", "petersen"], "", GEN, False, False),
        (["invariant", "chi"], C5, CHI, False, False),
        (["invariant", "chi", "--format", "obj"], C5, CHI | {OBJ}, False, True),
        (["invariant", "chi"], C5_OBJ, CHI | {OBJ}, False, True),  # a JSON graph in
        (["invariant", "alpha"], C5, CHI | {MIS}, False, False),  # alpha never looks for symmetry
        (["invariant", "girth"], C5, CHI, False, False),
        (["hom", "C5", "C5"], "", CHI, False, False),
        # chi_f calls nothing in solvers, only the private independent-set search
        (["invariant", "chif"], C5, READ | {MIS, "fractional", "simplex", "symmetry"}, True, False),
        (["exp", "materialize", "-c", "2"], C5, READ | {"exponential"}, False, False),
        # arcshift imports the operators of graphs; the solvers load only where
        # a stage searches or, as schelp does, checks a coloring
        (["shift", "build"], DIGON, GEN | {"arcshift"}, False, False),
        (["shift", "down", "--coloring", "COLORING"], DIGON, GEN | {"arcshift", OBJ}, False, True),
        (["shift", "schelp"], "", GEN | {"arcshift", "solvers"}, False, False),
        # a text report encodes no object and writes no JSON
        (["verify", "suite", "products"], "", ALL - {OBJ}, True, False),
    ],
    ids=["gen", "chi", "chi-obj", "chi-obj-in", "alpha", "girth", "hom", "chif", "exp", "shift",
         "shift-down", "shift-schelp", "verify"],
)
def test_cli_stage_loads_only_its_layers(tmp_path, argv, stdin, expected, fractions, json):
    # text stages parse and print no JSON, so they load no json and no object
    # forms; only alpha, chif and verify search for an independent set
    c5, coloring = tmp_path / "c5.txt", tmp_path / "coloring.json"
    c5.write_text(C5)
    coloring.write_text(DIGON_SHIFT_COLORING)
    argv = [{"C5": str(c5), "COLORING": str(coloring)}.get(a, a) for a in argv]
    proc = _child(["-c", _CHILD, *argv], stdin)
    code, loaded_fractions, loaded_json, dataclasses, inspect, heapq, *loaded = (
        proc.stderr.splitlines()[-1].split())
    assert code == "0", proc.stderr
    assert set(loaded) == expected
    assert loaded_fractions == str(fractions)
    assert loaded_json == str(json)
    # records are built by prodcolor._record, so no stage pays for dataclasses' inspect
    assert (dataclasses, inspect) == ("False", "False")
    # the searches pick on vertex masks, not on heaps
    assert heapq == "False"


# each stage README's compiled-lines table names, as the child probe runs it
TABLE_STAGES = {
    "gen named petersen": (["gen", "named", "petersen"], ""),
    "invariant chi": (["invariant", "chi"], C5),
    "invariant girth": (["invariant", "girth"], C5),
    "hom": (["hom", "C5", "C5"], ""),
    "invariant alpha": (["invariant", "alpha"], C5),
    "invariant chif": (["invariant", "chif"], C5),
    "exp materialize": (["exp", "materialize", "-c", "2"], C5),
    "shift build": (["shift", "build"], DIGON),
}


def test_readme_compiled_lines_table_counts_the_modules_each_stage_loads(tmp_path):
    # a row's "after" figure is the lines of the prodcolor modules its stages
    # load, __init__ included
    c5 = tmp_path / "c5.txt"
    c5.write_text(C5)
    package = Path(prodcolor.__file__).parent
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [(re.findall(r"`([^`]+)`", cell), after)
            for cell, after in re.findall(r"^\| (`.+`) \| [\d,]+ \| ([\d,]+) \|$", readme, re.M)]
    assert sorted(stage for stages, _ in rows for stage in stages) == sorted(TABLE_STAGES)
    for stages, after in rows:
        for stage in stages:
            argv, stdin = TABLE_STAGES[stage]
            proc = _child(["-c", _CHILD, *(str(c5) if a == "C5" else a for a in argv)], stdin)
            report = proc.stderr.splitlines()[-1].split()  # code, 5 stdlib flags, modules
            assert report[0] == "0", proc.stderr
            loaded = report[6:]
            lines = sum(
                len((package / f"{m}.py").read_text(encoding="utf-8").splitlines())
                for m in ("__init__", *loaded)
            )
            assert f"{lines:,}" == after, stage


# the public names of graphs before Graph and Digraph moved to _graph
GRAPHS_NAMES = (
    "CATALOG", "Digraph", "Graph", "add_loops", "blowup", "circular_clique", "complete_digraph",
    "complete_graph", "cycle", "digraph_product", "distances", "kneser", "kneser_subsets",
    "named", "pair_index", "reverse", "tensor_product", "underline",
)


def test_graphs_keeps_every_public_name_and_the_types_are_defined_once():
    from prodcolor import _graph, graphs

    assert set(GRAPHS_NAMES) <= set(dir(graphs))
    for name in ("Graph", "Digraph"):
        assert getattr(graphs, name) is getattr(_graph, name) is getattr(prodcolor, name)
        assert getattr(_graph, name).__module__ == "prodcolor._graph"
    from prodcolor.graphs import Graph, kneser  # the import users have written all along

    assert isinstance(kneser(5, 2), Graph)


def test_solvers_keeps_the_witness_records_and_they_are_defined_once():
    from prodcolor import _graph, solvers

    for name in ("Coloring", "HomMap"):
        assert getattr(solvers, name) is getattr(_graph, name) is getattr(prodcolor, name)
        assert getattr(_graph, name).__module__ == "prodcolor._graph"
    from prodcolor.solvers import Coloring, HomMap  # the import users have written all along

    assert Coloring((0, 1, 0), 2).colors_used() == 2 and HomMap((1, 0)).mapping == (1, 0)


def test_every_public_name_is_its_home_modules_attribute():
    for name in prodcolor.__all__:
        home = importlib.import_module(f"prodcolor.{prodcolor._HOME[name]}")
        assert getattr(prodcolor, name) is getattr(home, name), name


def test_dir_lists_all_and_unknown_names_raise():
    assert set(prodcolor.__all__) <= set(dir(prodcolor))
    with pytest.raises(AttributeError, match="no_such_name"):
        prodcolor.no_such_name  # noqa: B018
