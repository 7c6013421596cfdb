from __future__ import annotations

import json

from prodcolor import cli
from prodcolor.graphs import named
from prodcolor.serialize import parse_digraph, parse_graph, serialize_graph


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


def test_invariant_alpha_girth_dist(capsys, monkeypatch, tmp_path):
    gfile = tmp_path / "petersen.txt"
    gfile.write_text(serialize_graph(named("petersen")))
    code, out, _ = run(capsys, "invariant", "alpha", str(gfile))
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "invariant", "girth", str(gfile))
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "invariant", "dist", "0", str(gfile))
    assert code == 0
    assert out.strip().startswith("0 1")


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
    sets.write_text(json.dumps({"k": 2, "size": 1, "sets": [[0], [1]]}))
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
    from prodcolor.harness import ClaimReport

    def fake_run(name, cfg):
        return [ClaimReport("fake", {}, False, "fail", None, 0.0)]

    monkeypatch.setattr(cli.harness, "run_suite", fake_run)
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


def test_parse_error_exit_1(capsys, monkeypatch):
    code, _, err = run(capsys, "invariant", "chi", stdin="2 1\n0 5\n", monkeypatch=monkeypatch)
    assert code == 1
    assert "line 2" in err


def test_cap_exceeded_exit_2(capsys, monkeypatch, tmp_path):
    hw = tmp_path / "heawood.txt"
    hw.write_text(serialize_graph(named("heawood")))
    code, _, err = run(capsys, "exp", "materialize", str(hw), "-c", "3")
    assert code == 2
    assert "cap" in err


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
    assert parse_graph(out).n == 81
    code, out, _ = run(capsys, "invariant", "chif", "--max-lp-vertices", "40", str(k4))
    assert code == 0 and out.strip() == "4"
    d = tmp_path / "d.txt"
    code, text, _ = run(capsys, "dgen", "complete", "3")
    d.write_text(text)
    code, out, _ = run(capsys, "shift", "chain", "--format", "obj", str(d), str(d))
    assert code == 0 and json.loads(out)["passed"] is True
    code, _, err = run(capsys, "exp", "materialize", "--bogus-flag", str(k4))
    assert code == 1 and "bogus" in err
