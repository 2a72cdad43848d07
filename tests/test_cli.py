import argparse
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import factorkit
from factorkit import solver
from factorkit.cli import run
from factorkit.constructions import build_g1
from factorkit.generators import circulant_graph
from factorkit.io import decode_graph6, from_dimacs, write_graph
from factorkit.solver import INCONCLUSIVE, METHOD_BUDGET, Decision

from oracles import complete_graph, path_graph, two_hub


@pytest.fixture
def g1_path(tmp_path):
    path = tmp_path / "g1_6.g6"
    assert run(["gen", "g1", "--r", "6", "--out", str(path)]) == 0
    return str(path)


def write_g6(tmp_path, name, *graphs):
    path = tmp_path / name
    path.write_text("".join(write_graph(g, "graph6") for g in graphs))
    return str(path)


def test_gen_g1_graph6_line(capsys):
    assert run(["gen", "g1", "--r", "6", "--format", "graph6"]) == 0
    line = capsys.readouterr().out
    g = decode_graph6(line)
    assert g.n == 22


def test_gen_outputs_are_byte_stable(tmp_path):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    for path in (a, b):
        assert run(["gen", "g2", "--r", "8", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert decode_graph6(a.read_text()).n == 74


def test_gen_block_formats(tmp_path, capsys):
    assert run(["gen", "block", "--r", "4", "--format", "dimacs"]) == 0
    out = capsys.readouterr().out
    g = from_dimacs(out)
    assert g.n == 5 and g.m == 9


def test_gen_descriptor(tmp_path):
    gpath = tmp_path / "g.g6"
    dpath = tmp_path / "g.json"
    assert run(["gen", "g1", "--r", "6", "--out", str(gpath),
                "--descriptor", str(dpath)]) == 0
    desc = json.loads(dpath.read_text())
    assert desc["family"] == "G1" and desc["hubs"] == [21]


@pytest.mark.parametrize("r,graph6", [(2, "BW"), (4, "D^{"), (6, "F^~~w")])
def test_gen_block_descriptor_pinned(tmp_path, r, graph6):
    gpath, dpath = tmp_path / "g.g6", tmp_path / "g.json"
    assert run(["gen", "block", "--r", str(r), "--out", str(gpath), "--descriptor", str(dpath)]) == 0
    assert gpath.read_text() == graph6 + "\n"
    assert dpath.read_text() == f'{{"family": "block", "r": {r}, "unsaturated": [0, 1]}}\n'


def test_gen_families_pinned(tmp_path):
    # sha256 over graph6 lines and descriptors, taken when G1 and G2 still
    # had separate builders.
    gpath, dpath = tmp_path / "g.g6", tmp_path / "g.json"
    digest = hashlib.sha256()
    for family, degrees in (("g1", (6, 10, 14, 18)), ("g2", (8, 12, 16))):
        for r in degrees:
            args = ["gen", family, "--r", str(r), "--out", str(gpath), "--descriptor", str(dpath)]
            assert run(args) == 0
            digest.update(gpath.read_bytes())
            digest.update(dpath.read_bytes())
    assert digest.hexdigest() == (
        "f990b0d5b5aefd5e217b84b1dc5be83a745ee6f7bb1a582f86d69ccefeffac2e"
    )


def test_verify_no_factor_reports_pinned(tmp_path, monkeypatch, capsys):
    # sha256 over the JSON reports without wall_time_s, taken when the
    # certificate still nested a separate decomposition record.
    monkeypatch.chdir(tmp_path)
    lines = []
    for family, r, hubs in (("g1", 6, "21"), ("g2", 8, "72,73")):
        assert run(["gen", family, "--r", str(r), "--out", "g.g6"]) == 0
        args = ["verify", "no-factor", "--in", "g.g6", "--hubs", hubs, "--k", "1", "--json"]
        assert run(args) == 0
        report = json.loads(capsys.readouterr().out)
        del report["wall_time_s"]
        lines.append(json.dumps(report, sort_keys=True))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "0253565e0bd306c36e6b51680ab397ff8ed5eafbafc48cb69fd6613af25a9149"
    )


def test_gen_bad_r_is_usage_error(capsys):
    assert run(["gen", "g1", "--r", "8"]) == 2
    assert "r/2 odd" in capsys.readouterr().err


def test_factor_check_counterexample(g1_path, capsys):
    code = run(["factor", "check", "--spec", "1,5", "--in", g1_path])
    assert code == 1
    assert "not-exists" in capsys.readouterr().out


def test_factor_check_kr_sugar(g1_path, capsys):
    code = run(["factor", "check", "--kr", "1", "--in", g1_path, "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["spec"] == [1, 5]
    assert report["result"]["decision"]["verdict"] == "not-exists"
    assert report["input"] == {"n": 22, "edges": 66, "regularity": 6}


def test_factor_find_emits_certificate(g1_path, capsys):
    code = run(["factor", "find", "--spec", "3", "--in", g1_path, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    cert = report["result"]["decision"]["certificate"]
    degs = [0] * 22
    for u, v in cert:
        degs[u] += 1
        degs[v] += 1
    assert set(degs) == {3}


def test_factor_find_output_pinned(tmp_path, capsys):
    # Byte-for-byte pin of the certificate the search finds first, re-derived
    # for the smaller-side gadget (the all-1 assignment now has copies).
    path = write_g6(tmp_path, "c120.g6", circulant_graph(120, (1, 11, 37)))
    assert run(["factor", "find", "--spec", "1,5", "--in", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["decision"]["nodes_explored"] == 1
    text = json.dumps(report["result"]).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "146591779b59d0da6837058479333b480e767ed408052212a2dfcb0b130e6833"
    )


def test_factor_check_omits_certificate(g1_path, capsys):
    assert run(["factor", "check", "--spec", "3", "--in", g1_path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "certificate" not in report["result"]["decision"]


def test_factor_budget_inconclusive(tmp_path, capsys):
    path = write_g6(tmp_path, "c.g6", circulant_graph(10, (1, 2)))
    code = run(["factor", "check", "--spec", "1,2", "--in", path, "--budget", "0"])
    assert code == 3
    assert "inconclusive" in capsys.readouterr().out


def test_two_hub_probe_is_a_negative_answer(tmp_path, capsys):
    # The benchmark's budgeted probe: decided within its 1,000-node budget,
    # so the exit code is 1 (no factor), not 3 (budget spent).
    path = write_g6(tmp_path, "two_hub_8.g6", two_hub(8))
    argv = ["factor", "check", "--spec", "1,3", "--in", path, "--budget", "1000", "--json"]
    assert run(argv) == 1
    decision = json.loads(capsys.readouterr().out)["result"]["decision"]
    assert decision["verdict"] == "not-exists" and decision["nodes_explored"] <= 2


def test_factor_negative_budget_is_usage_error(g1_path, capsys):
    code = run(["factor", "check", "--kr", "1", "--in", g1_path, "--budget", "-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget" in captured.err and "nonnegative" in captured.err


def test_factor_batch_processes_each_line(tmp_path, capsys):
    path = write_g6(tmp_path, "batch.g6", complete_graph(4), complete_graph(5))
    code = run(["factor", "check", "--spec", "1", "--in", path, "--json"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    verdicts = [json.loads(line)["result"]["decision"]["verdict"] for line in lines]
    assert verdicts == ["exists", "not-exists"]
    assert code == 1  # worst of the batch


def test_factor_batch_stops_at_the_first_input_error(tmp_path, capsys):
    path = write_g6(tmp_path, "batch.g6", complete_graph(4), path_graph(4))
    assert run(["factor", "check", "--kr", "1", "--in", path]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("exists (spec={1,2},")
    assert captured.err == "error: --kr needs a regular input graph to expand {k, r-k}\n"


def test_verify_batch_exits_with_the_worst_code(tmp_path, capsys):
    path = write_g6(tmp_path, "batch.g6", circulant_graph(8, (1, 2, 3)), complete_graph(7))
    assert run(["verify", "gallai", "--k", "3", "--in", path, "--json"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["input"]["n"] for r in reports] == [8, 7]
    assert [r["result"]["factor_exists"] for r in reports] == [True, None]


def test_factor_reads_stdin(monkeypatch, capsys):
    text = write_graph(complete_graph(4), "graph6")
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
    assert run(["factor", "check", "--spec", "1"]) == 0
    assert "exists" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["factor", "check", "--spec", "1"], ["convert", "--from", "graph6", "--to", "edges"]]
)
def test_undecodable_stdin_is_input_error(monkeypatch, capsys, argv):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read -: ") and captured.err.count("\n") == 1


def test_escaped_stdin_byte_is_malformed_graph6(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(["factor", "check", "--spec", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: malformed graph input from -: graph6 byte outside the printable range 63..126\n"
    )


def test_non_ascii_file_is_malformed_graph6(tmp_path, capsys):
    # The same report as the same text on standard input, not a codec error.
    path = tmp_path / "e.g6"
    path.write_text("\u00e9\n", encoding="utf-8")
    assert run(["factor", "check", "--spec", "1", "--in", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: malformed graph input from {path}: graph6 byte outside the printable range 63..126\n"
    )


class _Unwritable(io.StringIO):
    def __init__(self, error: OSError):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(
    "argv", [["factor", "find", "--spec", "3", "--in", "g.g6"], ["gen", "g1", "--r", "6"], ["--help"]]
)
def test_closed_output_pipe_is_output_error(tmp_path, monkeypatch, capsys, argv):
    # A closed pipe and a full disk alike: stdout that cannot be written.
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "g1", "--r", "6", "--out", "g.g6"]) == 0
    for error in (BrokenPipeError(errno.EPIPE, "Broken pipe"),
                  OSError(errno.ENOSPC, "No space left on device")):
        monkeypatch.setattr("sys.stdout", _Unwritable(error))
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write -: {error}\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["factor", "check", "--spec", "1", "--in", "missing.g6"], 2),  # input error
        (["gen", "g1", "--r", "5"], 2),  # usage error reported by factorkit
        (["factor", "check", "--in", "missing.g6"], 2),  # usage error reported by argparse
        (["verify", "gallai", "--k", "3", "--in", "g.g6"], 4),  # internal error
    ],
    ids=["input", "usage", "argparse-usage", "internal"],
)
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, monkeypatch, capsys, argv, code):
    # A full disk under stderr loses the error line, never the exit code:
    # exit 1 would read as a valid "no factor".
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "g1", "--r", "6", "--out", "g.g6"]) == 0
    if code == 4:
        monkeypatch.setattr("factorkit.cli.gallai_check", _internal_fault)
    monkeypatch.setattr("sys.stderr", _Unwritable(OSError(errno.ENOSPC, "No space left on device")))
    assert run(argv) == code
    assert capsys.readouterr().out == ""


def test_factor_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C\x7f~~~\n")
    assert run(["factor", "check", "--spec", "1", "--in", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_factor_kr_on_irregular_graph(tmp_path, capsys):
    path = write_g6(tmp_path, "p.g6", path_graph(4))
    assert run(["factor", "check", "--kr", "1", "--in", path]) == 2


def test_verify_thm2(tmp_path, capsys):
    path = write_g6(tmp_path, "k7.g6", complete_graph(7))
    assert run(["verify", "thm2", "--in", path]) == 0
    assert "holds" in capsys.readouterr().out


def test_verify_thm2_precondition_error(tmp_path, capsys):
    path = write_g6(tmp_path, "k13.g6", complete_graph(13))
    assert run(["verify", "thm2", "--in", path]) == 2
    assert "precondition" in capsys.readouterr().err


def test_verify_gallai(tmp_path, capsys):
    path = write_g6(tmp_path, "c8.g6", circulant_graph(8, (1, 2, 3)))
    assert run(["verify", "gallai", "--in", path, "--k", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["report"]["m"] == 6
    assert report["result"]["factor_exists"] is True
    # inapplicable: odd order
    path = write_g6(tmp_path, "k7.g6", complete_graph(7))
    assert run(["verify", "gallai", "--in", path, "--k", "3"]) == 1


def _inconclusive(g, spec, budget=None):
    return Decision(INCONCLUSIVE, METHOD_BUDGET, None, 0)


def test_verify_thm2_inconclusive_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("factorkit.theorems.h_factor_decide", _inconclusive)
    path = write_g6(tmp_path, "k7.g6", complete_graph(7))
    assert run(["verify", "thm2", "--in", path, "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["holds"] is None


def test_verify_gallai_inconclusive_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("factorkit.cli.h_factor_decide", _inconclusive)
    path = write_g6(tmp_path, "c8.g6", circulant_graph(8, (1, 2, 3)))
    assert run(["verify", "gallai", "--in", path, "--k", "3"]) == 3
    assert capsys.readouterr().out.startswith("inconclusive")


def _internal_fault(*args, **kwargs):
    raise AssertionError("invariant broken")


@pytest.mark.parametrize(
    "target, argv",
    [
        ("factorkit.cli.h_factor_decide", ["factor", "check", "--spec", "3"]),
        ("factorkit.cli.gallai_check", ["verify", "gallai", "--k", "3"]),
    ],
)
def test_internal_error_exit_code(tmp_path, capsys, monkeypatch, target, argv):
    monkeypatch.setattr(target, _internal_fault)
    path = write_g6(tmp_path, "c8.g6", circulant_graph(8, (1, 2, 3)))
    assert run(argv + ["--in", path]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: AssertionError: invariant broken\n"
    assert captured.out == ""


def test_invalid_search_certificate_is_internal_error(tmp_path, capsys, monkeypatch):
    # (0, 4) is not an edge of C(8; 1, 2, 3).
    monkeypatch.setattr(solver, "_solve_blocks", lambda *args: [(0, 4), (1, 5), (2, 6), (3, 7)])
    path = write_g6(tmp_path, "c8.g6", circulant_graph(8, (1, 2, 3)))
    assert run(["factor", "check", "--spec", "1", "--in", path]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: AssertionError: internal error: certificate edge (0, 4)")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_verify_gallai_requires_k(tmp_path, capsys):
    path = write_g6(tmp_path, "c8.g6", circulant_graph(8, (1, 2, 3)))
    assert run(["verify", "gallai", "--in", path]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factor", "check", "--spec", "1,x", "--in", "{g1}"], "bad degree set '1,x'"),
        (["factor", "check", "--spec", "\u0663", "--in", "{g1}"], "bad degree set"),
        (["factor", "check", "--spec", "1_5", "--in", "{g1}"], "bad degree set '1_5'"),
        (["factor", "check", "--kr", "9", "--in", "{g1}"], "need 0 <= k <= r, got k=9, r=6"),
        (["verify", "no-factor", "--hubs", "21", "--in", "{g1}"], "verify no-factor requires --k"),
        (["verify", "no-factor", "--k", "1", "--in", "{g1}"], "verify no-factor requires --hubs"),
        (["verify", "no-factor", "--k", "1", "--hubs", "21,x", "--in", "{g1}"], "bad hub list '21,x'"),
        (["verify", "no-factor", "--k", "1", "--hubs", "2_1", "--in", "{g1}"], "bad hub list '2_1'"),
        (["verify", "no-factor", "--k", "1", "--hubs", "22", "--in", "{g1}"], "hub 22 is not a vertex"),
        (["gen", "g1", "--r", "6", "--out", "{tmp}/missing/g1.g6"], "cannot write {tmp}/missing/g1.g6"),
        (["verify", "gallai", "--k", "-1", "--in", "{g1}"], "need k >= 0, got k=-1"),
    ],
    ids=["spec-letter", "spec-arabic-indic-digit", "spec-underscore", "kr-above-r", "no-factor-without-k",
         "no-factor-without-hubs", "hubs-letter", "hubs-underscore", "hub-outside-graph", "out-missing-dir",
         "gallai-negative-k"],
)
def test_input_error_is_one_error_line(g1_path, tmp_path, capsys, argv, message):
    fill = {"g1": g1_path, "tmp": str(tmp_path)}
    assert run([arg.format(**fill) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: " + message.format(**fill))


def test_verify_no_factor(g1_path, capsys):
    assert run(["verify", "no-factor", "--in", g1_path, "--hubs", "21",
                "--k", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    cert = report["result"]["certificate"]
    assert cert["achievable"] == {"21": [3]}
    assert cert["conclusion"] is True
    assert report["result"]["certificate_valid"] is True


def test_verify_no_factor_unprovable_spec(g1_path, capsys):
    assert run(["verify", "no-factor", "--in", g1_path, "--hubs", "21",
                "--k", "3"]) == 1
    assert "proves nothing" in capsys.readouterr().out


def test_verify_no_factor_not_applicable(tmp_path, capsys):
    # deleting one hub from the 5-cycle leaves an even-order path
    path = write_g6(tmp_path, "c5.g6", circulant_graph(5, (1,)))
    assert run(["verify", "no-factor", "--in", path, "--hubs", "0", "--k", "1"]) == 1
    assert "not applicable" in capsys.readouterr().out


def test_convert_roundtrip(tmp_path):
    g = build_g1(6).graph
    g6 = tmp_path / "g.g6"
    dim = tmp_path / "g.dimacs"
    back = tmp_path / "back.g6"
    g6.write_text(write_graph(g, "graph6"))
    assert run(["convert", "--from", "graph6", "--to", "dimacs",
                "--in", str(g6), "--out", str(dim)]) == 0
    assert run(["convert", "--from", "dimacs", "--to", "graph6",
                "--in", str(dim), "--out", str(back)]) == 0
    assert back.read_text() == g6.read_text()


def test_convert_edges_roundtrip(tmp_path, capsys):
    g = circulant_graph(8, (1, 2, 3))
    path = write_g6(tmp_path, "c.g6", g)
    assert run(["convert", "--from", "graph6", "--to", "edges", "--in", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "8"
    from factorkit.io import from_edge_list

    assert from_edge_list(out) == g


def test_convert_malformed(tmp_path, capsys):
    path = tmp_path / "bad.dimacs"
    path.write_text("p edge x\n")
    assert run(["convert", "--from", "dimacs", "--to", "graph6",
                "--in", str(path)]) == 2
    path.write_text("p edge 2 1\ne 0 1\n")
    assert run(["convert", "--from", "dimacs", "--to", "graph6",
                "--in", str(path)]) == 2
    assert "vertex id 0" in capsys.readouterr().err
    path.write_text("p edge 2 1\ne a 1\n")
    assert run(["convert", "--from", "dimacs", "--to", "graph6",
                "--in", str(path)]) == 2
    assert "line 2: non-integer field" in capsys.readouterr().err
    path.write_text("3\n\n0 1 2\n")
    assert run(["convert", "--from", "edges", "--to", "graph6",
                "--in", str(path)]) == 2
    assert "line 3: malformed edge-list line" in capsys.readouterr().err
    path.write_text("3\n\u0660 \u0661\n", encoding="utf-8")  # Arabic-Indic 0 and 1
    assert run(["convert", "--from", "edges", "--to", "dimacs",
                "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "line 2: non-integer field" in captured.err
    # dimacs and edge lists hold one graph, so a graph6 batch cannot go there.
    path = write_g6(tmp_path, "two.g6", complete_graph(3), complete_graph(4))
    for dst in ("dimacs", "edges"):
        assert run(["convert", "--from", "graph6", "--to", dst, "--in", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot convert 2 graphs to {dst}, which holds one\n"


def test_convert_too_large_for_graph6(tmp_path, capsys):
    path = tmp_path / "big.dimacs"
    path.write_text("p edge 258048 0\n")
    assert run(["convert", "--from", "dimacs", "--to", "graph6", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_usage_error_exit_code(g1_path, capsys):
    assert run(["factor", "check"]) == 2  # missing --spec/--kr
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    # Integer flags take an optional sign and ASCII digits only: Arabic-Indic
    # 6, 10, 1 and 3 are not numbers here.
    capsys.readouterr()
    for argv, flag in [
        (["gen", "g1", "--r", "\u0666"], "--r"),
        (["factor", "check", "--spec", "3", "--budget", "\u0661\u0660", "--in", g1_path], "--budget"),
        (["factor", "check", "--kr", "\u0661", "--in", g1_path], "--kr"),
        (["verify", "gallai", "--k", "\u0663", "--in", g1_path], "--k"),
    ]:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}:" in captured.err


HELP_AND_USAGE_ARGVS = [
    ["--help"], ["-h", "factor"],
    ["gen", "--help"], ["factor", "--help"], ["verify", "--help"], ["convert", "--help"],
    [], ["bogus"], ["factor"], ["factor", "check"],
    ["factor", "check", "--spec", "1", "--kr", "1"],
    ["factor", "check", "--spec", "1", "extra"],
    ["gen", "g1"], ["gen", "g3", "--r", "6"], ["gen", "block", "--r", "4", "--format", "dimacs"],
    ["convert", "--from", "graph6"], ["verify", "thm3"], ["verify", "gallai", "--in", "/nonexistent"],
    ["factor", "find", "--spec", "1", "--budget", "x"],
    ["--", "factor", "--help"], ["-x", "gen", "g1", "--r", "6"], ["-", "factor"],
    ["-1", "factor", "check"], ["factor", "-", "check"],
]

# sha256 over repr((argv, exit code, stdout, stderr)) per argv, taken when
# every call still built all four commands' arguments and all four
# subparsers. argparse words and wraps help differently from one Python minor
# version to the next, so the pins hold for the version they were taken on:
# 3.10.13, 3.11.7, 3.12.1 and 3.13.0; other patch releases are unverified.
# 3.10 and 3.12 print the same bytes as 3.11 here, and 3.13 does not.
HELP_AND_USAGE_PINS = {
    (3, 11): {
        80: "07d93076be6e4189903668e8827424ed7c60e9ec6290072f48759de57d3c61dd",
        50: "c565a09eda60911a4d102b4f619a13ff91eafb64c62e597209be2772818698ce",
    },
    (3, 10): {
        80: "07d93076be6e4189903668e8827424ed7c60e9ec6290072f48759de57d3c61dd",
        50: "c565a09eda60911a4d102b4f619a13ff91eafb64c62e597209be2772818698ce",
    },
    (3, 12): {
        80: "07d93076be6e4189903668e8827424ed7c60e9ec6290072f48759de57d3c61dd",
        50: "c565a09eda60911a4d102b4f619a13ff91eafb64c62e597209be2772818698ce",
    },
    (3, 13): {
        80: "b23af8afcd1e22e4c2f9a6ba5c842e4a47fc8f9cdfbda8071fc4bde6e124b3fa",
        50: "56965f9bfd682250fb88ca43152e38778d9089bae7a44d7932ce2dfb895f7cfe",
    },
}

# Errors after a valid first command, which builds only that command's
# subparser. The first four print the top-level usage, which must still name
# all four commands.
SINGLE_SUBPARSER_ARGVS = [
    ["gen", "g1", "--r", "6", "extra"],
    ["verify", "thm2", "extra"],
    ["convert", "--from", "graph6", "--to", "dimacs", "extra"],
    ["factor", "find", "--spec", "1", "--json", "extra"],
    ["verify", "gallai", "--k", "x"],
    ["gen", "g1", "--r"],
    ["convert", "--to", "dimacs"],
]

# Taken as HELP_AND_USAGE_PINS were, on the same Python versions.
SINGLE_SUBPARSER_PINS = {
    (3, 10): {
        80: "26ccec267e87c50d885be64fb4965cf0404fff88bacadbe7c432cdf869d39140",
        50: "5d975efefb013f0e3ca2c407b1204aea1736ea0bba029740cc9fc7bab463c737",
    },
    (3, 11): {
        80: "26ccec267e87c50d885be64fb4965cf0404fff88bacadbe7c432cdf869d39140",
        50: "5d975efefb013f0e3ca2c407b1204aea1736ea0bba029740cc9fc7bab463c737",
    },
    (3, 12): {
        80: "26ccec267e87c50d885be64fb4965cf0404fff88bacadbe7c432cdf869d39140",
        50: "5d975efefb013f0e3ca2c407b1204aea1736ea0bba029740cc9fc7bab463c737",
    },
    (3, 13): {
        80: "c97cbcf55c7efcffae6f0b492ef4634cfdb05bbe20276e02477e832c058132cd",
        50: "38f9a36afcaf96e93a23290dc2776950808ad61abe5dedf4a01821295194247b",
    },
}


def assert_pinned(argvs, version_pins, columns, monkeypatch, capsys):
    pins = version_pins.get(sys.version_info[:2])
    if pins is None:
        pinned = ", ".join("%d.%d" % version for version in sorted(version_pins))
        pytest.skip(f"help and usage are pinned on Python {pinned} only")
    monkeypatch.setenv("COLUMNS", str(columns))
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    digest = hashlib.sha256()
    for argv in argvs:
        code = run(argv)
        captured = capsys.readouterr()
        digest.update(repr((argv, code, captured.out, captured.err)).encode())
    assert digest.hexdigest() == pins[columns]


@pytest.mark.parametrize("columns", [80, 50])
def test_help_and_usage_pinned(monkeypatch, capsys, columns):
    assert_pinned(HELP_AND_USAGE_ARGVS, HELP_AND_USAGE_PINS, columns, monkeypatch, capsys)


@pytest.mark.parametrize("columns", [80, 50])
def test_single_subparser_usage_pinned(monkeypatch, capsys, columns):
    assert_pinned(SINGLE_SUBPARSER_ARGVS, SINGLE_SUBPARSER_PINS, columns, monkeypatch, capsys)


def test_a_call_adds_only_its_own_commands_arguments(g1_path, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.extend(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert run(["factor", "check", "--spec", "1", "--in", g1_path]) == 1
    assert "--budget" in added
    assert not {"--r", "--descriptor", "--k", "--hubs", "--from", "--to"} & set(added)
    added.clear()
    assert run(["--help"]) == 0
    assert set(added) == {"-h", "--help"}


def test_a_valid_first_command_creates_one_subparser(g1_path, monkeypatch):
    created = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        created.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run(["factor", "check", "--spec", "1", "--in", g1_path]) == 1
    assert created == ["factor"]
    # A leading option or an unknown command can reach the top-level help or
    # the invalid-choice error, which list every command.
    for argv, code in [(["-h", "factor"], 0), (["bogus"], 2), (["-", "factor"], 2)]:
        created.clear()
        assert run(argv) == code, argv
        assert created == ["gen", "factor", "verify", "convert"], argv


def test_console_entry_point():
    # Run from the directory holding the imported package, so the child
    # process imports the same factorkit whether or not it is installed.
    result = subprocess.run(
        [sys.executable, "-m", "factorkit", "gen", "g1", "--r", "6"],
        capture_output=True,
        text=True,
        cwd=Path(factorkit.__file__).parents[1],
    )
    assert result.returncode == 0
    assert decode_graph6(result.stdout.strip()).n == 22


def test_console_closed_pipe_is_output_error():
    # Stdout is a pipe whose reader is gone before the child starts. Without
    # PYTHONUNBUFFERED the short answer sits in stdout's buffer until a flush,
    # so this also covers the interpreter's last flush at exit (status 120).
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "factorkit", "factor", "find", "--spec", "3"],
            input=write_graph(build_g1(6).graph, "graph6"),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(factorkit.__file__).parents[1],
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write -: [Errno 32] Broken pipe\n"
