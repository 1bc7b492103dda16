"""Command-line behaviour: exit codes, determinism, JSON schema and the
reference rows of verify.  Runs in-process through main() with captured
stdout."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dworklie import (VecField, matched_c, modular_vf, parse_ratfn,
                      resolve_chart)
from dworklie import cli, closedforms, liealg
from dworklie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_emit_exits_zero(capsys):
    code, out = run(capsys, "ra", "--n", "1")
    assert code == 0
    assert out.startswith("n = 1")
    assert "modular:" in out and "lowering:" in out


def test_even_dimension_emits_relation(capsys):
    code, out = run(capsys, "ra", "--n", "4")
    assert code == 0
    assert "relation: t8^2 = -36*t6 + 36*t1^6" in out


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "ra", "--n", "2")
    _, second = run(capsys, "ra", "--n", "2")
    assert first == second


def test_usage_errors_exit_64(capsys):
    named = {("ra", "--n", "x"): "not an integer: 'x'"}
    for argv in (["ra", "--n", "0"],
                 ["ra", "--n", "x"],
                 ["ra"],
                 ["ra", "--n", "2", "--cn", "one/two"],
                 ["cy3", "--n", "2"],
                 ["verify", "--n", "1", "--suite", "nope"],
                 ["fixtures", "--n", "1", "--fixtures", "D"],
                 ["verify", "--n", "1", "--fixtures", "D"],
                 ["nope"],
                 []):
        assert main(argv) == 64, argv
        assert named.get(tuple(argv), "") in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_weights_failed_degree_check_exits_1(fmt, capsys, monkeypatch):
    real = cli.weights

    def one_failed_row(n, c=None):
        w, report = real(n, c)
        label, expect, actual, _ = report[0]
        return w, [(label, expect, actual, False)] + report[1:]

    monkeypatch.setattr(cli, "weights", one_failed_row)
    code, out = run(capsys, "weights", "--n", "2", "--format", fmt)
    assert code == 1
    assert "FAIL" in out if fmt == "text" else not all(
        r["ok"] for r in json.loads(out)["object"]["degree_report"])


def test_failing_scaled_field_identity_prints_its_diff(capsys, monkeypatch):
    # the identities are kept on the chart once found, so the run with the
    # broken degree gets an empty store, and the chart's own comes back after
    real = liealg.quasi_degree
    monkeypatch.setattr(liealg, "quasi_degree", lambda f, w: real(f, w) + 1)
    monkeypatch.setattr(resolve_chart(1), "memo", {})
    code, out = run(capsys, "verify", "--n", "1", "--suite", "weights")
    assert code == 1
    lines = out.splitlines()
    i = next(k for k, ln in enumerate(lines)
             if ln.startswith("FAIL weights: [H, fR]"))
    assert lines[i + 1].startswith("  t") and ": expected " in lines[i + 1]
    assert ": got      " in lines[i + 2]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_decompose_refusal_prints_its_reason(fmt, capsys, monkeypatch):
    # the refused value is rendered once, for whichever format is asked
    ring = resolve_chart(2).ring
    value = parse_ratfn(ring, "t1/t2")
    monkeypatch.setattr(cli, "amsy_decompose", lambda V, n, c=None: liealg.
                        NotMember((2, 3), value, "coefficient not regular"))
    code, out = run(capsys, "decompose", "--n", "2", "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["object"] == {
            "member": False, "entry": [2, 3], "value": "t1/t2",
            "reason": "coefficient not regular"}
    else:
        assert out.splitlines()[-3:] == [
            "member: no", "entry (2,3): t1/t2",
            "reason: coefficient not regular"]


def test_json_schema_and_roundtrip(capsys):
    code, out = run(capsys, "ra", "--n", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "dim", "ambient_vars", "relation", "object",
                        "meta"}
    assert doc["n"] == 1 and doc["dim"] == 3
    assert doc["meta"] == {"c_mode": "matched", "rule_extrapolated": False}
    ch = resolve_chart(1)
    R, _ = modular_vf(1)
    comps = doc["object"]["modular"]["components"]
    rebuilt = VecField(ch.ring, {v: parse_ratfn(ch.ring, s)
                                 for v, s in comps.items()})
    assert rebuilt == R


def test_json_connection_roundtrip(capsys):
    code, out = run(capsys, "build", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    conn = doc["object"]["connection"]
    ch = resolve_chart(2)
    from dworklie import full_connection
    A = full_connection(ch)
    assert set(conn) == set(ch.coords)
    for v in ch.coords:
        M = A.get(v)
        for i, row in enumerate(conn[v], start=1):
            for j, s in enumerate(row, start=1):
                assert parse_ratfn(ch.ring, s) == M.get1(i, j)


def test_symbolic_constant_mode(capsys):
    code, out = run(capsys, "build", "--n", "1", "--cn", "symbolic",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["c_mode"] == "symbolic"


def test_explicit_constant_mode(capsys):
    code, out = run(capsys, "ra", "--n", "1", "--cn", "1/27")
    assert code == 0
    assert "(c = 1/27)" in out


def test_negative_fraction_constant_is_a_value(capsys):
    # -1/64 is n = 2's own matched constant; argparse reads -2 as a value
    # but took -1/64 for an option
    code, spaced = run(capsys, "ra", "--n", "2", "--cn", "-1/64")
    assert code == 0 and "(c = -1/64)" in spaced
    assert run(capsys, "ra", "--n", "2", "--cn=-1/64") == (0, spaced)


@pytest.mark.parametrize("cn", ["1e5000", "1e100000000", "2.5E-3", "1_000",
                                "1" * 4000 + "." + "1" * 4000],
                         ids=["exp-5000", "exp-1e8", "exp-small", "underscore",
                              "unprintable"])
def test_constant_outside_the_plain_forms_is_a_usage_error(capsys, cn):
    # Fraction expands an exponent: 1e5000 formed a numerator that could not
    # print, and 1e100000000 did not finish; the last one parses in parts
    # that print, but its numerator has 8,000 digits
    assert main(["build", "--n", "1", "--cn", cn]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: dworklie build")
    assert "expected a rational number or 'symbolic'" in err


def test_constant_plain_forms_are_values():
    for s, want in [("2", 2), ("-3", -3), ("3/7", Fraction(3, 7)),
                    ("-1/64", Fraction(-1, 64)), ("0.5", Fraction(1, 2)),
                    ("-.25", Fraction(-1, 4)), ("+1.", 1)]:
        assert cli._cn_arg(s) == want, s


def test_latex_output_mentions_partials(capsys):
    code, out = run(capsys, "ra", "--n", "1", "--format", "latex")
    assert code == 0
    assert "\\frac{\\partial}{\\partial t_{1}}" in out


def test_verify_all_suites_passes(capsys):
    code, out = run(capsys, "verify", "--n", "2", "--suite", "all")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--n", "1", "--suite", "sl2")
    assert code == 0
    assert "sl2: defining bracket relations" in out


def test_verify_json_mode(capsys):
    code, out = run(capsys, "verify", "--n", "1", "--suite", "omega",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["ok"] for c in doc["object"]["checks"])


def test_verify_detects_corrupted_fixture(capsys, monkeypatch):
    # the rows compare against closedforms.REFERENCE, so a wrong display
    # there fails its row with the diff naming both sides
    monkeypatch.setitem(closedforms.REFERENCE[1], "lowering", {"t2": "2"})
    monkeypatch.setitem(closedforms.REFERENCE[2], "relation",
                        "t3^2 = 4*(t1^4 + t4)")
    for n, suite, row in ((1, "sl2", "lowering field"),
                          (2, "omega", "chart relation")):
        code, out = run(capsys, "verify", "--n", str(n), "--suite", suite)
        assert code == 1
        lines = out.splitlines()
        i = lines.index(f"FAIL {suite}: {row} matches fixture")
        assert "expected" in lines[i + 1] and "got" in lines[i + 2]
        assert sum(ln.startswith("FAIL") for ln in lines) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_verify_passes_away_from_the_matched_constant(capsys, n):
    # the truncation's closed forms hold at the matched constant only, so
    # their rows run when the chart has that constant, given or not
    truncation = "membership: truncation matches the closed form"
    for cn in ("symbolic", "3/7"):
        code, out = run(capsys, "verify", "--n", str(n), "--cn", cn)
        assert code == 0, out
        assert "FAIL" not in out and truncation not in out
    for cn in ([], ["--cn", str(matched_c(n))]):
        code, out = run(capsys, "verify", "--n", str(n), "--suite",
                        "membership", *cn)
        assert code == 0 and truncation in out


def test_decompose_member_and_obstruction(capsys):
    code, out = run(capsys, "decompose", "--n", "3")
    assert code == 0
    assert "member: yes" in out
    code, out = run(capsys, "decompose", "--n", "4")
    assert code == 0
    assert "member: no" in out
    assert "entry (3,3)" in out


def test_cy3_dims_output(capsys):
    code, out = run(capsys, "cy3", "--h", "10")
    assert code == 0
    assert "frame size: 22" in out
    assert "algebra dim: 177" in out
    assert "moduli dim: 187" in out


# c = 0 makes the pairing vanish, and the chart refuses it before it solves
# for its inverse
@pytest.mark.parametrize("n,reason", [
    (n, f"pairing matrix is singular: zero antidiagonal entry (1,{n + 1})")
    for n in (1, 2, 3, 4)], ids=["1", "2", "3", "4"])
def test_structural_failure_exits_2_with_empty_stdout(capsys, n, reason):
    code = main(["ra", "--n", str(n), "--cn", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"structural failure: EliminationStuck: {reason}\n"


@pytest.mark.parametrize("argv", [["verify", "--n", "2", "--suite", "all"],
                                  ["ra", "--n", "4", "--format", "json"],
                                  ["action", "--n", "3", "--format", "json"],
                                  ["decompose", "--n", "3", "--format",
                                   "json"],
                                  ["sl2", "--n", "3", "--format", "json"],
                                  ["brackets", "--n", "3", "--format",
                                   "json"],
                                  ["build", "--n", "4", "--format", "json"],
                                  ["build", "--n", "2", "--cn", "symbolic",
                                   "--format", "json"]])
def test_same_output_under_O(argv):
    """Stripping asserts must change neither the output nor the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    runs = [subprocess.run([sys.executable, *flags, "-m", "dworklie.cli",
                            *argv], env=env, capture_output=True, text=True,
                           timeout=120)
            for flags in ([], ["-O"])]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[1].returncode == runs[0].returncode, runs[1].stderr
    assert runs[1].stdout == runs[0].stdout


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    """main() reuses one parser per process: a second good call, a usage
    error after a good call and a missing command must print what a fresh
    interpreter prints for each, with the same exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    calls = [["ra", "--n", "1"], ["weights", "--n", "2"],
             ["ra", "--n", "0"], ["ra", "--n", "1", "--format", "yaml"], []]
    for argv in calls:
        code = main(list(argv))
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "dworklie.cli", *argv],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr), argv
