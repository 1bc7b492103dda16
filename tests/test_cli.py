"""Command-line behaviour: exit codes, determinism, JSON schema and the
fixture pipeline.  Runs in-process through main() with captured stdout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dworklie import VecField, modular_vf, parse_ratfn, resolve_chart
from dworklie import cli, liealg
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
    for argv in (["ra", "--n", "0"],
                 ["ra"],
                 ["ra", "--n", "2", "--cn", "one/two"],
                 ["cy3", "--n", "2"],
                 ["verify", "--n", "1", "--suite", "nope"],
                 ["nope"],
                 []):
        assert main(argv) == 64, argv
        capsys.readouterr()


def test_fixtures_refuses_cn_and_writes_nothing(tmp_path, capsys):
    argv = ["fixtures", "--n", "1", "--cn", "0", "--fixtures", str(tmp_path)]
    assert main(argv) == 64
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


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
    real = liealg.quasi_degree
    monkeypatch.setattr(liealg, "quasi_degree", lambda f, w: real(f, w) + 1)
    code, out = run(capsys, "verify", "--n", "1", "--suite", "weights")
    assert code == 1
    lines = out.splitlines()
    i = next(k for k, ln in enumerate(lines)
             if ln.startswith("FAIL weights: [H, fR]"))
    assert lines[i + 1].startswith("  t") and ": expected " in lines[i + 1]
    assert ": got      " in lines[i + 2]


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


def test_fixture_write_and_verify_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "fixtures", "--n", "2", "--fixtures",
                    str(tmp_path))
    assert code == 0
    data = json.loads((tmp_path / "n2.json").read_text())
    assert set(data) == {"modular", "weight", "lowering", "relation"}
    code, out = run(capsys, "verify", "--n", "2", "--suite", "omega",
                    "--fixtures", str(tmp_path))
    assert code == 0
    assert "matches fixture" in out


def test_fixture_env_fallback(tmp_path, capsys, monkeypatch):
    run(capsys, "fixtures", "--n", "1", "--fixtures", str(tmp_path))
    monkeypatch.setenv("DWORK_FIXTURES", str(tmp_path))
    code, out = run(capsys, "verify", "--n", "1", "--suite", "sl2")
    assert code == 0
    assert "lowering field matches fixture" in out


def test_verify_detects_corrupted_fixture(tmp_path, capsys):
    run(capsys, "fixtures", "--n", "1", "--fixtures", str(tmp_path))
    data = json.loads((tmp_path / "n1.json").read_text())
    data["lowering"] = {"t2": "2"}
    (tmp_path / "n1.json").write_text(json.dumps(data))
    code, out = run(capsys, "verify", "--n", "1", "--suite", "sl2",
                    "--fixtures", str(tmp_path))
    assert code == 1
    assert "FAIL" in out
    # the diff names both sides
    assert "expected" in out and "got" in out


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


# c = 0 makes the pairing vanish: odd n fails at its first calibration
# equation, even n at the middle slot, which is still read first
@pytest.mark.parametrize("n,reason", [
    (1, "consistency failure at calibration slot (2,1)"),
    (2, "middle slot equation is not purely quadratic"),
    (3, "consistency failure at calibration slot (3,2)"),
    (4, "middle slot equation is not purely quadratic")],
    ids=["1", "2", "3", "4"])
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
