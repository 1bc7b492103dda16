"""Growth in n: per-stage CPU seconds and peak RSS, one cold process per job.

Run from anywhere; the record goes to BENCH_growth.json in the current
directory:

    python3 bench/growth.py                        # working tree, best of 3
    python3 bench/growth.py --against HEAD~1 --pairs 5
    python3 bench/growth.py --smoke                # n = 3, h = 1, one run

Each job of PLAN runs in a fresh interpreter with PYTHONPATH pointing at the
tree under test and no bytecode written.  It times its stages one after the
other with time.process_time, so a later stage finds the earlier ones' work
kept on the chart, and reports the process's peak RSS (resource.getrusage).
The CLI jobs call cli.main in process, with stdout sent to os.devnull.
Each run also keeps the one-minute load average read just before its job
starts (os.getloadavg), so that a pair run while the machine was busy shows
as such.

--against REV extracts `git archive REV` into a temporary directory and
alternates it with the working tree, one pair per --pairs: even pairs run
REV first, odd pairs the working tree first.  Every __pycache__ under
either tree's src is removed before each job.  Without --against, the
working tree runs --pairs times.  The summaries give the best run and the
quartiles [lower, median, upper] (inclusive method) per stage; with
--against they also count the pairs in which the working tree read lower,
and give each stage a verdict by the claim rule: "lower" (or "higher") when
the working tree reads lower (or higher) in at least nine tenths of the
pairs and its median lies past the parent's by more than the parent's
quartile spread, "unresolved" otherwise.  The record is not a gate.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (kind, size): "fields" builds the chart, then modular_vf and basis_vf;
# "connection" the chart, then full_connection; "targets" the chart and its
# fields, then times one solve of every field target on the warm chart, best
# of 7; "ra" and "decompose" run the CLI command at --n size; "cy3" runs
# verify_cy3_table(size), then cy3_sl2
PLAN = [("fields", 20), ("fields", 24), ("fields", 28),
        ("connection", 13), ("connection", 15),
        ("ra", 24), ("decompose", 13), ("decompose", 15), ("cy3", 8),
        ("cy3", 10)] \
    + [("targets", n) for n in range(3, 9)]
SMOKE = [("fields", 3), ("connection", 3), ("targets", 3), ("ra", 3),
         ("decompose", 3), ("cy3", 1)]

CHILD = r"""
import contextlib, json, os, resource, sys, time
import dworklie as dw
from dworklie import cli, cy3, connection
from dworklie.group import basis_pairs, lie_gen
from dworklie.modular import yukawa_for
kind, size = sys.argv[1], int(sys.argv[2])
out = {}

def stage(name, fn):
    t = time.process_time()
    val = fn()
    out[name] = time.process_time() - t
    return val

if kind in ("fields", "connection", "targets"):
    ch = stage("chart", lambda: dw.resolve_chart(size))
    if kind == "connection":
        stage("full_connection", lambda: dw.full_connection(ch))
    else:
        stage("modular_vf", lambda: dw.modular_vf(ch))
        stage("basis_vf", lambda: dw.basis_vf(ch))
    if kind == "targets":
        targets = [yukawa_for(ch).matrix()] + [
            lie_gen(size, a, b, ch.ring).transpose()
            for a, b in basis_pairs(size)]
        best = None
        for _ in range(7):
            t = time.process_time()
            for g in targets:
                connection.vf_from_target(ch, g)
            t = time.process_time() - t
            best = t if best is None else min(best, t)
        out["vf_from_target_all"] = best
elif kind in ("ra", "decompose"):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = stage(kind, lambda: cli.main([kind, "--n", str(size)]))
    if code != 0:
        sys.exit(f"{kind} --n {size} exited with {code}")
elif kind == "cy3":
    rep = stage("verify_cy3_table", lambda: cy3.verify_cy3_table(size))
    stage("cy3_sl2", lambda: cy3.cy3_sl2(size, rep))
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def clean(tree):
    """Remove every __pycache__ under tree's src."""
    for d, subs, _ in os.walk(os.path.join(tree, "src")):
        if "__pycache__" in subs:
            shutil.rmtree(os.path.join(d, "__pycache__"))
            subs.remove("__pycache__")


def run_job(tree, kind, size):
    """One cold interpreter on tree's src; its stage seconds and peak RSS,
    and the load average before it started."""
    clean(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    load = os.getloadavg()[0]
    proc = subprocess.run([sys.executable, "-c", CHILD, kind, str(size)],
                          env=env, capture_output=True, text=True, cwd=tree)
    if proc.returncode != 0:
        raise SystemExit(f"{kind} {size} failed in {tree}:\n{proc.stderr}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                loadavg_1m=load)


def archive(rev, dest):
    """git archive of rev, extracted under dest; returns the tree."""
    tar = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "-o", tar, rev], cwd=ROOT, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(tar) as f:
        f.extractall(tree)
    return tree


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[1], q[2]]


def verdict(parent, change):
    """"lower" or "higher" by the claim rule of the module docstring, else
    "unresolved"; parent and change are the runs of one stage, pair by
    pair."""
    lo, mid, hi = quartiles(parent)
    gap = statistics.median(change) - mid
    if abs(gap) <= hi - lo:
        return "unresolved"
    won = sum((c < p) if gap < 0 else (c > p) for p, c in zip(parent, change))
    if 10 * won < 9 * len(parent):
        return "unresolved"
    return "lower" if gap < 0 else "higher"


def summarise(runs, sides):
    """Per job and stage: every run, the best, the quartiles and, with two
    sides, how many pairs the working tree read lower and the verdict."""
    out = {}
    for job in runs[sides[-1]]:
        out[job] = {}
        for stage in runs[sides[-1]][job][0]:
            entry = {}
            for side in sides:
                xs = [r[stage] for r in runs[side][job]]
                entry[side] = xs
                entry[f"{side}_best"] = min(xs)
                entry[f"{side}_summary"] = quartiles(xs)
            if len(sides) == 2 and stage != "loadavg_1m":
                entry["change_lower_pairs"] = sum(
                    c < p for p, c in zip(entry["parent"], entry["change"]))
                entry["verdict"] = verdict(entry["parent"], entry["change"])
            out[job][stage] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="alternate a git archive of REV with the working "
                         "tree")
    ap.add_argument("--pairs", type=int, default=3,
                    help="runs per side (default 3)")
    ap.add_argument("--smoke", action="store_true",
                    help="n = 3 and h = 1 only, one run per side")
    args = ap.parse_args(argv)
    plan = SMOKE if args.smoke else PLAN
    pairs = 1 if args.smoke else args.pairs
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT}
        if args.against:
            trees["parent"] = archive(args.against, tmp)
        sides = sorted(trees, reverse=True)  # parent first, if present
        runs = {side: {} for side in sides}
        first = []
        for i in range(pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            first.append(order[0])
            for kind, size in plan:
                job = f"{kind} {size}"
                for side in order:
                    r = run_job(trees[side], kind, size)
                    runs[side].setdefault(job, []).append(r)
                    print(f"pair {i} {side:<6} {job:<14} " + " ".join(
                        f"{k}={v:.3f}" for k, v in r.items()), flush=True)
    record = {
        "command": "python3 bench/growth.py" + (
            f" --against {args.against}" if args.against else "")
        + f" --pairs {pairs}" + (" --smoke" if args.smoke else ""),
        "against": args.against,
        "against_commit": args.against and subprocess.run(
            ["git", "rev-parse", args.against], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "plan": [list(p) for p in plan],
        "first_side": first,
        "units": {"peak_rss_mb": "MB",
                  "loadavg_1m": "one-minute load average before the job",
                  "other stages": "s of CPU"},
        "jobs": summarise(runs, sides),
    }
    with open("BENCH_growth.json", "w") as f:
        json.dump(record, f, indent=1)
    print(f"wrote {os.path.abspath('BENCH_growth.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
