"""Benchmark runner for dworklie.

Run from the repository root:

    python3 perfbench/run.py --workload chart_cold --seed 1 --seconds 10 --trace 0

Workloads: chart_cold, roundtrip, cli_sweep (see perfbench/NOTES.md).  Each
sample runs in a fresh interpreter (perfbench/worker.py, with PYTHONPATH=src,
a fixed hash seed and no bytecode writes), one after the other, so the
program is single-threaded throughout.

--trace 0 reports the end-to-end metrics: set-up time (median of several
fresh set-ups), wall time of the measured section, and peak RSS.  The two
times are rescaled to a reference core speed sampled during each timed
section (worker.Speed); the times as measured are printed as raw_*.
--trace 1 runs the measured section once untraced and once traced, and
reports the per-layer metrics plus the tracing overhead.  Both print a
human-readable report, then the result as one JSON line.

--smoke runs every workload at n <= 3 and h = 1 through the same checks.
--record-digests rewrites perfbench/digests.json from the current program.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import MEMO, TRACED  # noqa: E402

WORKLOADS = ("chart_cold", "roundtrip", "cli_sweep")
# fresh set-ups per --trace 0 run; the measuring interpreter is one of them
SETUP_SAMPLES = {"chart_cold": 15, "roundtrip": 3, "cli_sweep": 15}
DEADLINE_S = 170


def per_layer_names():
    names = []
    for name, _, _ in TRACED:
        names += [f"{name}.self_s", f"{name}.calls"]
    for fn in MEMO:
        names += [f"memo.{fn}.hits", f"memo.{fn}.misses"]
    names += ["memo.hit_ratio", "trace.remainder_s", "trace.wall_s",
              "trace.overhead_s"]
    return names


class ChildFailed(Exception):
    pass


def run_worker(args, extra, deadline):
    """One fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed("time budget exhausted before a sample")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"sample exceeded the time budget: {' '.join(extra)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk("src/dworklie"):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith((".py", ".json")):
                path = os.path.join(dirpath, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of a git checkout, read from .git without running git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return None


def environment(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": git_rev(), "src_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "loadavg_start": list(os.getloadavg())}


def end_to_end(args, deadline):
    # half the extra set-ups before the measured run, half after it, so
    # that the median spans the run rather than one moment of the machine
    extra = SETUP_SAMPLES[args.workload] - 1
    setups = [run_worker(args, ["--setup-only"], deadline)
              for _ in range(extra // 2)]
    res = run_worker(args, [], deadline)
    setups += [res] + [run_worker(args, ["--setup-only"], deadline)
                       for _ in range(extra - extra // 2)]
    metrics = {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
               "wall_s": (res["wall_s"], "s"),
               "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    raw = {"raw_setup_s": (statistics.median(r["raw_setup_s"] for r in setups), "s"),
           "raw_wall_s": (res["raw_wall_s"], "s"),
           "speed": (res["speed"], "factor")}
    return metrics, [res], raw


def per_layer(args, deadline):
    plain = run_worker(args, [], deadline)
    traced = run_worker(args, ["--trace"], deadline)
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = (traced["raw_wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    assert set(metrics) == set(per_layer_names())
    return metrics, [plain, traced], {"untraced_wall_s": (plain["wall_s"], "s")}


def record_digests(args):
    """Write digests.json from the program as it is now."""
    deadline = time.monotonic() + 900
    out = {}
    for workload, smoke in (("chart_cold", False), ("chart_cold", True),
                            ("cli_sweep", False)):
        sub = argparse.Namespace(**dict(vars(args), workload=workload, smoke=smoke))
        res = run_worker(sub, ["--record"], deadline)
        if res["failures"]:
            raise ChildFailed(f"{workload}: {res['failures']}")
        out.update(res["digests"])
    path = os.path.join(HERE, "digests.json")
    with open(path, "w") as f:
        json.dump(dict(sorted(out.items())), f, indent=1)
        f.write("\n")
    print(f"wrote {len(out)} digests to {os.path.relpath(path)}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="chart_cold")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "dworklie", "__init__.py")):
        print("error: run from the repository root; src/dworklie is missing",
              file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            return record_digests(args)
        env = environment(args)
        measure = per_layer if args.trace else end_to_end
        metrics, results, extra = measure(args, deadline)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())

    attempted = sum(r["attempted"] for r in results)
    failures = {}
    for r in results:
        failures.update(r["failures"])
    failed = sum(len(r["failures"]) for r in results)
    breakdown = results[0]["breakdown"]

    print("env: " + json.dumps(env))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in breakdown.items():
        print(f"{args.workload}.{name:<33} {value:>14.6g} {unit}")
    print(f"{'fail_ratio':<44} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    for label, why in failures.items():
        print(f"FAILED {label}: {'; '.join(why)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
