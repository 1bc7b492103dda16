"""Self-check of the benchmark runner, in smoke mode (n <= 3, h = 1).

    python3 perfbench/check_runner.py

For every workload it runs ``run.py --smoke`` untraced once and traced
twice, and checks that:
- every operation passes its checks and the metric names match BENCHMARK.json;
- the two traced runs report identical call and memo counts;
- the spans cover the traced run: the time in no span (the remainder) is
  under 5 % of the traced wall time;
- the memo hit ratio is 1 on roundtrip (all charts warm in set-up).
It also checks that the digest comparison rejects an output that differs
from the recorded one in a single byte.  Takes about a minute.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, "src"]

import worker  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(res):
    return {k: v["value"] for k, v in res["metrics"].items()
            if k.endswith((".calls", ".hits", ".misses")) or k == "memo.hit_ratio"}


def check_digest_sensitivity():
    from dworklie.cli import main
    with open(worker.DIGESTS) as f:
        digests = json.load(f)
    argv = ["ra", "--n", "1", "--format", "json"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    text = buf.getvalue()
    key = "cli/" + " ".join(argv)
    assert worker.compare(digests, key, text) is True
    i = len(text) // 2
    flipped = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    assert worker.compare(digests, key, flipped) is False


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    for w in WORKLOADS:
        plain = run(w, 0)
        t1, t2 = run(w, 1), run(w, 1)
        for res in (plain, t1, t2):
            assert res["correct"] and res["failed"] == 0, (w, res)
        assert set(plain["metrics"]) == e2e, (w, set(plain["metrics"]) ^ e2e)
        assert set(t1["metrics"]) == layers, (w, set(t1["metrics"]) ^ layers)
        assert counts(t1) == counts(t2), (w, "traced counts differ")
        m = {k: v["value"] for k, v in t1["metrics"].items()}
        assert 0 <= m["trace.remainder_s"] < 0.05 * m["trace.wall_s"], (w, m)
        if w == "roundtrip":
            assert m["memo.hit_ratio"] == 1.0, m["memo.hit_ratio"]
        print(f"ok  {w}: {plain['attempted']} ops, memo.hit_ratio "
              f"{m['memo.hit_ratio']:.3f}, remainder "
              f"{m['trace.remainder_s'] / m['trace.wall_s']:.2%} of traced wall, "
              f"tracing overhead {m['trace.overhead_s']:.3f} s")
    check_digest_sensitivity()
    print("ok  a one-byte change in an output fails its digest")


if __name__ == "__main__":
    main()
