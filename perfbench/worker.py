"""One measurement of one workload, in a fresh interpreter.

run.py starts this file once per sample, from the repository root, with
``PYTHONPATH=src``.  The worker does the workload's set-up, runs its measured
section, then checks every result, and prints one JSON object as the last
line of stdout.  Every run starts in a fresh interpreter because the module
memo dicts and the gcd certificate RNG carry state between calls.  Times are
reported as measured (raw_*) and rescaled to a reference core speed (Speed).

The set-up time covers ``import dworklie`` and the workload's setup() only.
Before the set-up clock starts, the worker has loaded no module that the
package imports, other than those the interpreter loads at start-up.  It
parses its arguments by hand, without argparse, and imports json, random,
fractions and hashlib only once the clock has started or stopped.

    PYTHONPATH=src python3 perfbench/worker.py --workload roundtrip --seed 1 \\
        --seconds 10 [--trace] [--setup-only] [--smoke] [--record]
"""

import io
import os
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import repeat

# ref_unit() on the 2-CPU machine the benchmark was written on
REF_S = 0.6e-3


def ref_unit():
    """Best of three timings of a fixed, allocation-free bytecode loop that
    touches no program data: the current speed of this core."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for _ in repeat(None, 20000):
            s ^= 1
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Core speed over one timed section: ref_unit() once before it, every
    0.25 s inside it (SIGALRM), and once after it.  On a shared machine the
    speed of a core drifts by 10-30 % within seconds.  factor() rescales a
    time measured in the section to the reference speed REF_S: each
    sampling interval counts at the speed sampled in it.  With a tracer,
    the time of each sample inside the section is charged to the active
    span as child time, so it shows in no span's self time."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = [ref_unit()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.25, 0.25)

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(ref_unit())
        if self.tracer is not None:
            self.tracer.stack[-1] += time.perf_counter_ns() - t0

    def factor(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(ref_unit())
        return REF_S * sum(1 / s for s in self.samples) / len(self.samples)


HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# measured round-trip pairs per requested second, on a 2-CPU machine
ROUNDTRIP_PAIRS_PER_S = 3
CLI_COMMANDS = ("build", "ra", "basis", "sl2", "weights", "brackets",
                "action", "decompose")


def sha(text):
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


def tail_stat(samples):
    """(p50, tail value, tail percentile): the tail is the highest
    percentile with at least ten samples beyond it (or the median when
    there are fewer than 21 samples)."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 11, (n - 1) // 2)
    p50 = xs[(n - 1) // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2
    return p50, xs[k], round(100 * k / (n - 1)) if n > 1 else 50


class Ops:
    """Operations attempted, and the reasons each failed operation failed.
    An operation fails at most once, however many of its checks fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}

    def run(self, label, fn, *args):
        """Time one operation; an exception counts as a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # DworkError or a bug: both fail the op
            result = None
            self.fail(label, f"{type(e).__name__}: {e}")
        return result, time.perf_counter() - t0

    def fail(self, label, why):
        self.failed.setdefault(label, []).append(why)

    def expect(self, label, ok, why):
        if not ok:
            self.fail(label, why)


def compare(digests, key, text):
    """True when text matches its recorded digest, or in record mode
    (digests is None)."""
    return digests is None or digests.get(key) == sha(text)


# ---------------------------------------------------------------------------
# workloads

class ChartCold:
    """resolve_chart, full_connection, modular_vf and basis_vf once each,
    for n = 5 then n = 6, starting from an empty cache."""

    def __init__(self, smoke, seed, seconds):
        self.ns = (2, 3) if smoke else (5, 6)

    def setup(self, dw):
        pass

    def measure(self, dw, ops):
        self.built = {}
        times = {}
        for n in self.ns:
            ch, t1 = ops.run(f"resolve_chart({n})", dw.resolve_chart, n)
            A, t2 = ops.run(f"full_connection({n})", dw.full_connection, ch)
            RY, t3 = ops.run(f"modular_vf({n})", dw.modular_vf, n)
            B, t4 = ops.run(f"basis_vf({n})", dw.basis_vf, n)
            self.built[n] = (ch, A, RY, B)
            times[f"construct_n{n}_s"] = (t1 + t2 + t3 + t4, "s")
        return times

    def canonical(self, dw, n):
        from dworklie.ratfn import ratfn_string as rs
        ch, A, (R, Y), B = self.built[n]
        chart = [f"{i},{j}: {rs(e)}" for (i, j), e in sorted(ch.dep_exprs.items())]
        chart.append(f"kappa: {rs(ch.kappa) if ch.kappa is not None else None}")
        modular = [f"{v}: {rs(R.get(v))}" for v in R.vars()]
        basis = [f"{a},{b} {v}: {rs(V.get(v))}"
                 for (a, b), V in sorted(B.items()) for v in V.vars()]
        return {"chart": "\n".join(chart), "modular": "\n".join(modular),
                "basis": "\n".join(basis)}

    def check(self, dw, ops, digests):
        out = {}
        for n in self.ns:
            ch, A, RY, B = self.built[n]
            if ch is None or A is None or RY is None or B is None:
                continue  # the failed op is already counted
            R, Y = RY
            op = {"chart": f"resolve_chart({n})", "modular": f"modular_vf({n})",
                  "basis": f"basis_vf({n})"}
            for part, text in self.canonical(dw, n).items():
                key = f"chart_cold/n{n}/{part}"
                out[key] = sha(text)
                ops.expect(op[part], compare(digests, key, text),
                           f"digest {key}")
            ops.expect(op["modular"], A.contract(R) == Y.matrix(),
                       "A.contract(R) != Y.matrix()")
            ops.expect(f"full_connection({n})", dw.check_pairing_invariance(ch, A),
                       "pairing invariance fails")
        return out


class Roundtrip:
    """Numeric round trips on warm charts: group_elem(5) -> decompose_elem
    and membership_build(n=4) -> amsy_decompose, with seeded draws."""

    def __init__(self, smoke, seed, seconds):
        self.group_n, self.member_n = (3, 3) if smoke else (5, 4)
        self.pairs = 3 if smoke else max(2, round(seconds * ROUNDTRIP_PAIRS_PER_S))
        self.seed = seed

    def setup(self, dw):
        import random
        from fractions import Fraction
        from dworklie.group import basis_pairs, subgroup_counts
        for n in sorted({self.group_n, self.member_n}):
            ch = dw.resolve_chart(n)
            dw.full_connection(ch)
            dw.modular_vf(n)
            dw.basis_vf(n)
        rng = random.Random(self.seed)
        mult, add = subgroup_counts(self.group_n)
        ring = dw.resolve_chart(self.member_n).ring
        pairs = basis_pairs(self.member_n)
        t1 = dw.RatFn.var(ring, "t1")
        self.inputs = []
        for _ in range(self.pairs):
            params = [Fraction(rng.choice([1, 2, 3, -1, -2, -3]), rng.randint(1, 4))
                      for _ in range(mult)]
            params += [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(add)]
            f0 = dw.RatFn.of(ring, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            coeffs = {p: (t1 ** rng.randint(0, 2)) * rng.randint(-3, 3)
                      for p in rng.sample(pairs, min(2, len(pairs)))}
            self.inputs.append((params, f0, coeffs))

    def measure(self, dw, ops):
        gn, mn = self.group_n, self.member_n
        self.results = []
        g_ms, m_ms = [], []

        def group_rt(params):
            return dw.decompose_elem(gn, dw.group_elem(gn, params).matrix)

        def member_rt(f0, coeffs):
            return dw.amsy_decompose(dw.membership_build(f0, coeffs, mn), mn)

        for params, f0, coeffs in self.inputs:
            i = len(self.results)
            got_g, tg = ops.run(f"group round trip {i}", group_rt, params)
            got_m, tm = ops.run(f"membership round trip {i}", member_rt, f0, coeffs)
            g_ms.append(tg * 1e3)
            m_ms.append(tm * 1e3)
            self.results.append((got_g, got_m))
        out = {}
        for name, xs in (("group_rt", g_ms), ("member_rt", m_ms)):
            p50, tail, pct = tail_stat(xs)
            out[f"{name}_p50_ms"] = (p50, "ms")
            out[f"{name}_tail_ms"] = (tail, "ms")
            out[f"{name}_tail_pct"] = (pct, "percentile")
            out[f"{name}_samples"] = (len(xs), "count")
        return out

    def check(self, dw, ops, digests):
        from dworklie.group import basis_pairs
        gring = dw.resolve_chart(self.group_n).ring
        mring = dw.resolve_chart(self.member_n).ring
        zero = dw.RatFn.of(mring, 0)
        pairs = basis_pairs(self.member_n)
        for i, ((params, f0, coeffs), (got_g, got_m)) in enumerate(
                zip(self.inputs, self.results)):
            if got_g is not None:
                want = [dw.RatFn.of(gring, p) for p in params]
                ops.expect(f"group round trip {i}", got_g == want,
                           "parameters not recovered")
            if got_m is not None:
                ok = not isinstance(got_m, dw.NotMember) and got_m[0] == f0 and all(
                    got_m[1][p] == coeffs.get(p, zero) for p in pairs)
                ops.expect(f"membership round trip {i}", ok,
                           "coefficients not recovered")
        return {}


class CliSweep:
    """In-process dworklie.cli.main over every command for n = 1..5, then
    the threefold block tables for h = 1..3."""

    def __init__(self, smoke, seed, seconds):
        self.ns = (1, 2, 3) if smoke else (1, 2, 3, 4, 5)
        self.hs = (1,) if smoke else (1, 2, 3)

    def setup(self, dw):
        import dworklie.cli  # noqa: F401

    def argvs(self, n):
        for cmd in CLI_COMMANDS:
            yield [cmd, "--n", str(n), "--format", "json"]
        yield ["verify", "--n", str(n), "--suite", "all"]

    def measure(self, dw, ops):
        cli = sys.modules["dworklie.cli"]

        def call(argv):
            buf, err = io.StringIO(), io.StringIO()
            with redirect_stdout(buf), redirect_stderr(err):
                code = cli.main(argv)
            return code, buf.getvalue()

        self.outputs = []
        times = {}
        for n in self.ns:
            total = 0.0
            for argv in self.argvs(n):
                res, t = ops.run(" ".join(argv), call, argv)
                total += t
                self.outputs.append((argv, res))
            times[f"cli_n{n}_s"] = (total, "s")
        self.cy3 = []
        total = 0.0
        for h in self.hs:
            rep, t1 = ops.run(f"verify_cy3_table({h})", dw.verify_cy3_table, h)
            sl2, t2 = (ops.run(f"cy3_sl2({h})", dw.cy3_sl2, h, rep)
                       if rep is not None else (None, 0.0))
            total += t1 + t2
            self.cy3.append((h, rep, sl2))
        times["cy3_s"] = (total, "s")
        return times

    def check(self, dw, ops, digests):
        out = {}
        for argv, res in self.outputs:
            if res is None:
                continue
            code, text = res
            label = " ".join(argv)
            key = "cli/" + label
            out[key] = sha(text)
            ops.expect(label, code == 0, f"exit code {code}")
            ops.expect(label, compare(digests, key, text),
                       f"digest {key}")
        for h, rep, sl2 in self.cy3:
            if rep is None or sl2 is None:
                continue
            ops.expect(f"verify_cy3_table({h})", rep.all_ok, "all_ok is false")
            ops.expect(f"cy3_sl2({h})", sl2.all_ok, "all_ok is false")
            text = "\n".join(repr(r) for r in list(rep) + list(sl2))
            key = f"cy3/h{h}"
            out[key] = sha(text)
            ops.expect(f"verify_cy3_table({h})",
                       compare(digests, key, text), f"digest {key}")
        return out


WORKLOADS = {"chart_cold": ChartCold, "roundtrip": Roundtrip,
             "cli_sweep": CliSweep}


# ---------------------------------------------------------------------------

FLAGS = ("--trace", "--setup-only", "--smoke", "--record")
OPTIONS = {"--workload": str, "--seed": int, "--seconds": float}


def parse_args(argv):
    """The arguments run.py passes.  argparse is not used: dworklie.cli
    imports it, and loading it here first would hide part of that cost."""
    args = dict.fromkeys((f[2:].replace("-", "_") for f in FLAGS), False)
    it = iter(argv)
    for a in it:
        if a in FLAGS:
            args[a[2:].replace("-", "_")] = True
        elif a in OPTIONS:
            args[a[2:]] = OPTIONS[a](next(it))
        else:
            sys.exit(f"worker: unknown argument {a}")
    if args.get("workload") not in WORKLOADS or "seed" not in args \
            or "seconds" not in args:
        sys.exit("worker: --workload, --seed and --seconds are required")
    return args


def main():
    args = parse_args(sys.argv[1:])
    wl = WORKLOADS[args["workload"]](args["smoke"], args["seed"], args["seconds"])
    tracer = None
    if args["trace"]:
        # installing imports the package, so a traced run has no set-up time
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_speed = Speed()
    t0 = time.perf_counter()
    import dworklie as dw
    wl.setup(dw)
    raw_setup_s = time.perf_counter() - t0
    setup_s = raw_setup_s * setup_speed.factor()
    import json
    import resource
    if args["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    ops = Ops()
    if tracer is not None:
        tracer.reset()
    speed = Speed(tracer)
    t0 = time.perf_counter_ns()
    breakdown = wl.measure(dw, ops)
    wall_ns = time.perf_counter_ns() - t0
    scale = speed.factor()
    # before the checks, so that their own peak does not count
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    breakdown = {k: (v * scale if unit in ("s", "ms") else v, unit)
                 for k, (v, unit) in breakdown.items()}
    layers = tracer.snapshot(wall_ns) if tracer is not None else None

    digests = None
    if not args["record"]:
        with open(DIGESTS) as f:
            digests = json.load(f)
    recorded = wl.check(dw, ops, digests)
    print(json.dumps({
        "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "wall_s": wall_ns / 1e9 * scale, "raw_wall_s": wall_ns / 1e9,
        "speed": scale,
        "peak_rss_mb": peak, "breakdown": breakdown,
        "attempted": ops.attempted, "failures": ops.failed,
        "layers": layers, "digests": recorded if args["record"] else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
