"""Outside-in tracing of the dworklie layers.

The tracer wraps public functions and methods of the package from the
outside: nothing in ``src/`` changes.  Each wrapper is a span.  A span's
self time is its duration minus the time covered by the spans it caused.
The remainder is the time of the measured window spent in no span: the
harness's own work between calls.  Code added to ``stack[-1]`` from outside
(the speed sampler) counts as child time of the active span, so it shows
in neither.

The four memoised entry points are also counted as hits and misses.  A call
is a hit when it returns the same object (for a tuple result: the same
elements) as an earlier call with equal arguments.
"""

import functools
import importlib
import inspect
import sys
from fractions import Fraction
from time import perf_counter_ns

# (metric prefix, module, attribute); "Class.method" patches the class.
TRACED = (
    ("geometry.pairing_matrix", "geometry", "pairing_matrix"),
    ("geometry.frame_connection", "geometry", "frame_connection"),
    ("chart.build_chart", "chart", "build_chart"),
    ("chart.resolve_chart", "chart", "resolve_chart"),
    ("connection.full_connection", "connection", "full_connection"),
    ("connection.vf_from_target", "connection", "vf_from_target"),
    ("connection.check_pairing_invariance", "connection",
     "check_pairing_invariance"),
    ("modular.modular_vf", "modular", "modular_vf"),
    ("modular.basis_vf", "modular", "basis_vf"),
    ("modular.sl2_triple", "modular", "sl2_triple"),
    ("modular.weights", "modular", "weights"),
    ("modular.truncate_poly", "modular", "truncate_poly"),
    ("liealg.verify_theorem2", "liealg", "verify_theorem2"),
    ("liealg.verify_flatness", "liealg", "verify_flatness"),
    ("liealg.fR_identities", "liealg", "fR_identities"),
    ("liealg.amsy_decompose", "liealg", "amsy_decompose"),
    ("liealg.membership_build", "liealg", "membership_build"),
    ("group.group_elem", "group", "group_elem"),
    ("group.decompose_elem", "group", "decompose_elem"),
    ("group.act", "group", "act"),
    ("group.compose", "group", "compose"),
    ("group.symbolic_elem", "group", "symbolic_elem"),
    ("cy3.verify_cy3_table", "cy3", "verify_cy3_table"),
    ("cy3.cy3_sl2", "cy3", "cy3_sl2"),
    ("linalg.matmul", "linalg", "MatF.__matmul__"),
    ("linalg.inverse", "linalg", "MatF.inverse"),
    ("linalg.contract", "linalg", "OneFormMat.contract"),
    ("linalg.bracket", "linalg", "VecField.bracket"),
    ("linalg.solve_linear", "linalg", "solve_linear"),
    ("ratfn.add", "ratfn", "RatFn.__add__"),
    ("ratfn.mul", "ratfn", "RatFn.__mul__"),
    ("ratfn.normalize", "ratfn", "RatFn.__init__"),
    ("cli.main", "cli", "main"),
)

MEMO = ("resolve_chart", "full_connection", "modular_vf", "basis_vf")


def _arg_key(v):
    if v is None or isinstance(v, (int, str, Fraction)):
        return v
    return ("id", id(v))


def _ident(result):
    if type(result) is tuple:
        return tuple(id(x) for x in result)
    return id(result)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.stack = [0]
        self.self_ns = dict.fromkeys(self.names, 0)
        self.calls = dict.fromkeys(self.names, 0)
        self.hits = dict.fromkeys(MEMO, 0)
        self.misses = dict.fromkeys(MEMO, 0)
        self._seen = {fn: {} for fn in MEMO}
        self._keep = []

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn):
        stack, self_ns, calls = self.stack, self.self_ns, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[name] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
        return span

    def _memo(self, short, fn):
        sig = inspect.signature(fn)
        seen, keep = self._seen[short], self._keep

        @functools.wraps(fn)
        def memo(*args, **kwargs):
            result = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(_arg_key(v) for v in bound.arguments.values())
            ident = _ident(result)
            if seen.get(key) == ident:
                self.hits[short] += 1
            else:
                self.misses[short] += 1
                seen[key] = ident
                keep.append((bound.arguments, result))
            return result
        return memo

    # -- installation -------------------------------------------------------
    def install(self):
        """Patch every dworklie module binding of each traced function, and
        each traced method on its class."""
        homes = {mod: importlib.import_module(f"dworklie.{mod}")
                 for _, mod, _ in TRACED}
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "dworklie" or k.startswith("dworklie."))]
        for name, modname, attr in TRACED:
            home = homes[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._span(name, orig)
                for k, v in list(cls.__dict__.items()):
                    if v is orig:
                        setattr(cls, k, wrapped)
                continue
            orig = getattr(home, attr)
            wrapped = self._span(name, orig)
            if attr in MEMO:
                wrapped = self._memo(attr, wrapped)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)

    # -- measurement window -------------------------------------------------
    def reset(self):
        """Zero every counter; memo history is kept, so a call that repeats
        a set-up call still counts as a hit."""
        assert len(self.stack) == 1, "reset inside a span"
        self.stack[0] = 0
        for d in (self.self_ns, self.calls, self.hits, self.misses):
            for k in d:
                d[k] = 0

    def snapshot(self, wall_ns):
        """Per-layer metrics for a measured window of wall_ns."""
        out = {}
        for name in self.names:
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        hits = misses = 0
        for fn in MEMO:
            out[f"memo.{fn}.hits"] = (self.hits[fn], "count")
            out[f"memo.{fn}.misses"] = (self.misses[fn], "count")
            hits += self.hits[fn]
            misses += self.misses[fn]
        out["memo.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                 "ratio")
        out["trace.remainder_s"] = ((wall_ns - self.stack[0]) / 1e9, "s")
        return out
