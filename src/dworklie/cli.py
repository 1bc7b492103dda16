"""Command-line front end.

Every subcommand emits a deterministic byte stream for a fixed invocation:
iteration follows the chart coordinate order, JSON keys are sorted, and no
timestamps or addresses leak into the output.  Exit codes: 0 emitted or all
checks passed, 1 a verification mismatch (a diff is printed), 2 a structural
failure, 64 a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction

from .chart import resolve_chart
from .closedforms import (ACTION, DECOMP3, DECOMP3_F0, OBSTRUCTION4_ENTRY,
                          OBSTRUCTION4_VALUE, REFERENCE, TRUNCATED,
                          matched_c, parse_field)
from .connection import check_pairing_invariance, full_connection
from .cy3 import cy3_dims, key_name, table_keys
from .errors import DworkError, Sl2Violation
from .group import (act, basis_pairs, decompose_elem, group_elem,
                    subgroup_counts)
from .liealg import (NotMember, Row, amsy_decompose, fR_identities, mismatch,
                     verify_flatness, verify_theorem2)
from .linalg import VecField, pairing_defect
from .modular import (basis_vf, modular_vf, sl2_triple, truncate_poly, weights)
from .ratfn import LATEX, RatFn, parse_ratfn, ratfn_string

EX_OK, EX_MISMATCH, EX_STRUCTURAL, EX_USAGE = 0, 1, 2, 64


# ---------------------------------------------------------------------------
# serialization

def field_lines(vf, coords):
    return [f"  {v}' = {ratfn_string(vf.get(v))}" for v in coords]


def field_json(vf, coords):
    comps = {}
    for v in coords:
        rf = vf.get(v)
        if not rf.is_zero:
            comps[v] = ratfn_string(rf)
    return {"components": comps}


def matrix_json(M):
    return [[ratfn_string(M.get1(i, j)) for j in range(1, M.ncols + 1)]
            for i in range(1, M.nrows + 1)]


def latex_field(vf, coords):
    parts = []
    for v in coords:
        comp = vf.get(v)
        if comp.is_zero:
            continue
        cs = ratfn_string(comp, LATEX)
        sign = "+"
        if len(comp.terms) > 1 and not cs.startswith("\\frac"):
            cs = f"\\left({cs}\\right)"
        elif cs.startswith("-"):
            sign, cs = "-", cs[1:]
        term = cs + "\\,\\frac{\\partial}{\\partial %s}" % LATEX.var(v)
        if not parts:
            parts.append(term if sign == "+" else "-" + term)
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"


def render_fields(named, coords, fmt):
    """(name, field) pairs as a json object, latex displays or text lines."""
    if fmt == "json":
        return {name: field_json(vf, coords) for name, vf in named}
    lines = []
    for name, vf in named:
        if fmt == "latex":
            lines += [f"% {name}", f"\\[ {latex_field(vf, coords)} \\]"]
        else:
            lines.append(f"{name}:")
            lines.extend(field_lines(vf, coords))
    return lines


def chart_doc(ch, obj, c_mode):
    return {
        "n": ch.n,
        "dim": ch.d,
        "ambient_vars": list(ch.coords),
        "relation": ch.relation_string(),
        "object": obj,
        "meta": {"c_mode": c_mode,
                 "rule_extrapolated": ch.rule_extrapolated},
    }


# ---------------------------------------------------------------------------
# reference displays

RA_FIELDS = ("modular", "weight", "lowering")


def _reference(ch):
    """The paper's displays for the chart ch, or None past n = 4: the three
    fields of REFERENCE parsed over ch.ring, and the relation printed as
    ch.relation_string() prints it."""
    ref = REFERENCE.get(ch.n)
    if ref is None:
        return None
    out = {name: VecField(ch.ring, parse_field(ch.ring, ref[name]))
           for name in RA_FIELDS}
    rel = ref["relation"]
    if rel is not None:
        lhs, rhs = rel.split(" = ")
        rel = f"{lhs} = {ratfn_string(parse_ratfn(ch.ring, rhs))}"
    out["relation"] = rel
    return out


# ---------------------------------------------------------------------------
# verification suites

def _value_row(name, got, want):
    """Row comparing got with want, each printed by its canonical string."""
    return Row(name, got == want, mismatch(want, got))


def _suite_omega(n, c, ref):
    ch = resolve_chart(n, c)
    checks = [Row("omega: connection preserves the pairing form",
                  check_pairing_invariance(ch))]
    R, Y = modular_vf(ch)
    A = full_connection(ch)
    Ymat = Y.matrix()
    checks.append(Row("omega: modular field contracts to the coupling band",
                      A.contract(R) == Ymat))
    checks.append(Row("omega: coupling band is pairing-antisymmetric",
                      pairing_defect(Ymat, ch.phi).is_zero))
    if ref is not None:
        checks.append(Row.compare("omega: modular field matches fixture", R,
                                  ref["modular"]))
        checks.append(_value_row("omega: chart relation matches fixture",
                                 ch.relation_string(), ref["relation"]))
    return checks


def _suite_theorem2(n, c, ref):
    return [Row(f"theorem2: {r.name}", r.equal, r.detail)
            for r in verify_theorem2(n, c)]


def _suite_sl2(n, c, ref):
    try:
        tr = sl2_triple(n, c)
    except Sl2Violation as e:
        return [Row("sl2: defining bracket relations", False, [str(e)])]
    checks = [Row("sl2: defining bracket relations", True)]
    if ref is not None:
        checks.append(Row.compare("sl2: lowering field matches fixture", tr.F,
                                  ref["lowering"]))
    return checks


def _suite_weights(n, c, ref):
    w, report = weights(n, c)
    checks = []
    for label, expect, actual, ok in report:
        checks.append(Row(f"weights: {label} is quasi-homogeneous of "
                          f"degree {expect}", ok, [f"actual degree {actual}"]))
    if ref is not None:
        checks.append(Row.compare("weights: grading field matches fixture",
                                  sl2_triple(n, c).Hf, ref["weight"]))
    checks += [Row(f"weights: {r.name}", r.equal, r.detail)
               for r in fR_identities(n, c)]
    return checks


def _suite_flatness(n, c, ref):
    R, _ = modular_vf(n, c)
    B = basis_vf(n, c)
    fields = [("R", R)]
    fields += [(f"B_{a}{b}", B[(a, b)]) for a, b in basis_pairs(n)]
    if n <= 3:
        pairs = [(i, j) for i in range(len(fields))
                 for j in range(i + 1, len(fields))]
    else:
        rng = random.Random(20260400 + n)
        pairs = []
        while len(pairs) < 5:
            i, j = rng.sample(range(len(fields)), 2)
            if i > j:
                i, j = j, i
            if (i, j) not in pairs:
                pairs.append((i, j))
    checks = []
    for i, j in pairs:
        ni, Vi = fields[i]
        nj, Vj = fields[j]
        checks.append(Row(f"flatness: [{ni}, {nj}]", verify_flatness(Vi, Vj)))
    return checks


def _suite_action(n, c, ref):
    checks = []
    if n in ACTION:
        formulas = act(n, c=c)
        want = parse_field(formulas["t1"].ring, ACTION[n])
        for v in resolve_chart(n, c).coords:
            checks.append(_value_row(
                f"action: moved coordinate {v} matches the closed form",
                formulas[v], want[v]))
    mult, add = subgroup_counts(n)
    rng = random.Random(20260800 + n)
    ok = True
    note = []
    for _ in range(10):
        params = [Fraction(rng.choice([1, 2, 3, -1, -2]),
                           rng.randint(1, 3)) for _ in range(mult)]
        params += [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(add)]
        g = group_elem(n, params, c=c)
        back = decompose_elem(n, g.matrix)
        if back != g.params:
            ok = False
            note = [f"params {params} came back as {back}"]
            break
    checks.append(Row("action: factor decomposition round-trips (10 draws)",
                      ok, note))
    return checks


def _suite_membership(n, c, ref):
    checks = []
    ch = resolve_chart(n, c)
    R, _ = modular_vf(ch)
    res = amsy_decompose(R, n, c)
    triv = (not isinstance(res, NotMember)
            and res[0] == RatFn.of(ch.ring, 1)
            and all(f.is_zero for f in res[1].values()))
    checks.append(Row("membership: modular field decomposes as itself", triv))
    # the truncation's closed forms are tabulated at the matched constant only
    if n in TRUNCATED and ch.c_value == matched_c(n):
        T = truncate_poly(R)
        checks.append(Row.compare(
            "membership: truncation matches the closed form", T,
            VecField(ch.ring, parse_field(ch.ring, TRUNCATED[n]))))
        res = amsy_decompose(T, n, c)
        if n == 3:
            if isinstance(res, NotMember):
                checks.append(Row("membership: truncated field decomposes",
                                  False, [repr(res)]))
            else:
                f0, coeffs = res
                checks.append(_value_row(
                    "membership: leading coefficient", f0,
                    parse_ratfn(ch.ring, DECOMP3_F0)))
                for key in sorted(coeffs):
                    exp = (parse_ratfn(ch.ring, DECOMP3[key])
                           if key in DECOMP3 else None)
                    got = coeffs[key]
                    ok = got.is_zero if exp is None else got == exp
                    checks.append(Row(
                        f"membership: coefficient on basis {key}", ok,
                        [f"got {ratfn_string(got)}"]))
        if n == 4:
            ok = (isinstance(res, NotMember)
                  and res.entry == OBSTRUCTION4_ENTRY
                  and res.value == parse_ratfn(ch.ring, OBSTRUCTION4_VALUE))
            detail = [] if ok else [repr(res)]
            checks.append(Row(
                "membership: truncated field is obstructed at "
                f"{OBSTRUCTION4_ENTRY}", ok, detail))
    return checks


# in the order verify --suite all runs them
SUITE_FN = {
    "sl2": _suite_sl2,
    "theorem2": _suite_theorem2,
    "flatness": _suite_flatness,
    "action": _suite_action,
    "omega": _suite_omega,
    "weights": _suite_weights,
    "membership": _suite_membership,
}
SUITES = tuple(SUITE_FN)


# ---------------------------------------------------------------------------
# subcommands
#
# A chart command gets the resolved chart and returns its object for
# --format json and its output lines otherwise, or (result, exit code) when
# the code can be EX_MISMATCH; main() frames and prints the result.

def _c_mode(cn):
    if cn is None:
        return "matched"
    return "symbolic" if cn == "sym" else "explicit"


def _c_text(ch, cn):
    if cn is None:
        return str(matched_c(ch.n))
    return "symbolic" if cn == "sym" else str(cn)


def cmd_build(ch, args):
    if args.format == "json":
        A = full_connection(ch)
        return {
            "dependent_slots": {f"{i},{j}": ratfn_string(e)
                                for (i, j), e in sorted(ch.dep_exprs.items())},
            "disc": ratfn_string(ch.disc),
            "connection": {v: matrix_json(A.get(v)) for v in ch.coords},
        }
    out = [f"coordinates: {' '.join(ch.coords)}",
           f"dim: {ch.d}",
           f"relation: {ch.relation_string() or 'none'}",
           f"disc: {ratfn_string(ch.disc)}"]
    for (i, j), e in sorted(ch.dep_exprs.items()):
        out.append(f"dependent slot ({i},{j}): {ratfn_string(e)}")
    if ch.rule_extrapolated:
        out.append("note: coupling rule extrapolated beyond the tabulated "
                   "dimensions")
    return out


def cmd_ra(ch, args):
    tr = sl2_triple(ch)  # its raising field is the modular field
    named = zip(RA_FIELDS, (tr.E, tr.Hf, tr.F))
    out = render_fields(named, ch.coords, args.format)
    if args.format == "json" or not ch.relation_string():
        return out
    if args.format == "latex":
        rel = ratfn_string(ch.kappa * ch.disc, LATEX)
        return out + ["% relation",
                      f"\\[ {LATEX.var(ch.pivot_var)}^{{2}} = {rel} \\]"]
    return out + [f"relation: {ch.relation_string()}"]


def cmd_basis(ch, args):
    B = basis_vf(ch)
    if args.format == "json":
        named = [(f"{a},{b}", B[(a, b)]) for a, b in basis_pairs(args.n)]
        return {"fields": render_fields(named, ch.coords, "json")}
    named = [(f"basis ({a},{b})", B[(a, b)]) for a, b in basis_pairs(args.n)]
    return render_fields(named, ch.coords, args.format)


def cmd_sl2(ch, args):
    tr = sl2_triple(ch)
    named = (("raising", tr.E), ("lowering", tr.F), ("grading", tr.Hf))
    out = render_fields(named, ch.coords, args.format)
    if args.format == "text":
        out.append("brackets: [raising, lowering] = grading, "
                   "[grading, raising] = 2*raising, "
                   "[grading, lowering] = -2*lowering (verified)")
    return out


def cmd_weights(ch, args):
    w, report = weights(ch)
    code = EX_OK if all(r[3] for r in report) else EX_MISMATCH
    if args.format == "json":
        return {"weights": {v: w[v] for v in ch.coords},
                "degree_report": [
                    {"label": label, "expected": expect,
                     "actual": actual, "ok": ok}
                    for label, expect, actual, ok in report]}, code
    out = [f"w({v}) = {w[v]}" for v in ch.coords]
    out += _row_lines(Row(f"{label}: degree {actual} (expected {expect})", ok)
                      for label, expect, actual, ok in report)
    return out, code


def _row_lines(rows):
    """Each row's ok/FAIL line, a failing row followed by its detail."""
    out = []
    for r in rows:
        out.append(repr(r))
        out.extend("  " + ln for ln in ([] if r.equal else r.detail))
    return out


def cmd_brackets(ch, args):
    rows = list(verify_theorem2(ch))
    rows += fR_identities(ch)
    code = EX_OK if all(r.equal for r in rows) else EX_MISMATCH
    if args.format == "json":
        return {"rows": [{"name": r.name, "ok": r.equal} for r in rows]}, code
    return _row_lines(rows), code


def cmd_action(ch, args):
    formulas = act(args.n, c=args.cn)
    mult, add = subgroup_counts(args.n)
    if args.format == "json":
        return {"parameters": [f"g{i}" for i in range(1, ch.d)],
                "multiplicative": mult, "additive": add,
                "formulas": {v: ratfn_string(formulas[v])
                             for v in ch.coords}}
    out = [f"parameters: g1..g{ch.d - 1} "
           f"({mult} multiplicative, {add} additive)"]
    for v in ch.coords:
        if args.format == "latex":
            out.append(f"\\[ {LATEX.var(v)} \\mapsto "
                       f"{ratfn_string(formulas[v], LATEX)} \\]")
        else:
            out.append(f"{v} -> {ratfn_string(formulas[v])}")
    return out


def cmd_decompose(ch, args):
    R, _ = modular_vf(ch)
    res = amsy_decompose(truncate_poly(R), args.n, args.cn)
    if isinstance(res, NotMember):
        value = ratfn_string(res.value)
        obj = {"member": False, "entry": list(res.entry), "value": value}
        lines = ["member: no", "entry ({},{}): ".format(*res.entry) + value]
        if res.reason:
            obj["reason"] = res.reason
            lines.append(f"reason: {res.reason}")
    else:
        f0, coeffs = res
        cs = {f"{a},{b}": ratfn_string(f)
              for (a, b), f in sorted(coeffs.items()) if not f.is_zero}
        obj = {"member": True, "f0": ratfn_string(f0), "coefficients": cs}
        lines = ["member: yes", f"f0 = {obj['f0']}"]
        lines += [f"basis ({k}): {s}" for k, s in cs.items()]
    if args.format == "json":
        return obj
    return ["decomposing the polynomial truncation of the modular field:"
            ] + lines


def cmd_verify(ch, args):
    ref = _reference(ch) if args.cn is None else None
    checks = []
    for name in SUITES if args.suite == "all" else (args.suite,):
        checks.extend(SUITE_FN[name](args.n, args.cn, ref))
    code = EX_OK if all(c.equal for c in checks) else EX_MISMATCH
    if args.format == "json":
        return {"checks": [{"name": c.name, "ok": c.equal}
                           for c in checks]}, code
    out = [f"verify n={args.n} c={_c_text(ch, args.cn)} suite={args.suite}"]
    # this line and the "matches fixture" row names predate REFERENCE; they
    # keep their wording so that verify's output stays as recorded
    if ref is None and args.cn is None:
        out.append(f"fixtures: none found for n={args.n} "
                   "(fixture comparisons skipped)")
    out += _row_lines(checks)
    out.append(f"summary: {len(checks)} checks, "
               f"{sum(not c.equal for c in checks)} failed")
    return out, code


def cmd_cy3(ch, args):
    frame, dim_g, dim_m = cy3_dims(args.h)
    names = [key_name(args.h, k) for k in table_keys(args.h)]
    if args.format == "json":
        return {
            "n": args.h,
            "dim": dim_g,
            "ambient_vars": [],
            "relation": None,
            "object": {"frame_size": frame,
                       "algebra_dim": dim_g,
                       "moduli_dim": dim_m,
                       "basis": names},
            "meta": {"c_mode": "none", "rule_extrapolated": False},
        }
    return [f"h = {args.h}",
            f"frame size: {frame}",
            f"algebra dim: {dim_g}",
            f"moduli dim: {dim_m}",
            f"basis: {' '.join(names)}"]


# ---------------------------------------------------------------------------
# argument parsing

class UsageError(Exception):
    def __init__(self, parser, message):
        self.parser = parser
        super().__init__(message)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(self, message)


def _n_arg(s):
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}")
    if v < 1:
        raise argparse.ArgumentTypeError("dimension must be at least 1")
    return v


def _cn_arg(s):
    if s == "symbolic":
        return "sym"
    try:
        # an integer, p/q or a plain decimal: Fraction expands an exponent
        if not re.fullmatch(r"[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)", s):
            raise ValueError(s)
        c = Fraction(s)
        str(c)  # parts past the interpreter's int-string limit cannot print
        return c
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number or 'symbolic', got {s!r}")


# The --format choices of a command, each mapped to whether main() puts the
# "n = ...  (c = ...)" header before the output lines; cy3 and verify print
# their own header.  Commands with --n get --cn and the resolved chart.
# build, weights, brackets and decompose print text for latex.
HEADED = {"text": True, "json": False, "latex": True}
BARE_LATEX = {"text": True, "json": False, "latex": False}
OWN_HEADER = {"text": False, "json": False}

COMMANDS = {
    "build": (cmd_build, "emit the chart data", "n", HEADED),
    "ra": (cmd_ra, "emit the modular, grading, and lowering fields", "n",
           BARE_LATEX),
    "basis": (cmd_basis, "emit the canonical basis fields", "n", HEADED),
    "sl2": (cmd_sl2, "emit the verified sl2 triple", "n", BARE_LATEX),
    "weights": (cmd_weights, "emit coordinate weights and degree checks", "n",
                HEADED),
    "brackets": (cmd_brackets, "emit the bracket table checks", "n", HEADED),
    "action": (cmd_action, "emit the symbolic group action", "n", HEADED),
    "decompose": (cmd_decompose,
                  "decompose the truncated modular field", "n", HEADED),
    "cy3": (cmd_cy3, "emit the threefold block-model dimensions", "h",
            OWN_HEADER),
    "verify": (cmd_verify, "run verification suites", "n", OWN_HEADER),
}


def build_parser():
    top = Parser(prog="dworklie",
                 description="exact reconstructions for the Dwork family")
    sub = top.add_subparsers(dest="command", metavar="command")
    for name, (fn, help_text, dim_flag, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if dim_flag == "h":
            p.add_argument("--h", type=_n_arg, required=True,
                           help="number of deformation directions")
        else:
            p.add_argument("--n", type=_n_arg, required=True,
                           help="family dimension (at least 1)")
            p.add_argument("--cn", type=_cn_arg, default=None, metavar="C",
                           help="rational constant or 'symbolic' "
                                "(default: matched value)")
            # so that -1/64 is read as a value, as -2 and -0.5 are
            p._negative_number_matcher = re.compile(
                r"^-\d+(/\d+)?$|^-\d*\.\d+$")
        if name == "verify":
            p.add_argument("--suite", choices=("all",) + SUITES,
                           default="all")
        p.add_argument("--format", choices=tuple(formats), default="text")
    return top


# argparse leaves a parser as it was after parse_args, so one parser serves
# every main() call of a process
_parser = functools.cache(build_parser)


def _emit(args):
    """The stdout lines and exit code of one parsed command."""
    fn, _, dim_flag, formats = COMMANDS[args.command]
    ch = None
    if dim_flag == "n":
        ch = resolve_chart(args.n, args.cn)
    result = fn(ch, args)
    out, code = result if isinstance(result, tuple) else (result, EX_OK)
    if isinstance(out, dict):
        doc = out if ch is None else chart_doc(ch, out, _c_mode(args.cn))
        return [json.dumps(doc, sort_keys=True, indent=2)], code
    if formats[args.format]:
        out = [f"n = {ch.n}  (c = {_c_text(ch, args.cn)})"] + out
    return out, code


def main(argv=None):
    top = _parser()
    try:
        args = top.parse_args(argv)
    except UsageError as e:
        e.parser.print_usage(sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    if args.command is None:
        top.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return EX_USAGE
    try:
        out, code = _emit(args)
    except DworkError as e:
        print(f"structural failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_STRUCTURAL
    for line in out:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
