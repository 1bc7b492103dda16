"""Pinned scaling constants for the low dimensions, the reference displays
they reproduce, and the derivation that recovers each constant from scratch.

The family carries one free scaling constant per dimension.  For n <= 4 a
specific rational value makes every computed object match the reference
displays stored here; those values ship as defaults.  ``derive_matched_c``
recomputes them by solving symbolically, so the table is checkable rather
than an article of faith.  For n >= 5 there is no reference display to match
and the default falls back to 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DworkError
from .ratfn import RatFn, parse_ratfn

C_DEFAULT = {
    1: Fraction(1, 27),
    2: Fraction(-1, 64),
    3: Fraction(1, 78125),
    4: Fraction(1, 46656),
}


def matched_c(n):
    """Default scaling constant: the pinned value for n <= 4, else 1."""
    return C_DEFAULT.get(n, Fraction(1))


# Reference displays, keyed by dimension.  "modular" is the distinguished
# field solving the banded coupling matrix, "weight" the grading field,
# "lowering" the lowering field of the sl2 triple, "relation" the quadratic
# constraint among chart variables for even n.
REFERENCE = {
    1: {
        "modular": {
            "t1": "-t1*t2 - 9*(t1^3 - t3)",
            "t2": "81*t1*(t1^3 - t3) - t2^2",
            "t3": "-3*t2*t3",
        },
        "weight": {"t1": "t1", "t2": "2*t2", "t3": "3*t3"},
        "lowering": {"t2": "1"},
        "relation": None,
    },
    2: {
        "modular": {
            "t1": "t3 - t1*t2",
            "t2": "2*t1^2 - t2^2/2",
            "t3": "-2*t2*t3 + 8*t1^3",
            "t4": "-4*t2*t4",
        },
        "weight": {"t1": "2*t1", "t2": "2*t2", "t3": "4*t3", "t4": "8*t4"},
        "lowering": {"t2": "2"},
        "relation": "t3^2 = 4*(t1^4 - t4)",
    },
    3: {
        "modular": {
            "t1": "t3 - t1*t2",
            "t2": "(t3^3*t4 - 625*t2^2*(t1^5 - t5))/(625*(t1^5 - t5))",
            "t3": "(t3^3*t6 - 1875*t2*t3*(t1^5 - t5))/(625*(t1^5 - t5))",
            "t4": "-t2*t4 - t7",
            "t5": "-5*t2*t5",
            "t6": "-t2*t6 - 2*t3*t4 + 3125*t1^3",
            "t7": "-625*t1*t3 - t2*t7",
        },
        "weight": {"t1": "t1", "t2": "2*t2", "t3": "3*t3",
                   "t5": "5*t5", "t6": "t6", "t7": "2*t7"},
        "lowering": {"t2": "1", "t7": "-t4"},
        "relation": None,
    },
    4: {
        "modular": {
            "t1": "t3 - t1*t2",
            "t2": "(t3^2*t4*t8/36 - t1^6*t2^2 + t2^2*t6)/(t1^6 - t6)",
            "t3": "(t3^2*t5*t8/36 - 3*t1^6*t2*t3 + 3*t2*t3*t6)/(t1^6 - t6)",
            "t4": "(-t3^2*t7*t8/36 - t1^6*t2*t4 + t2*t4*t6)/(t1^6 - t6)",
            "t5": "(t3*t5^2*t8/36 - 4*t1^6*t2*t5 - 2*t1^6*t3*t4"
                  " + 5*t1^4*t3*t8 + 4*t2*t5*t6 + 2*t3*t4*t6)"
                  "/(2*(t1^6 - t6))",
            "t6": "-6*t2*t6",
            "t7": "18*(t4^2/36 - t1^2)",
            "t8": "(-3*t1^6*t2*t8 + 3*t1^5*t3*t8 + 3*t2*t6*t8)/(t1^6 - t6)",
        },
        "weight": {"t1": "t1", "t2": "2*t2", "t3": "3*t3", "t4": "t4",
                   "t5": "2*t5", "t6": "6*t6", "t8": "3*t8"},
        "lowering": {"t2": "1"},
        "relation": "t8^2 = 36*(t1^6 - t6)",
    },
}

# Even-n reference relations as (pivot variable, constant k) with
# t_D^2 = k*(t1^(n+2) - t_{n+2}); used by the derivation below.
RELATION_CONST = {2: Fraction(4), 4: Fraction(36)}

# Truncations of the modular field to its polynomial part, dimension 3 and 4.
TRUNCATED = {
    3: {
        "t1": "t3 - t1*t2",
        "t2": "-t2^2",
        "t3": "-3*t2*t3",
        "t4": "-t2*t4 - t7",
        "t5": "-5*t2*t5",
        "t6": "-t2*t6 - 2*t3*t4 + 3125*t1^3",
        "t7": "-625*t1*t3 - t2*t7",
    },
    4: {
        "t1": "t3 - t1*t2",
        "t2": "-t2^2",
        "t3": "-3*t2*t3",
        "t4": "-t2*t4",
        "t5": "-2*t2*t5 - t3*t4",
        "t6": "-6*t2*t6",
        "t7": "18*(t4^2/36 - t1^2)",
        "t8": "-3*t2*t8",
    },
}

# Decomposition of the n=3 truncated field over the module spanned by the
# modular field and the basis fields: leading coefficient and the
# coefficient of each basis field (those not listed are zero).  The diagonal
# coefficient belongs to the (2,2) generator: the contracted matrix has
# diagonal (0, -x, x, 0), which is -x times the (2,2) generator transposed,
# while the (1,1) generator is supported on the corners.
DECOMP3_F0 = "1"
DECOMP3 = {
    (2, 2): "-(t6/t3) * (t3^3/(625*(t1^5 - t5)))",
    (1, 2): "((t2*t6 - t3*t4)/t3) * (t3^3/(625*(t1^5 - t5)))",
    (1, 3): "((t2*t6^2 - t3*t4*t6)/t3^2) * (t3^3/(625*(t1^5 - t5)))",
    (1, 4): "((-t2^2*t6^2 + 2*t2*t3*t4*t6 - t3^2*t4^2)/t3^2)"
            " * (t3^3/(625*(t1^5 - t5)))",
    (2, 3): "-(t6^2/t3^2) * (t3^3/(625*(t1^5 - t5)))",
}

# The n=4 truncated field fails to decompose; first bad matrix entry.
OBSTRUCTION4_ENTRY = (3, 3)
OBSTRUCTION4_VALUE = "-3*t1^5*t3/(t1^6 - t6)"

# Right-action formulas on chart coordinates, group parameters g1..g_{D-1}.
# Multiplicative parameters come first, one per diagonal subgroup.
ACTION = {
    1: {
        "t1": "t1*g1",
        "t2": "t2*g1^2 + g2",
        "t3": "t3*g1^3",
    },
    2: {
        "t1": "t1*g1",
        "t2": "t2*g1 - g2",
        "t3": "t3*g1^2",
        "t4": "t4*g1^4",
    },
    3: {
        "t1": "t1*g1",
        "t2": "(t2*g1 - g2*g3)/g2",
        "t3": "t3*g1^2/g2",
        "t4": "(t2*g1*g6 + t4*g1*g2^2 - g2*g3*g6 + g2*g4)/g2",
        "t5": "t5*g1^5",
        "t6": "(t3*g1^2*g6 + t6*g1^2*g2^2)/g2",
        "t7": "(t2*g1*g4 + t4*g1*g2^2*g3 + t7*g1^2*g2 - g2*g3*g4 + g2*g5)/g2",
    },
    4: {
        "t1": "t1*g1",
        "t2": "(t2*g1 - g2*g3)/g2",
        "t3": "t3*g1^2/g2",
        "t4": "(-t2*g1*g6 + t4*g1*g2 + g2*g3*g6 - g2*g4)/g2",
        "t5": "(-t3*g1^2*g6 + t5*g1^2*g2)/g2",
        "t6": "t6*g1^6",
        "t7": "(-t2*g1*g6^2 + 2*t4*g1*g2*g6 + 2*t7*g1*g2^2"
              " + g2*g3*g6^2 - 2*g2*g4*g6 - 2*g2*g5)/(2*g2)",
        "t8": "t8*g1^3",
    },
}


def parse_field(ring, table):
    """Parse a {var: string} table into a component map over ring."""
    return {v: parse_ratfn(ring, s) for v, s in table.items()}


def _int_roots_candidates(coeffs):
    """Rational roots of a univariate polynomial given as {deg: Fraction}."""
    coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
    if not coeffs:
        return []
    # clear denominators to integer coefficients
    denlcm = math.lcm(*(v.denominator for v in coeffs.values()))
    ic = {k: int(v * denlcm) for k, v in coeffs.items()}
    degs = sorted(ic)
    lead = ic[degs[-1]]
    low = degs[0]
    if low > 0:  # factor out c^low; root c=0 never admissible here
        ic = {k - low: v for k, v in ic.items()}
        degs = sorted(ic)
    const = ic[degs[0]]
    if degs[-1] == 0:
        return []
    out = []
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for sgn in (1, -1):
                cand = Fraction(sgn * p, q)
                if sum(v * cand ** k for k, v in ic.items()) == 0:
                    if cand not in out:
                        out.append(cand)
    return out


def _divisors(x):
    out = []
    i = 1
    while i * i <= x:
        if x % i == 0:
            out.append(i)
            if i != x // i:
                out.append(x // i)
        i += 1
    return sorted(out)


def _c_poly(rf):
    """Split a c-dependent rational function's numerator into
    {t-monomial: {c-degree: coeff}}; rf must be the difference to kill."""
    table = {}
    for k, coeff in rf.num.coeffs("c").items():
        for cf, tmono in coeff.items():
            table.setdefault(tmono, {})[k] = cf
    return table


def derive_matched_c(n):
    """Recover the pinned constant for n <= 4 from the symbolic-c build.

    Even n: the quadratic relation constant must equal the reference value.
    Odd n: the modular field components must equal the reference displays;
    each t-monomial of the cleared difference gives a univariate condition
    on c and the unique common rational root survives.
    """
    from .chart import chart_for
    from .modular import modular_vf

    if n not in C_DEFAULT:
        raise DworkError(f"no reference data for n={n}")
    ch = chart_for(n, None)
    if n % 2 == 0:
        k = RatFn.of(ch.ring, RELATION_CONST[n])
        diff = ch.kappa - k
        cands = _common_roots(diff)
    else:
        R, _ = modular_vf(n, "sym")
        ring = ch.ring
        cands = None
        for v, s in REFERENCE[n]["modular"].items():
            diff = R.get(v) - parse_ratfn(ring, s)
            if diff.is_zero:
                continue
            roots = _common_roots(diff)
            cands = roots if cands is None else [r for r in cands if r in roots]
        if cands is None:
            raise DworkError("reference displays are c-free; nothing to solve")
    if len(cands) != 1:
        raise DworkError(f"scaling constant not pinned uniquely: {cands}")
    val = cands[0]
    # full check: substituting the candidate must kill every difference
    if n % 2 == 1:
        R, _ = modular_vf(n, "sym")
        for v, s in REFERENCE[n]["modular"].items():
            diff = R.get(v) - parse_ratfn(ch.ring, s)
            if not diff.subs({"c": val}).is_zero:
                raise DworkError(f"candidate {val} fails on component {v}")
    return val


def _common_roots(diff):
    """Rational c-values killing every t-monomial coefficient of diff."""
    table = _c_poly(diff)
    cands = None
    for cpoly in table.values():
        if all(v == 0 for v in cpoly.values()):
            continue
        roots = _int_roots_candidates(cpoly)
        cands = roots if cands is None else [r for r in cands if r in roots]
        if cands == []:
            return []
    return cands if cands is not None else []
