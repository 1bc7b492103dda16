"""Pinned scaling constants for the low dimensions, the reference displays
they reproduce, and the derivation that recovers each constant from scratch.

The family carries one free scaling constant per dimension.  For n <= 4 a
specific rational value makes every computed object match the reference
displays stored here; those values ship as defaults.  ``derive_matched_c``
recomputes each one on the chart with c left symbolic: matching the displays
imposes polynomial conditions on c, and the linear ones share one root, the
constant.  So the table is checkable rather than an article of faith.  For
n >= 5 there is no reference display to match and the default falls back
to 1.

``REFERENCE`` is the one store of the displays: ``dworklie verify`` compares
the modular, grading and lowering fields and the even-n relation against it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DworkError
from .linalg import VecField
from .ratfn import parse_ratfn

C_DEFAULT = {
    1: Fraction(1, 27),
    2: Fraction(-1, 64),
    3: Fraction(1, 78125),
    4: Fraction(1, 46656),
}
_C_ONE = Fraction(1)  # the default past the pinned n


def matched_c(n):
    """Default scaling constant: the pinned value for n <= 4, else 1."""
    return C_DEFAULT.get(n, _C_ONE)


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


def _c_poly(rf):
    """Split a c-dependent rational function's numerator into
    {t-monomial: {c-degree: coeff}}; rf must be the difference to kill."""
    table = {}
    for cf, powers in rf.num.items():
        tmono = tuple(p for p in powers if p[0] != "c")
        k = dict(powers).get("c", 0)
        table.setdefault(tmono, {})[k] = cf
    return table


def derive_matched_c(n):
    """Recover the pinned constant for n <= 4 from the symbolic-c build.

    The differences to kill are the modular field's components against
    REFERENCE[n]["modular"] and, at even n, kappa*disc against the right
    side of the reference relation.  Each t-monomial of a difference's
    numerator is a polynomial condition on c; one of degree 1, a0 + a1*c,
    pins c to -a0/a1 among all values.  Exactly one such root must occur,
    and substituting it must zero every difference.
    """
    from .chart import resolve_chart
    from .modular import modular_vf

    if n not in C_DEFAULT:
        raise DworkError(f"no reference data for n={n}")
    ch = resolve_chart(n, "sym")
    R, _ = modular_vf(n, "sym")
    ref = REFERENCE[n]
    want = VecField(ch.ring, parse_field(ch.ring, ref["modular"]))
    diffs = dict((R - want).comps)
    if ref["relation"] is not None:
        rhs = ref["relation"].split(" = ")[1]
        diffs["relation"] = ch.kappa * ch.disc - parse_ratfn(ch.ring, rhs)
    roots = {Fraction(-cp.get(0, 0), cp[1]) for d in diffs.values()
             for cp in _c_poly(d).values() if max(cp) == 1}
    if len(roots) != 1:
        raise DworkError(f"the linear conditions pin c to {sorted(roots)}, "
                         "not to one value")
    val, = roots
    for name, d in diffs.items():
        if not d.subs({"c": val}).is_zero:
            raise DworkError(f"candidate {val} fails on {name}")
    return val
