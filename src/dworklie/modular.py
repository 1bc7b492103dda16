"""Named vector fields on the enhanced chart: the coupling set, the modular
field solving the banded connection target, the canonical basis fields, the
sl2 triple they generate, the weight grading, and polynomial truncation.
"""

from __future__ import annotations

from collections import namedtuple

from .chart import per_chart
from .connection import vf_from_target
from .errors import DworkError, Sl2Violation
from .group import basis_pairs, lie_gen
from .linalg import MatF, VecField
from .ratfn import RatFn


class YukawaSet:
    """Coupling functions Y_1..Y_{n-2} with the boundary conventions
    Y_0 = 1 and Y_{n-1} = -1 attached."""

    __slots__ = ("n", "ring", "values")

    def __init__(self, n, ring, values):
        self.n = n
        self.ring = ring
        self.values = values

    def coef(self, j):
        if j == 0:
            return RatFn.of(self.ring, 1)
        if j == self.n - 1:
            return RatFn.of(self.ring, -1)
        if j not in self.values:
            raise IndexError(f"no coupling with index {j} for n={self.n}")
        return self.values[j]

    def matrix(self):
        """Banded (n+1)x(n+1) target: entry (i, i+1) is coef(i-1)."""
        M = MatF.zeros(self.ring, self.n + 1)
        for i in range(1, self.n + 1):
            M.set1(i, i + 1, self.coef(i - 1))
        return M


def yukawa_for(chart):
    n, m = chart.n, chart.m
    ring = chart.ring
    values = {}
    if n >= 3:
        S = chart.S
        s22 = S.get1(2, 2)
        top = (n - 3) // 2 if n % 2 else (n - 2) // 2
        for i in range(1, top + 1):
            values[i] = s22 * S.get1(i + 1, i + 1) / S.get1(i + 2, i + 2)
        filled = top
        if n % 2:
            mid = (n - 1) // 2
            sign = -1 if ((3 * n + 3) // 2) % 2 else 1
            smm = S.get1(m, m)
            values[mid] = (chart.c * (sign * (n + 2) ** n)
                           * s22 * smm * smm / chart.disc)
            filled = mid
        for i in range(filled + 1, n - 1):
            values[i] = -values[n - 1 - i]
    return YukawaSet(n, ring, values)


@per_chart
def modular_vf(ch):
    """The unique field whose connection matrix is the banded coupling
    target; returned together with the coupling set.  The solver refuses
    a band that is not pairing-antisymmetric."""
    Y = yukawa_for(ch)
    return vf_from_target(ch, Y.matrix()), Y


@per_chart
def basis_vf(ch):
    """Canonical basis fields, one per Lie-algebra basis matrix."""
    return {p: vf_from_target(ch, lie_gen(ch.n, *p, ch.ring).transpose())
            for p in basis_pairs(ch.n)}


Sl2Triple = namedtuple("Sl2Triple", "E F Hf")


@per_chart
def sl2_triple(ch):
    """Raising, lowering, and grading fields; the three defining bracket
    relations are verified, not assumed, once per chart.  A triple that
    fails is not kept, so every call on that chart raises again."""
    n = ch.n
    R, _ = modular_vf(ch)
    B = basis_vf(ch)
    if n == 1:
        F, Hf = B[(1, 2)], -B[(1, 1)]
    elif n == 2:
        F, Hf = B[(1, 2)].scale(2), B[(1, 1)].scale(-2)
    else:
        F, Hf = B[(1, 2)], B[(2, 2)] - B[(1, 1)]
    if R.bracket(F) != Hf:
        raise Sl2Violation(f"[E,F] != H for n={n}")
    if Hf.bracket(R) != R.scale(2):
        raise Sl2Violation(f"[H,E] != 2E for n={n}")
    if Hf.bracket(F) != F.scale(-2):
        raise Sl2Violation(f"[H,F] != -2F for n={n}")
    return Sl2Triple(R, F, Hf)


@per_chart
def weights(ch):
    """Integer weight per coordinate, read off the grading field, plus a
    quasi-homogeneity report over the modular field's components."""
    tr = sl2_triple(ch)
    w = {}
    for v in ch.coords:
        comp = tr.Hf.get(v)
        if comp.is_zero:
            w[v] = 0
            continue
        ratio = comp / RatFn.var(ch.ring, v)
        if not ratio.is_const:
            raise DworkError("grading field is not diagonal")
        q = ratio.const_value()
        if q.denominator != 1:
            raise DworkError("grading field has a non-integer weight")
        w[v] = int(q)
    return w, degree_report(ch, tr, w)


def quasi_degree(rf, w):
    """Weighted degree when numerator and denominator are each
    quasi-homogeneous; None otherwise.  Variables missing from w weigh 0."""
    dn = rf.num.weighted_degrees(w) or {0}
    dd = rf.den.weighted_degrees(w)
    if len(dn) != 1 or len(dd) != 1:
        return None
    return next(iter(dn)) - next(iter(dd))


def degree_report(chart, triple, w):
    """Rows (label, expected degree, actual degree or None, ok)."""
    rows = []
    R = triple.E
    for v in chart.coords:
        comp = R.get(v)
        if comp.is_zero:
            continue
        expect = w[v] + 2
        actual = quasi_degree(comp, w)
        rows.append((f"component {v}", expect, actual, actual == expect))
    for v in triple.F.vars():
        comp = triple.F.get(v)
        expect = w[v] - 2
        actual = quasi_degree(comp, w)
        rows.append((f"lowering {v}", expect, actual, actual == expect))
    return rows


def truncate_poly(V):
    """Polynomial part of each component: the quotient of dividing the
    numerator by the full denominator, graded-lex leading terms, skipping
    (and keeping out) every term the leading divisor cannot reach."""
    comps = {v: rf if rf.den.is_const else divmod(rf.num, rf.den)[0]
             for v, rf in V.comps.items()}
    return VecField(V.ring, comps)
