"""A RatFn is one object: the integer term dict of its numerator, the
positive integer c of its denominator c * x^a * F^k, and the split (a, k).
Values built by sums, products, inverses, dot and derivatives in a plain
ring, in the n = 4 chart ring with its slot relation and in the n = 3 chart
ring with a symbolic constant keep those parts canonical: the Polys read
from them rebuild the value, c is prime to the content of the terms, zero
is no terms over 1 with the unit split, and equal values hash equal, a
constant as its Fraction."""

from fractions import Fraction
from functools import reduce
from math import gcd

from hypothesis import given, settings, strategies as st

import dworklie as dw
from dworklie import Poly, RatFn, Ring, UnsplitDenominator
from dworklie.ratfn import dot
from kernel_reference import full

R3 = Ring(("x", "y", "z"))


def seeds(ring, values=()):
    """The variables, a few constants, zero included, and the given
    values."""
    consts = [RatFn.of(ring, q) for q in (0, 1, -2, Fraction(3, 4))]
    return ring, [RatFn.var(ring, v) for v in ring.names] + consts + list(values)


def chart_seeds(n, c=None):
    """The ring of the chart for n and its four smallest dependent
    expressions, by term count."""
    ch = dw.resolve_chart(n, c)
    exprs = sorted(ch.dep_exprs.values(),
                   key=lambda f: len(f.num.terms) + len(f.den.terms))
    return seeds(ch.ring, [ch.disc.lift(ch.ring)] + exprs[:4])


POOLS = [seeds(R3), chart_seeds(4), chart_seeds(3, "sym")]
STEPS = ("add", "sub", "mul", "inverse", "dot", "derive")


@st.composite
def built(draw):
    """A pool of seeds grown by up to five drawn operations on its
    members."""
    ring, values = draw(st.sampled_from(POOLS))
    values = list(values)
    for _ in range(draw(st.integers(1, 5))):
        a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        step = draw(st.sampled_from(STEPS))
        if step == "inverse":
            try:
                values.append(a.inverse())
            except (ZeroDivisionError, UnsplitDenominator):
                pass
        elif step == "derive":
            values.append(a.derive(draw(st.sampled_from(ring.names))))
        elif step == "dot":
            c = draw(st.sampled_from(values))
            values.append(dot(ring, [(a, b), (c, a), (b, -c)]))
        else:
            values.append(a + b if step == "add" else a - a if step == "sub"
                          else a * b)
    return ring, values


def content(T):
    return reduce(gcd, T.values(), 0)


@given(built())
@settings(max_examples=80, deadline=None)
def test_stored_parts_are_canonical(case):
    ring, values = case
    for f in values:
        assert f.ring is ring and RatFn(f.num, f.den) == f
        assert f.c > 0 and gcd(f.c, content(f.terms)) == 1
        if not f.terms:
            assert f.c == 1 and f.split == (0, 0) and f.is_zero
        twins = [RatFn(f.num, f.den), full(f.num, f.den),
                 dot(ring, [(f, RatFn.of(ring, 1))]), -(-f)]
        assert all(g == f and hash(g) == hash(f) for g in twins)
        if f.is_const:
            q = f.const_value()
            assert q == Fraction(f.terms.get(0, 0), f.c)
            assert f == q and hash(f) == hash(q)


def test_the_parts_are_read_as_polys():
    # (4x + 6) / (6y) is (2x + 3) / (3y): the common 2 leaves the integer
    x, y = RatFn.var(R3, "x"), RatFn.var(R3, "y")
    f, p = (x * 4 + 6) / (y * 6), x * 2 + 3
    (ky,) = y.terms
    assert (f.terms, f.c, f.split) == (p.terms, 3, (ky, 0))
    assert f.num == Poly(R3, p.terms, 3) and f.den == y.num
