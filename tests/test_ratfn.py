"""Kernel arithmetic: normal forms, parsing, and the randomized equality
oracle.  Property tests draw small random polynomials; the oracle route is
kept independent of the canonical-form route on purpose."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworklie import (DworkError, Poly, RatFn, Ring, eq_by_random_eval, parse_ratfn,
                      ratfn_string, resolve_chart)
from dworklie.ratfn import ParseError
from dworklie.ring import _pack, _unpack

R3 = Ring(("x", "y", "z"))


def pack(T):
    """A term dict keyed by exponent tuples of x, y, z, as the kernel keys it."""
    return {_pack(e, 3): c for e, c in T.items()}


def poly_of(terms):
    return RatFn.of(R3, Poly(R3, terms))


small = st.integers(min_value=-6, max_value=6)
expo = st.tuples(st.integers(0, 3), st.integers(0, 3),
                 st.integers(0, 3)).map(lambda e: _pack(e, 3))
numerators = st.dictionaries(expo, small, max_size=3)
denominators = st.tuples(expo, st.integers(1, 6))


@st.composite
def ratfns(draw):
    num = draw(numerators)
    e, c = draw(denominators)
    return poly_of(num) / poly_of({e: c})


@given(ratfns(), ratfns())
@settings(max_examples=60, deadline=None)
def test_add_commutes(f, g):
    assert f + g == g + f


@given(ratfns(), ratfns(), ratfns())
@settings(max_examples=40, deadline=None)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(ratfns())
@settings(max_examples=60, deadline=None)
def test_sub_self_is_zero(f):
    assert (f - f).is_zero


@given(ratfns())
@settings(max_examples=60, deadline=None)
def test_inverse(f):
    if f.is_zero:
        return
    assert (f * f.inverse() - RatFn.of(R3, 1)).is_zero


@given(ratfns())
@settings(max_examples=60, deadline=None)
def test_string_roundtrip(f):
    assert parse_ratfn(R3, ratfn_string(f)) == f


@given(ratfns())
@settings(max_examples=40, deadline=None)
def test_normal_form_is_stable(f):
    # re-normalizing the printed form must not change the printed form
    s = ratfn_string(f)
    assert ratfn_string(parse_ratfn(R3, s)) == s


@given(ratfns(), ratfns())
@settings(max_examples=40, deadline=None)
def test_derive_leibniz(f, g):
    lhs = (f * g).derive("x")
    rhs = f.derive("x") * g + f * g.derive("x")
    assert lhs == rhs


def test_denominator_sign_convention():
    f = poly_of(pack({(1, 0, 0): 1})) / poly_of(pack({(0, 1, 0): -2}))
    # canonical denominators lead with a positive coefficient
    assert ratfn_string(f) == "-x/(2*y)"


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_ratfn(R3, "x + w")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_ratfn(R3, "x + y)")


@given(ratfns())
@settings(max_examples=30, deadline=None)
def test_random_eval_confirms_exact_equality(f):
    # rebuilt copies must agree at every sampled point
    g = parse_ratfn(R3, ratfn_string(f))
    assert eq_by_random_eval(f, g, random.Random(7), trials=4)


def test_random_eval_separates_distinct_functions():
    x = RatFn.var(R3, "x")
    y = RatFn.var(R3, "y")
    assert not eq_by_random_eval(x * y, x + y, random.Random(3), trials=6)
    assert not eq_by_random_eval(x / y, y / x, random.Random(3), trials=6)


def test_quotient_ring_reduces_pivot_square():
    # u^2 = y - x as a ring relation: u is the pivot variable
    ring = Ring(("x", "y", "u"), pivot=2,
                rel_num={(0, 1, 0): 1, (1, 0, 0): -1},
                rel_den={(0, 0, 0): 1})
    u = RatFn.var(ring, "u")
    x = RatFn.var(ring, "x")
    y = RatFn.var(ring, "y")
    assert u * u == y - x
    assert (u ** 4) == (y - x) ** 2
    # odd powers keep a single pivot factor
    assert u ** 3 == u * (y - x)


def test_subs_chains_through_composition():
    x = RatFn.var(R3, "x")
    y = RatFn.var(R3, "y")
    f = (x + y) ** 2
    g = f.subs({"x": y - RatFn.of(R3, 1)})
    assert g == (y * 2 - RatFn.of(R3, 1)) ** 2


def test_eval_matches_substitution():
    x = RatFn.var(R3, "x")
    z = RatFn.var(R3, "z")
    f = (x ** 2 - z) / (x + RatFn.of(R3, 3))
    pt = {"x": Fraction(2), "y": Fraction(0), "z": Fraction(1, 2)}
    assert f.eval(pt) == Fraction(7, 10)


def test_eval_names_a_missing_variable():
    ring = resolve_chart(1, "sym").ring
    assert parse_ratfn(ring, "t1^2").eval({"t1": 2}) == 4
    with pytest.raises(DworkError, match="'c'"):
        parse_ratfn(ring, "c + t1").eval({"t1": 2})


def test_lift_drops_trailing_variables_that_do_not_occur():
    R2 = Ring(("x", "y"))
    f = parse_ratfn(R3, "x/(y + 1)")
    assert f.lift(R2) == parse_ratfn(R2, "x/(y + 1)")
    assert f.lift(R2).lift(R3) == f
    with pytest.raises(DworkError, match="'z'"):
        parse_ratfn(R3, "x*z").lift(R2)


# Henrici addition against the plain formula it replaced: the sum over the
# full product of the denominators, normalised in one go.

def reference_add(f, g):
    return RatFn(f.num * g.den + g.num * f.den, f.den * g.den)


# u^2 = (y - x)/(x + 1): a slot relation with a nontrivial denominator
RU = Ring(("x", "y", "u"), pivot=2,
          rel_num={(0, 1, 0): 1, (1, 0, 0): -1},
          rel_den={(1, 0, 0): 1, (0, 0, 0): 1})

# denominator factors in x and y only, so they are free of the pivot u
FACTORS = [pack(f) for f in (
    {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1},
    {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1},
    {(2, 0, 0): 1, (0, 1, 0): 1}, {(3, 0, 0): 1, (0, 1, 0): -1})]
factor_powers = st.lists(st.integers(0, 1), min_size=len(FACTORS),
                         max_size=len(FACTORS))


def denominator(ring, powers, scale):
    p = ring.const(scale)
    for f, k in zip(FACTORS, powers):
        p = p * Poly(ring, f) ** k
    return p


@st.composite
def sum_operands(draw):
    """Two fractions whose denominators share a factor, are coprime, or nest;
    or f and r - f, whose sum r cancels the factors the two have in common."""
    ring = draw(st.sampled_from([R3, RU]))
    kind = draw(st.sampled_from(["shared", "coprime", "nested", "cancel"]))
    pb, pd = draw(factor_powers), draw(factor_powers)
    if kind == "shared":
        k = draw(st.integers(0, len(FACTORS) - 1))
        pb[k], pd[k] = max(pb[k], 1), max(pd[k], 1)
    elif kind in ("coprime", "cancel"):
        pd = [0 if x else y for x, y in zip(pb, pd)]
    else:
        pd = [x + y for x, y in zip(pb, pd)]
    out = []
    for powers in (pb, pd):
        num = Poly(ring, draw(numerators), draw(st.integers(1, 3)))
        scale = draw(st.sampled_from([1, -1, 2, -3]))
        out.append(RatFn(num, denominator(ring, powers, scale)))
    if kind == "cancel":
        out[1] = reference_add(out[1], -out[0])
    return out


@given(sum_operands())
@settings(max_examples=80, deadline=None)
def test_add_matches_full_product_normalisation(ops):
    f, g = ops
    assert f + g == reference_add(f, g)
    assert f - g == reference_add(f, -g)
    assert (f + g) + f == reference_add(reference_add(f, g), f)


# The product rule against the plain formula: the product of the numerators
# over the product of the denominators, normalised in one go.

def reference_mul(f, g):
    return RatFn(f.num * g.num, f.den * g.den)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def product_operands(draw):
    """Two fractions and a rational k: one of the fractions a constant, or
    each numerator carrying the factors of the other denominator, or all
    denominators coprime.  In RU most numerators carry the pivot u."""
    ring = draw(st.sampled_from([R3, RU]))
    kind = draw(st.sampled_from(["constant", "shared", "coprime"]))
    pb, pd = draw(factor_powers), draw(factor_powers)
    if kind == "coprime":
        pd = [0 if x else y for x, y in zip(pb, pd)]
    out = []
    for own, other in ((pb, pd), (pd, pb)):
        num = Poly(ring, draw(numerators), draw(st.integers(1, 3)))
        if kind == "shared":
            num = num * denominator(ring, other, 1)
        scale = draw(st.sampled_from([1, -1, 2, -3]))
        out.append(RatFn(num, denominator(ring, own, scale)))
    if kind == "constant":
        out[draw(st.integers(0, 1))] = RatFn(ring.const(draw(rationals)))
    return out + [draw(rationals)]


@given(product_operands())
@settings(max_examples=80, deadline=None)
def test_mul_matches_full_product_normalisation(ops):
    f, g, k = ops
    ring = f.ring
    K = RatFn(ring.const(k))
    assert RatFn.of(ring, k) == K
    assert f * g == reference_mul(f, g)
    assert k * f == reference_mul(K, f)
    assert f * k == reference_mul(f, K)
    assert f ** 3 == reference_mul(reference_mul(f, f), f)
    if not g.is_zero:
        assert f / g == RatFn(f.num * g.den, f.den * g.num)


def test_inverse_of_zero_is_a_zero_division():
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        RatFn.of(R3, 0).inverse()


# The derivative against the quotient rule it short-cuts: (p'q - pq')/q^2,
# normalised in one go.

def reference_derive(f, v):
    p, q = f.num, f.den
    return RatFn(p.derive(v) * q - p * q.derive(v), q * q)


@st.composite
def derive_operands(draw):
    """A fraction over a constant or a non-constant denominator in x and y,
    and a variable drawn from all of the ring's names, so it lies inside or
    outside the support; in RU it may be the pivot u."""
    ring = draw(st.sampled_from([R3, RU]))
    num = Poly(ring, draw(numerators), draw(st.integers(1, 3)))
    powers = draw(factor_powers) if draw(st.booleans()) else []
    scale = draw(st.sampled_from([1, -1, 2, -3]))
    f = RatFn(num, denominator(ring, powers, scale))
    return f, draw(st.sampled_from(ring.names))


@given(derive_operands())
@settings(max_examples=120, deadline=None)
def test_derive_matches_quotient_rule(op):
    f, v = op
    d = f.derive(v)
    assert d == reference_derive(f, v)
    assert d.is_zero == (v not in f.support())


def test_poly_derivative_is_canonical():
    x = R3.var("x")
    d = (x ** 2 * Fraction(1, 2)).derive("x")
    assert d == x and repr(d) == "x"


def test_support_lists_numerator_and_denominator_variables():
    x, z = RatFn.var(R3, "x"), RatFn.var(R3, "z")
    assert (z / (x + 1)).support() == ["x", "z"]
    assert RatFn.of(R3, Fraction(3, 4)).support() == []


# Division with remainder (behind truncate_poly) against its definition.
# Poly arithmetic ignores the slot relation, so in RU as in R3
# num == q*den + r holds exactly.

@given(st.sampled_from([R3, RU]), numerators,
       st.dictionaries(expo, small.filter(bool), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_divmod_leaves_no_term_the_leading_monomial_divides(ring, N, D, a, b):
    num, den = Poly(ring, N, a), Poly(ring, D, b)
    q, r = divmod(num, den)
    assert num == q * den + r
    lead = _unpack(max(den.terms), 3)
    rest = [_unpack(e, 3) for e in r.terms]
    assert not [e for e in rest if all(x >= y for x, y in zip(e, lead))]
