"""Kernel arithmetic: normal forms, parsing, and the randomized equality
oracle.  Property tests draw small random polynomials; the oracle route is
kept independent of the canonical-form route on purpose, and so are the
references, which normalise through tests/kernel_reference.py and never
through the RatFn constructor."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworklie import (DworkError, KernelInvariant, Poly, RatFn, Ring,
                      UnsplitDenominator, eq_by_random_eval, parse_ratfn,
                      ratfn_string, resolve_chart)
from dworklie.ratfn import ParseError, dot
from dworklie.ring import _pack
from kernel_reference import full, unpack

try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy not installed")

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
    # the numerator becomes the denominator, so it must have a split
    if f.is_zero:
        return
    if not f.num.known_split():
        with pytest.raises(UnsplitDenominator):
            f.inverse()
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


@st.composite
def equal_forms(draw):
    """One value over a chart ring, n = 1..4, in every form that equals it:
    the Poly (a pivot square left unreduced), the RatFn, a RatFn reached
    through a division, the RatFn's reduced numerator over a denominator of
    one, and for a constant the Fraction and the int."""
    ring = resolve_chart(draw(st.integers(1, 4))).ring
    terms = st.tuples(small, st.lists(st.sampled_from(ring.names), max_size=3))
    p = ring.zero
    for c, names in draw(st.lists(terms, max_size=3)):
        m = ring.const(c)
        for nm in names:
            m = m * ring.var(nm)
        p = p + m
    p = p * Fraction(1, draw(st.integers(1, 3)))
    w = RatFn.var(ring, draw(st.sampled_from(["t1", "t3"])))
    r = RatFn.of(ring, p)
    forms = [p, r, r * w / w] + ([r.num] if r.den == 1 else [])
    if p.is_const:
        q = p.const_value()
        forms += [q] + ([q.numerator] if q.denominator == 1 else [])
    return forms


@given(equal_forms())
@settings(max_examples=100, deadline=None)
def test_equal_values_hash_equal(forms):
    assert all(f == g for f in forms for g in forms)
    assert len({hash(f) for f in forms}) == 1, forms


def test_denominator_sign_convention():
    f = poly_of(pack({(1, 0, 0): 1})) / poly_of(pack({(0, 1, 0): -2}))
    # canonical denominators lead with a positive coefficient
    assert ratfn_string(f) == "-x/(2*y)"
    # so does a Poly's integer denominator: the sign moves onto the terms
    T = pack({(1, 0, 0): 3, (0, 1, 0): -1})
    p = Poly(R3, T, -2)
    assert p.den == 2 and p.terms == {e: -c for e, c in T.items()}
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        Poly(R3, T, 0)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_ratfn(R3, "x + w")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_ratfn(R3, "x + y)")


@pytest.mark.parametrize("s", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"])
def test_parse_rejects_nesting_deeper_than_the_stack(s):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_ratfn(R3, s)


@pytest.mark.parametrize("s,error,reason", [
    ("t1^40000", ParseError, "exponent 40000 past the packed field limit "
     "32767"),
    ("2^30000000000", ParseError, "exponent 30000000000 past the packed field "
     "limit 32767"),
    ("(1/3)^30000000000", ParseError, "exponent 30000000000 past the packed "
     "field limit 32767"),
    ("1" * 5001, ParseError, "too long an integer: 5001 digits"),
    ("2 +* t1", ParseError, "unexpected token *"),
    ("1/(t1 + t2)", UnsplitDenominator, "denominator t1 + t2 has no split "
     "c * x^a * F^k"),
    ("(2^32767)^32767", ParseError, "constant power past the printable "
     "4300 digits"),
    ("(2^7)^2048", ParseError, "constant power past the printable 4300 "
     "digits"),
    ("(-1/10)^-4300", ParseError, "constant power past the printable 4300 "
     "digits"),
    ("(2*t1)^14285", ParseError, "power coefficient past the printable 4300 "
     "digits"),
    ("(t1/2)^14285", ParseError, "power coefficient past the printable 4300 "
     "digits"),
    ("t1^²", ParseError, "bad character '²' at 3"),
    ("t1²", ParseError, "bad character '²' at 2"),
], ids=["packed-degree", "huge-power", "huge-fraction-power", "long-literal",
        "unparsable", "unsplit-denominator", "nested-constant-power",
        "unprintable-power", "unprintable-inverse-power",
        "unprintable-numerator-power", "unprintable-denominator-power",
        "superscript-digit", "superscript-digit-in-a-name"])
def test_parse_refusals(s, error, reason):
    # over a chart ring, whose known factor F is the chart's disc
    with pytest.raises(error) as e:
        parse_ratfn(resolve_chart(1).ring, s)
    assert str(e.value) == reason


def test_parse_reads_any_decimal_digit():
    # integers are runs of decimal digits, fullwidth ones included; a
    # superscript digit is not decimal and is refused above
    ring = resolve_chart(1).ring
    assert parse_ratfn(ring, "t1^\uff12") == parse_ratfn(ring, "t1^2")


def test_parse_refuses_an_unprintable_constant_power_before_forming_it(
        monkeypatch):
    # the last printable powers parse and print, 10^4299 and the square of
    # 2150 nines (whose log10 is within 1 of the limit); one more digit is
    # refused before RatFn.__pow__ is called
    ring = resolve_chart(1).ring
    assert ratfn_string(parse_ratfn(ring, "10^4299")) == "1" + "0" * 4299
    nines = ratfn_string(parse_ratfn(ring, f"({'9' * 2150})^2"))
    assert nines == str(int("9" * 2150) ** 2) and len(nines) == 4300
    assert ratfn_string(parse_ratfn(ring, "(2*t1)^3")) == "8*t1^3"
    # 2^14284 has 4300 digits, in the numerator and then the denominator
    top = str(2 ** 14284)
    assert ratfn_string(parse_ratfn(ring, "(2*t1)^14284")) == f"{top}*t1^14284"
    assert ratfn_string(parse_ratfn(ring, "(t1/2)^14284")) == f"t1^14284/{top}"

    def refuse(self, k):
        raise AssertionError("the power was formed")

    monkeypatch.setattr(RatFn, "__pow__", refuse)
    for s in ("10^4300", f"({'9' * 2150}9)^2"):
        with pytest.raises(ParseError, match="printable 4300 digits"):
            parse_ratfn(ring, s)


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
    # u^2 = y - x as a ring relation: u is the pivot variable, and y - x is
    # the ring's known factor, so the relation's numerator has a split
    ring = Ring(("x", "y", "u"), pivot=2,
                rel_num={(0, 1, 0): 1, (1, 0, 0): -1},
                rel_den={(0, 0, 0): 1}, factor=((0, 1, 0), 0))
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
    f = (x ** 2 - z) / (x * 3)
    pt = {"x": Fraction(2), "y": Fraction(0), "z": Fraction(1, 2)}
    assert f.eval(pt) == Fraction(7, 12)


def test_eval_names_a_missing_variable():
    ring = resolve_chart(1, "sym").ring
    assert parse_ratfn(ring, "t1^2").eval({"t1": 2}) == 4
    with pytest.raises(DworkError, match="'c'"):
        parse_ratfn(ring, "c + t1").eval({"t1": 2})


def test_lift_drops_trailing_variables_that_do_not_occur():
    R2 = Ring(("x", "y"))
    f = parse_ratfn(R3, "(x + 1)/(3*y^2)")
    assert f.lift(R2) == parse_ratfn(R2, "(x + 1)/(3*y^2)")
    assert f.lift(R2).lift(R3) == f
    with pytest.raises(DworkError, match="'z'"):
        parse_ratfn(R3, "x*z").lift(R2)


# Henrici addition against the plain formula: the sum over the full product
# of the denominators, normalised in one go.  Every denominator is split,
# c * x^a * F^k in the known-factor rings and c * x^a in the others, so the
# sum takes Henrici's rule over the split gcd; the sympy tests below are a
# second route in the relation-free rings.

def reference_add(f, g):
    return full(f.num * g.den + g.num * f.den, f.den * g.den)


# u^2 = y/(4x): a slot relation with a non-constant denominator; both sides
# have a split, as a relation's must (Ring), so u has an inverse
RU = Ring(("x", "y", "u"), pivot=2,
          rel_num={(0, 1, 0): 1},
          rel_den={(1, 0, 0): 4})

# the known factor F = x^3 - y, in a plain ring and with u^2 = F/4
KNOWN = ((3, 0, 0), 1)
RF = Ring(("x", "y", "z"), factor=KNOWN)
RFU = Ring(("x", "y", "u"), pivot=2, rel_num={(3, 0, 0): 1, (0, 1, 0): -1},
           rel_den={(0, 0, 0): 4}, factor=KNOWN)

# denominator factors in x and y only, so they are free of the pivot u
FACTORS = [pack(f) for f in (
    {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1},
    {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1},
    {(2, 0, 0): 1, (0, 1, 0): 1}, {(3, 0, 0): 1, (0, 1, 0): -1})]
factor_powers = st.lists(st.integers(0, 1), min_size=len(FACTORS),
                         max_size=len(FACTORS))


def split_factors(ring):
    """Indices of the FACTORS that a split denominator may carry: x, y and,
    where the ring knows it, F."""
    return (0, 1, 5) if ring.factor else (0, 1)


def denominator(ring, powers, scale):
    """scale times the product of the FACTORS to the given powers, of which
    only the ring's split factors count, so the result is split."""
    powers = [k if i in split_factors(ring) else 0
              for i, k in enumerate(powers)]
    p = ring.const(scale)
    for f, k in zip(FACTORS, powers):
        p = p * Poly(ring, f) ** k
    return p


KERNEL_RINGS = (R3, RU, RF, RFU)
RELATION_FREE = (R3, RF)


@st.composite
def sum_operands(draw, rings=KERNEL_RINGS):
    """Two fractions whose denominators share a factor, are coprime, or nest;
    or f and r - f, whose sum r cancels the factors the two have in common."""
    ring = draw(st.sampled_from(rings))
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
@settings(max_examples=160, deadline=None)
def test_add_matches_full_product_normalisation(ops):
    f, g = ops
    assert f + g == reference_add(f, g)
    assert f - g == reference_add(f, -g)
    assert (f + g) + f == reference_add(reference_add(f, g), f)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["R3", "RU", "RF", "RFU"])
def test_factors_without_a_split_are_refused(ring):
    """The FACTORS that a ring cannot split, over 1, over themselves and in
    a quotient, each raise UnsplitDenominator; the split ones divide."""
    x = RatFn.var(ring, "x")
    for i, f in enumerate(FACTORS):
        d = RatFn(Poly(ring, f))
        if i in split_factors(ring):
            assert (x / d * d) == x
            continue
        for make in (lambda: RatFn(ring.one, d.num), lambda: d / d,
                     lambda: x / d, lambda: d.inverse()):
            with pytest.raises(UnsplitDenominator, match="no split"):
                make()


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["R3", "RU", "RF", "RFU"])
def test_a_zero_numerator_does_not_excuse_an_unsplit_denominator(ring):
    """0 over a denominator without a split is refused as any other
    numerator over it is, by the constructor and by division alike; over a
    split denominator it is 0."""
    zero = RatFn.of(ring, 0)
    for i, f in enumerate(FACTORS):
        d = Poly(ring, f)
        if i in split_factors(ring):
            assert RatFn(ring.zero, d).is_zero and (zero / RatFn(d)).is_zero
            continue
        for make in (lambda: RatFn(ring.zero, d), lambda: zero / RatFn(d)):
            with pytest.raises(UnsplitDenominator, match="no split"):
                make()


def test_split_sum_and_product_cancel_the_known_factor():
    x, y = RatFn.var(RF, "x"), RatFn.var(RF, "y")
    F = x ** 3 - y
    assert repr(1 / F + (F - 1) / F) == "1"
    assert repr(x / (2 * F ** 2) + (F - x) / (2 * F ** 2)) == "1/(-2*y + 2*x^3)"
    assert repr((F ** 2 / x) * (x ** 2 / F ** 3)) == "x/(-y + x^3)"


# The product rule against the plain formula: the product of the numerators
# over the product of the denominators, normalised in one go.

def reference_mul(f, g):
    return full(f.num * g.num, f.den * g.den)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def product_operands(draw, rings=KERNEL_RINGS):
    """Two fractions and a rational k: one of the fractions a constant, or
    each numerator carrying the factors of the other denominator, or all
    denominators coprime.  In RU and RFU most numerators carry the pivot u."""
    ring = draw(st.sampled_from(rings))
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
@settings(max_examples=160, deadline=None)
def test_mul_matches_full_product_normalisation(ops):
    f, g, k = ops
    ring = f.ring
    K = RatFn(ring.const(k))
    assert RatFn.of(ring, k) == K
    assert f * g == reference_mul(f, g)
    assert k * f == reference_mul(K, f)
    assert f * k == reference_mul(f, K)
    assert f ** 3 == reference_mul(reference_mul(f, f), f)
    if g.is_zero:
        return
    # g's numerator, rationalised against the relation, must have a split
    try:
        g.inverse()
    except UnsplitDenominator:
        with pytest.raises(UnsplitDenominator):
            f / g
        return
    assert f / g == full(f.num * g.den, f.den * g.num)


@pytest.mark.parametrize("n", [3, 4])  # a chart ring, and one with a relation
def test_inverse_of_a_constant_is_the_normalised_reciprocal(n):
    ring = resolve_chart(n).ring
    assert (ring.pivot is None) == (n == 3)
    for q in (1, -1, 7, -3, Fraction(2, 9), Fraction(-5, 4), Fraction(1, 6)):
        f = RatFn.of(ring, q)
        got, want = f.inverse(), full(f.den, f.num)
        assert (got.num, got.den) == (want.num, want.den)
        assert ratfn_string(got) == ratfn_string(want)
        assert got.const_value() == 1 / Fraction(q)


def test_inverse_of_zero_is_a_zero_division():
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        RatFn.of(R3, 0).inverse()


# Constants take the integer route: one cross-multiplication and one gcd.
# Each result must be the general route's, the plain formula over the
# operands' Polys normalised in full, down to the Polys' structure, and its
# value the Fraction arithmetic's.

def structure(f):
    return f.num.terms, f.num.den, f.den.terms, f.den.den


signed_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
              st.integers(1, 10 ** 25)))


@given(st.booleans(), signed_rationals, signed_rationals, signed_rationals)
@settings(max_examples=200, deadline=None)
def test_constant_arithmetic_matches_the_general_route(chart, p, q, r):
    # a plain ring, or the n = 4 chart ring with its slot relation
    ring = resolve_chart(4).ring if chart else R3
    a, b, c = (RatFn.of(ring, v) for v in (p, q, r))
    assert all(x.is_const for x in (a, b, c))
    cases = [
        (a * b, reference_mul(a, b), p * q),
        (a + b, reference_add(a, b), p + q),
        (a - b, reference_add(a, -b), p - q),
        (dot(ring, [(a, b), (b, c), (c, a)]),
         reference_add(reference_add(reference_mul(a, b), reference_mul(b, c)),
                       reference_mul(c, a)), p * q + q * r + r * p)]
    if p:
        cases.append((a.inverse(), full(a.den, a.num), 1 / p))
    for got, want, value in cases:
        assert structure(got) == structure(want)
        assert got.const_value() == value


def test_a_constant_of_another_ring_is_refused():
    other = Ring(R3.names)
    a, b = RatFn.of(R3, Fraction(2, 3)), RatFn.of(other, -5)
    for make in (lambda: a * b, lambda: b * a, lambda: a + b, lambda: a - b,
                 lambda: dot(R3, [(a, a), (a, b)]),
                 lambda: dot(R3, [(b, a), (a, a)])):
        with pytest.raises(KernelInvariant, match="mixed rings"):
            make()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_poly_or_a_number_on_the_left_of_a_ratfn(n):
    # Poly's operators hand any other operand back to Python, which reaches
    # RatFn's reflected __radd__, __rsub__ and __rmul__; a Poly and a plain
    # number have no sum
    ring = resolve_chart(n).ring
    t1, t2 = RatFn.var(ring, "t1"), RatFn.var(ring, "t2")
    f = (t2 - 3) / (t1 * 2)
    p = ring.var("t1") * ring.var("t2") * Fraction(-2, 3)
    for left in (p, 4, Fraction(5, 7)):
        x = RatFn.of(ring, left)
        assert left + f == x + f == f + x
        assert left - f == x - f == -(f - x)
        assert left * f == x * f == f * x
    for make in (lambda: p + 1, lambda: 1 + p, lambda: p - Fraction(1, 2)):
        with pytest.raises(TypeError):
            make()
    other = RatFn.var(Ring(ring.names), "t1")
    for make in (lambda: p + other, lambda: p - other, lambda: p * other):
        with pytest.raises(KernelInvariant, match="mixed rings"):
            make()


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["R3", "RU", "RF", "RFU"])
def test_inverse_over_a_split_numerator_normalises_nothing(ring, monkeypatch):
    """A numerator c * x^a * F^k free of the pivot becomes the denominator
    as it stands: the inverse equals the full normalisation of den/num
    without calling the RatFn constructor.  So does the inverse of a
    numerator with the pivot, through its conjugate; one without a split
    is refused as the full normalisation refuses it."""
    x, y = RatFn.var(ring, "x"), RatFn.var(ring, "y")
    F = x ** 3 - y if ring.factor else y
    dens = [RatFn.of(ring, 1), 6 * x, -y * y / 4] + ([F * x] if ring.factor
                                                      else [])
    split = [RatFn.of(ring, -3), 2 * x * x * F, -x * y * F ** 2 / 7]
    other = [x + y]
    if ring.pivot is not None:
        other.append(x * RatFn.var(ring, "u"))
    monkeypatch.setattr(RatFn, "__init__", None)
    for num in split:
        for den in dens:
            f = num / den
            assert f.num.known_split() and not ring.has_pivot(f.num.terms)
            got = f.inverse()
            assert structure(got) == structure(full(f.den, f.num))
            assert got.den.known_split()
    for num in other:
        f = num / dens[1]
        try:
            want = full(f.den, f.num)
        except UnsplitDenominator:
            with pytest.raises(UnsplitDenominator):
                f.inverse()
            continue
        assert structure(f.inverse()) == structure(want)


# The derivative against the quotient rule it short-cuts: (p'q - pq')/q^2,
# normalised in one go.

def reference_derive(f, v):
    p, q = f.num, f.den
    return full(p.derive(v) * q - p * q.derive(v), q * q)


@st.composite
def derive_operands(draw, rings=(R3, RU)):
    """A fraction over a constant or a non-constant denominator in x and y,
    and a variable drawn from all of the ring's names, so it lies inside or
    outside the support; in RU it may be the pivot u."""
    ring = draw(st.sampled_from(rings))
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


# A second route for the relation-free rings: sympy.cancel of the same sum,
# product or derivative.  The kernel's result must have that value, and its
# numerator and denominator must share no factor.

def to_sympy(p):
    syms = dict(zip(p.ring.names, sympy.symbols(p.ring.names)))
    out = sympy.Integer(0)
    for c, powers in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for nm, k in powers:
            term *= syms[nm] ** k
        out += term
    return out


def sym(f):
    return to_sympy(f.num) / to_sympy(f.den)


def assert_is_cancelled(got, expr):
    num, den = to_sympy(got.num), to_sympy(got.den)
    want_num, want_den = sympy.fraction(sympy.cancel(expr))
    assert sympy.expand(num * want_den - want_num * den) == 0
    assert sympy.gcd(num, den).is_number


@needs_sympy
@given(sum_operands(RELATION_FREE))
@settings(max_examples=40, deadline=None)
def test_add_matches_sympy(ops):
    f, g = ops
    assert_is_cancelled(f + g, sym(f) + sym(g))


@needs_sympy
@given(product_operands(RELATION_FREE))
@settings(max_examples=40, deadline=None)
def test_mul_matches_sympy(ops):
    f, g, _ = ops
    assert_is_cancelled(f * g, sym(f) * sym(g))


@needs_sympy
@given(derive_operands(RELATION_FREE))
@settings(max_examples=40, deadline=None)
def test_derive_matches_sympy(op):
    f, v = op
    assert_is_cancelled(f.derive(v), sympy.diff(sym(f), sympy.Symbol(v)))


def test_poly_derivative_is_canonical():
    x = R3.var("x")
    d = (x ** 2 * Fraction(1, 2)).derive("x")
    assert d == x and repr(d) == "x"


def test_support_lists_numerator_and_denominator_variables():
    x, z = RatFn.var(R3, "x"), RatFn.var(R3, "z")
    assert (z / (x * 2)).support() == ["x", "z"]
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
    lead = unpack(max(den.terms), 3)
    rest = [unpack(e, 3) for e in r.terms]
    assert not [e for e in rest if all(x >= y for x, y in zip(e, lead))]
