"""ratfn.dot, the sum of products over one common denominator, against the
sequential sum of fully normalised products (tests/kernel_reference.py);
the pivot products and the inverses of pivot numerators that the split
route reduces without the RatFn constructor; pairs that mix constants,
one-constant products and pivot products; the constant-sum and unit
shortcuts of RatFn; and the traffic the fused sums save in
OneFormMat.contract."""

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import dworklie as dw
from dworklie import RatFn, Ring, UnsplitDenominator, chart
from dworklie.group import basis_pairs
from dworklie.linalg import MatF
from dworklie.ratfn import dot
from dworklie.ring import _pack, _primitive
from kernel_reference import full, pmul, poly, psum

KNOWN = ((3, 0, 0), 1)  # F = x^3 - y
PLAIN = Ring(("x", "y", "z"))
FACTOR = Ring(("x", "y", "z"), factor=KNOWN)
# u^2 = (x^3 - y)/4 = F/4: a constant rel_den other than 1 and a rel_num
# carrying the known factor, as in the n = 6 chart (kappa * disc)
CONST_REL = Ring(("x", "y", "u"), pivot=2,
                 rel_num={(3, 0, 0): 1, (0, 1, 0): -1},
                 rel_den={(0, 0, 0): 4}, factor=KNOWN)
# u^2 = (x^3 - y)/(4x): rel_den is not a constant, as in the symbolic chart
# (1296 c), so a pivot square brings a monomial split as well as an integer
POLY_REL = Ring(("x", "y", "u"), pivot=2,
                rel_num={(3, 0, 0): 1, (0, 1, 0): -1},
                rel_den={(1, 0, 0): 4}, factor=KNOWN)
RINGS = [PLAIN, FACTOR, CONST_REL, POLY_REL]


def full_product(a, b):
    ring = a.ring
    return full(pmul(ring, a.num, b.num), pmul(ring, a.den, b.den))


def reference_dot(ring, pairs):
    """The sequential sum of the products, each step normalised in full."""
    out = RatFn.of(ring, 0)
    for a, b in pairs:
        p = full_product(a, b)
        out = full(psum(pmul(ring, out.num, p.den), pmul(ring, p.num, out.den)),
                   pmul(ring, out.den, p.den))
    return out


def assert_canonical(r):
    """A primitive denominator with leading coefficient 1, built from the
    kept split and split as that."""
    D = r.den.terms
    c, P = _primitive(D)
    assert c == 1 and P == D and D[max(D)] == 1 and r.den.c == 1
    assert r.ring._known_split(D) == r.split


monomials = st.tuples(*[st.integers(0, 2)] * 3)
numerators = st.dictionaries(monomials, st.integers(-4, 4).filter(bool),
                             min_size=1, max_size=3)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def fractions(draw, ring):
    """p / (x^a F^k), F^k only where the ring knows F.  In the relation
    rings a numerator may carry the pivot u, up to u^2."""
    num = poly(ring, {_pack(e, 3): c for e, c in draw(numerators).items()},
               draw(st.integers(1, 3)))
    a = _pack((draw(st.integers(0, 2)), draw(st.integers(0, 2)), 0), 3)
    k = draw(st.integers(0, 2)) if ring.factor else 0
    return RatFn(*num) / RatFn(ring, ring.split_terms((a, k)))


@st.composite
def dot_operands(draw):
    """1 to 4 pairs: fractions, all constants, or fractions followed by a
    pair that undoes their sum."""
    ring = draw(st.sampled_from(RINGS))
    size = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["fractions", "constants", "cancel"]))
    if kind == "constants":
        return ring, [(RatFn.of(ring, draw(rationals)),
                       RatFn.of(ring, draw(rationals))) for _ in range(size)]
    pairs = [(draw(fractions(ring)), draw(fractions(ring)))
             for _ in range(size)]
    if kind == "cancel":
        pairs.append((-reference_dot(ring, pairs), RatFn.of(ring, 1)))
    return ring, pairs


@given(dot_operands())
@settings(max_examples=150, deadline=None)
def test_dot_matches_the_sequential_sum(ops):
    ring, pairs = ops
    got = dot(ring, pairs)
    assert got == reference_dot(ring, pairs)
    assert_canonical(got)


@given(st.sampled_from([CONST_REL, POLY_REL]), st.data())
@settings(max_examples=100, deadline=None)
def test_pivot_products_match_full_normalisation(ring, data):
    u, y = RatFn.var(ring, "u"), RatFn.var(ring, "y")
    a, b = (data.draw(fractions(ring)) for _ in range(2))
    a, b = a * (u + 1), b * (u - y)
    for got in (a * b, dot(ring, [(a, b)]), dot(ring, [(a, b), (b, b)])):
        assert_canonical(got)
    assert a * b == dot(ring, [(a, b)]) == full_product(a, b)
    assert dot(ring, [(a, b), (b, b)]) == reference_dot(ring, [(a, b), (b, b)])


def refuse(self, num, den=None):
    raise AssertionError("the split route called the RatFn constructor")


def assert_split_route(ring, a, b, c):
    """a * b and the dot of (a, b) and (c, a) equal the fully normalised
    references, and neither calls the RatFn constructor."""
    pairs = [(a, b), (c, a)]
    want = full_product(a, b), reference_dot(ring, pairs)
    with mock.patch.object(RatFn, "__init__", refuse):
        got = a * b, dot(ring, pairs)
    assert got == want
    for r in got:
        assert_canonical(r)


@given(st.sampled_from([CONST_REL, POLY_REL]), st.data())
@settings(max_examples=60, deadline=None)
def test_pivot_products_take_no_full_normalisation(ring, data):
    u, y = RatFn.var(ring, "u"), RatFn.var(ring, "y")
    a, b, c = (data.draw(fractions(ring)) for _ in range(3))
    assert_split_route(ring, a * (u + 1), b * (u - y), c * u)


@pytest.mark.parametrize("n, c", [(2, None), (4, None), (2, "sym"),
                                  (4, "sym")])
def test_chart_pivot_products_take_no_full_normalisation(n, c):
    # matched charts have a constant rel_den, symbolic ones (n + 2)^n c
    ch = dw.resolve_chart(n, c)
    ring = ch.ring
    piv = RatFn.var(ring, ch.pivot_var)
    ops = [v for _, v in ch.S.entries() if ring.has_pivot(v.num.terms)]
    ops += [piv / ch.disc,
            piv * RatFn.var(ring, "t1") / RatFn.var(ring, ch.base2)]
    rng = random.Random(n)
    for _ in range(10):
        assert_split_route(ring, *(rng.choice(ops) for _ in range(3)))


def assert_pivot_inverse(a):
    """a's numerator carries the pivot: 1/a equals the full normalisation of
    den/num and is canonical, with no RatFn constructor call, or both
    refuse a norm without a split.  True when the inverse exists."""
    assert a.ring.has_pivot(a.num.terms)
    try:
        want = full(a.den, a.num)
    except UnsplitDenominator:
        with mock.patch.object(RatFn, "__init__", refuse), \
                pytest.raises(UnsplitDenominator, match="no split"):
            a.inverse()
        return False
    with mock.patch.object(RatFn, "__init__", refuse):
        got = a.inverse()
    assert got == want
    assert_canonical(got)
    assert a * got == RatFn.of(a.ring, 1)
    return True


@given(st.sampled_from([CONST_REL, POLY_REL]), st.data())
@settings(max_examples=100, deadline=None)
def test_pivot_numerator_inverse_matches_full_normalisation(ring, data):
    a, b = (data.draw(fractions(ring)) for _ in range(2))
    f = a * RatFn.var(ring, "u") + b
    assume(ring.has_pivot(f.num.terms))
    assert_pivot_inverse(f)


@pytest.mark.parametrize("ring", [CONST_REL, POLY_REL],
                         ids=["const_rel", "poly_rel"])
def test_pivot_numerator_inverse_needs_a_split_norm(ring):
    # u^2 = F/4 or F/(4x): the norm of u, 3u/x and uF/y is -F/4 (or -F/(4x))
    # times a square, a split; that of u + x, xu + 1 and (u - y)/x is not
    x, y, u = (RatFn.var(ring, v) for v in ring.names)
    F = x ** 3 - y
    assert all(assert_pivot_inverse(f) for f in (u, 3 * u / x, u * F / y))
    assert not any(assert_pivot_inverse(f)
                   for f in (u + x, x * u + 1, (u - y) / x))


@pytest.mark.parametrize("n, c", [(2, None), (4, None), (2, "sym"),
                                  (4, "sym")])
def test_chart_pivot_numerator_inverse_matches_full_normalisation(n, c):
    ch = dw.resolve_chart(n, c)
    ring = ch.ring
    piv, t1 = RatFn.var(ring, ch.pivot_var), RatFn.var(ring, "t1")
    # the entries of S that carry the pivot, whose norms may or may not split
    for _, f in ch.S.entries():
        if ring.has_pivot(f.num.terms):
            assert_pivot_inverse(f)
    assert assert_pivot_inverse(piv / ch.disc)
    assert assert_pivot_inverse(piv * t1 / RatFn.var(ring, ch.base2))
    assert not assert_pivot_inverse(piv + t1)


def test_cold_charts_call_the_constructor_at_most_once(monkeypatch):
    # the chart_cold stages: the calls left are the relation constant's
    # lift onto the chart ring, one for its numerator and one for its
    # denominator
    monkeypatch.setattr(chart, "_CACHE", {})
    calls, init = [], RatFn.__init__

    def counted(self, ring, terms, den=1):
        calls.append(sys._getframe(1).f_code.co_name)
        init(self, ring, terms, den)

    monkeypatch.setattr(RatFn, "__init__", counted)
    for n in (5, 6):
        ch = dw.resolve_chart(n)
        dw.full_connection(ch)
        dw.modular_vf(n)
        dw.basis_vf(n)
    assert len(calls) <= 2 and set(calls) <= {"lift"}


def test_dot_of_nothing_and_of_zeros_is_zero():
    zero, x = RatFn.of(FACTOR, 0), RatFn.var(FACTOR, "x")
    assert dot(FACTOR, []) == zero
    assert dot(FACTOR, [(zero, x), (x, zero)]) == zero


def chart_values(n):
    """The entries of the connection and the coefficients of the basis
    fields of the chart for n."""
    ch = dw.resolve_chart(n)
    A = dw.full_connection(ch)
    out = [a for v in A.vars() for _, a in A.get(v).entries()]
    for V in dw.basis_vf(n).values():
        out += [V.get(v) for v in V.vars()]
    return ch.ring, out


def test_dot_matches_the_sequential_sum_in_chart_rings():
    for n in (2, 4, 6):
        ring, values = chart_values(n)
        rng = random.Random(40 + n)
        for _ in range(12):
            pairs = [(rng.choice(values), rng.choice(values) * rng.choice([1, -2]))
                     for _ in range(rng.randint(1, 5))]
            got = dot(ring, pairs)
            assert got == reference_dot(ring, pairs)
            assert_canonical(got)
            assert dot(ring, pairs + [(-got, RatFn.of(ring, 1))]).is_zero


@st.composite
def mixed_pairs(draw):
    """1 to 6 pairs over the n = 4 or n = 6 chart ring, whose values come
    from the chart, or over a plain ring: each pair two constants, a
    constant and a value in either order, or two values that carry the
    relation pivot (two fractions in the plain ring)."""
    n = draw(st.sampled_from([4, 6, None]))
    ring, values = (PLAIN, None) if n is None else chart_values(n)
    pivots = values and [a for a in values if ring.has_pivot(a.num.terms)]

    def value(pool):
        return draw(fractions(ring) if pool is None else st.sampled_from(pool))

    def const():
        return RatFn.of(ring, draw(rationals))

    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["constants", "constant-first",
                                     "constant-second", "pivots"]))
        pairs.append((const(), const()) if kind == "constants" else
                     (const(), value(values)) if kind == "constant-first" else
                     (value(values), const()) if kind == "constant-second" else
                     (value(pivots), value(pivots)))
    return ring, pairs


@given(mixed_pairs())
@settings(max_examples=150, deadline=None)
def test_dot_of_mixed_pairs_matches_the_sequential_sum(ops):
    ring, pairs = ops
    got = dot(ring, pairs)
    assert got == reference_dot(ring, pairs)
    assert_canonical(got)


def test_chart_pivot_products_keep_the_denominator_primitive():
    # at n = 6 the relation's rel_den is 2^18, so a pivot square brings a
    # constant that belongs to the numerator
    ring, values = chart_values(6)
    assert ring.rel_den == {0: 262144}
    piv = [a for a in values if ring.has_pivot(a.num.terms)]
    rng = random.Random(6)
    for _ in range(10):
        a, b = rng.choice(piv), rng.choice(piv)
        want = full_product(a, b)
        for got in (a * b, dot(ring, [(a, b)])):
            assert got == want
            assert_canonical(got)


def test_constant_sums_are_canonical():
    ring = FACTOR
    s = RatFn.of(ring, Fraction(1, 6)) + RatFn.of(ring, Fraction(1, 3))
    assert s.num.c == 2 and s.den.terms == {0: 1}
    assert s == RatFn.of(ring, Fraction(1, 2)) == RatFn(ring, {0: 1}, 2)
    for a in (RatFn.of(ring, Fraction(-7, 4)), RatFn.var(ring, "y") / 3):
        assert (a + (-a)).is_zero and (a + (-a)) == RatFn.of(ring, 0)


def test_a_product_with_one_is_the_other_operand():
    for ring in RINGS:
        x = (RatFn.var(ring, "x") + 2) / (RatFn.var(ring, "y") * 3)
        one = RatFn.of(ring, 1)
        assert x * one is x and one * x is x
        assert repr(x * 1) == repr(x) and x * 1 == x


def sequential_contract(A, V):
    out = MatF.zeros(A.ring, A.size)
    for v in A.vars():
        out = out + A.get(v).scale(V.get(v))
    return out


def test_contract_takes_no_normalisation(monkeypatch):
    """Each entry of contract is one dot, even where the products carry
    the pivot of the n = 4 chart."""
    ch = dw.resolve_chart(4)
    A = dw.full_connection(ch)
    rng = random.Random(4)
    pairs = basis_pairs(4)
    t1 = RatFn.var(ch.ring, "t1")
    fields = []
    for _ in range(5):
        f0 = RatFn.of(ch.ring, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        coeffs = {p: t1 ** rng.randint(0, 2) * rng.randint(-3, 3)
                  for p in rng.sample(pairs, 2)}
        fields.append(dw.membership_build(f0, coeffs, 4))
    want = [sequential_contract(A, V) for V in fields]
    monkeypatch.setattr(RatFn, "__init__", refuse)
    assert [A.contract(V) for V in fields] == want
