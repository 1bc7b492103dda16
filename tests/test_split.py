"""The known-factor split paths of the kernel against the general paths they
bypass: the exponent gcd of two split denominators, the logarithmic-derivative
rule, the split-carrying sum and product, the trusted Poly constructor, the
splits cached on denominators during a cold pipeline run, and the routes the
chart and threefold work take."""

import pytest
from hypothesis import given, settings, strategies as st

import dworklie as dw
from dworklie import Poly, RatFn, Ring, chart
from dworklie import ring as kernel
from dworklie.ring import _pack, _tadd, _tdiv_strict, _tgcd, _tmul, _tscale

# F = x^3 - y, in a plain ring and in the relation ring u^2 = (y - x)/(x + 1)
KNOWN = ((3, 0, 0), 1)
PLAIN = Ring(("x", "y", "z"), factor=KNOWN)
RELATION = Ring(("x", "y", "u"), pivot=2,
                rel_num={(0, 1, 0): 1, (1, 0, 0): -1},
                rel_den={(1, 0, 0): 1, (0, 0, 0): 1}, factor=KNOWN)
rings = st.sampled_from([PLAIN, RELATION])
monomials = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: _pack(e, 3))
den_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.just(0)).map(lambda e: _pack(e, 3))
polys = st.dictionaries(monomials, st.integers(-4, 4).filter(bool),
                        min_size=1, max_size=4)
scales = st.integers(-6, 6).filter(bool)
splits = st.tuples(scales, monomials, st.integers(0, 3))


@given(rings, splits, splits)
@settings(max_examples=150, deadline=None)
def test_exponent_gcd_matches_general_gcd(ring, s1, s2):
    B, D = ring.split_terms(s1), ring.split_terms(s2)
    assert ring._known_split(B) == s1 and ring._known_split(D) == s2
    gs, rb, rd = ring.split_gcd(s1, s2)
    g = _tgcd(B, D, ring.nvars)
    assert ring.split_terms(gs) == g
    assert ring.split_terms(rb) == _tdiv_strict(B, g)
    assert ring.split_terms(rd) == _tdiv_strict(D, g)


@given(rings, polys, splits, monomials, st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_split_cancel_matches_general_gcd(ring, f, s, b, j):
    N = _tmul(f, ring.split_terms((1, b, j)))
    D = ring.split_terms(s)
    gs, Q, rest = ring.cancel_split(N, s)
    g = _tgcd(N, D, ring.nvars)
    assert ring.split_terms(gs) == g
    assert Q == _tdiv_strict(N, g)
    assert ring.split_terms(rest) == _tdiv_strict(D, g)
    assert ring.split_poly(rest).known_split() == ring._known_split(
        ring.split_terms(rest))


@st.composite
def fractions(draw, ring=None):
    """p / (c x^b F^k), times x + 1 for some draws so that the denominator
    leaves the known form; in RELATION the numerator may carry the pivot."""
    ring = ring or draw(rings)
    num = Poly(ring, draw(polys), draw(st.integers(1, 3)))
    den = Poly(ring, ring.split_terms((draw(scales), draw(den_monomials),
                                       draw(st.integers(0, 3)))))
    if draw(st.integers(0, 4)) == 0:
        den = den * (ring.var("x") + ring.one)
    return RatFn(num, den)


def reference_derive(f, v):
    p, q = f.num, f.den
    return RatFn(p.derive(v) * q - p * q.derive(v), q * q)


@given(fractions(), st.sampled_from(["x", "y", "z", "u"]))
@settings(max_examples=200, deadline=None)
def test_log_derivative_matches_quotient_rule(f, v):
    v = v if v in f.ring.index else f.ring.names[2]
    d = f.derive(v)
    assert d == reference_derive(f, v)
    assert d.den.known_split() == (f.ring._known_split(d.den.terms) or False)


def test_log_derivative_takes_both_factors():
    # d/dy of 1/(x y^2 F) needs y (a_y = 2) and F (F'_y = -1) at once
    ring = PLAIN
    x, y = ring.var("x"), ring.var("y")
    F = Poly(ring, ring.factor_pow(1))
    f = RatFn(ring.one, x * y * y * F)
    assert f.den.known_split()
    assert f.derive("y") == reference_derive(f, "y")
    assert f.derive("y") == RatFn(-(2 * F - y), x * y * y * y * F * F)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_split_sum_and_product_match_full_normalisation(data):
    ring = data.draw(rings)
    f, g = data.draw(fractions(ring)), data.draw(fractions(ring))
    assert f + g == RatFn(f.num * g.den + g.num * f.den, f.den * g.den)
    assert f * g == RatFn(f.num * g.num, f.den * g.den)
    for r in (f + g, f * g):
        assert r.den.known_split() == (ring._known_split(r.den.terms) or False)


dens = st.integers(1, 12)


@given(rings, polys, polys, dens, st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_trusted_constructor_matches_poly(ring, A, B, den, k):
    for T in (A, _tmul(A, B), _tadd(A, B), _tscale(A, k)):
        assert Poly._trusted(ring, T, den) == Poly(ring, T, den)
        assert Poly._trusted(ring, T) == Poly(ring, T)


def test_cached_splits_hold_over_a_cold_run(monkeypatch):
    """Every split read during a cold n = 3..6 pipeline, whether carried from
    the operands or found on first use, is the split of the terms."""
    monkeypatch.setattr(chart, "_CACHE", {})
    reads = []
    plain = Poly.known_split

    def checked(self):
        ks = plain(self)
        reads.append(ks == (self.ring._known_split(self.terms) or False))
        return ks

    monkeypatch.setattr(Poly, "known_split", checked)
    for n in range(3, 7):
        ch = dw.resolve_chart(n)
        dw.full_connection(ch)
        dw.modular_vf(n)
        dw.basis_vf(n)
    assert len(reads) > 1000 and all(reads)


def test_one_term_polynomials_split_in_every_ring():
    ring = Ring(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    assert (x * x * y * 3).known_split() == (3, _pack((2, 1), 2), 0)
    assert ring.one.known_split() == (1, 0, 0)
    assert (x + y).known_split() is False


def test_chart_and_threefold_work_takes_no_general_gcd(monkeypatch):
    """A cold chart with its connection and modular field, and the threefold
    table with its triples: every denominator they meet is split (a chart's
    c * x^a * disc^k, a coupling ring's constants), so none reaches _tgcd."""
    monkeypatch.setattr(chart, "_CACHE", {})
    calls = []
    general = kernel._tgcd

    def counted(A, B, nv):
        calls.append(nv)
        return general(A, B, nv)

    monkeypatch.setattr(kernel, "_tgcd", counted)
    ch = dw.resolve_chart(4)
    dw.full_connection(ch)
    dw.modular_vf(4)
    report = dw.verify_cy3_table(2)
    assert dw.cy3_sl2(2, report).all_ok
    assert calls == []


def test_known_factor_must_avoid_the_pivot():
    with pytest.raises(ValueError, match="pivot"):
        Ring(("x", "y", "u"), pivot=1, rel_num={(1, 0, 0): 1},
             rel_den={(0, 0, 0): 1}, factor=KNOWN)
