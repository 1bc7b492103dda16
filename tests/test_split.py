"""The split route, the kernel's one denominator route: the exponent gcd of
two split denominators and the split cancel against sympy's gcd and against
their own coprimality certificate, synthetic division by the known factor
against division with remainder, the logarithmic-derivative rule, the
split-carrying sum and product, the trusted Poly constructor, the splits
kept on every result and during a cold pipeline run, each an (a, k) pair
with the denominator built from it led by 1, the chart and threefold
work that must finish on this route, and the refusal of any denominator or
relation without a split, and of the inverse of a zero divisor."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import dworklie as dw
from dworklie import Poly, RatFn, Ring, UnsplitDenominator, chart, ratfn
from dworklie.ring import _pack, _tadd, _tdiv_known, _tmul, _tpow, _tscale
from kernel_reference import full, unpack

try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy not installed")

# F = x^3 - y, in a plain ring and in the relation ring u^2 = F/(4x), whose
# rel_den is a non-constant split
KNOWN = ((3, 0, 0), 1)
PLAIN = Ring(("x", "y", "z"), factor=KNOWN)
RELATION = Ring(("x", "y", "u"), pivot=2,
                rel_num={(3, 0, 0): 1, (0, 1, 0): -1},
                rel_den={(1, 0, 0): 4}, factor=KNOWN)
F = PLAIN.factor_pow(1)
rings = st.sampled_from([PLAIN, RELATION])
monomials = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: _pack(e, 3))
den_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.just(0)).map(lambda e: _pack(e, 3))
polys = st.dictionaries(monomials, st.integers(-4, 4).filter(bool),
                        min_size=1, max_size=4)
scales = st.integers(-6, 6).filter(bool)
splits = st.tuples(monomials, st.integers(0, 3))


def to_sympy(ring, T):
    T = {unpack(e, ring.nvars): c for e, c in T.items()}
    return sympy.Poly.from_dict(T, *sympy.symbols(ring.names)).as_expr()


def assert_is_sympy_gcd(ring, G, A, B):
    """G is gcd(A, B) as sympy finds it, up to the sign sympy picks."""
    g, ref = to_sympy(ring, G), sympy.gcd(to_sympy(ring, A), to_sympy(ring, B))
    assert sympy.expand(g - ref) == 0 or sympy.expand(g + ref) == 0


@needs_sympy
@given(rings, splits, splits)
@settings(max_examples=150, deadline=None)
def test_exponent_gcd_matches_general_gcd(ring, s1, s2):
    B, D = ring.split_terms(s1), ring.split_terms(s2)
    assert ring._known_split(B) == s1 and ring._known_split(D) == s2
    gs, rb, rd = ring.split_gcd(s1, s2)
    G = ring.split_terms(gs)
    assert_is_sympy_gcd(ring, G, B, D)
    assert _tmul(G, ring.split_terms(rb)) == B
    assert _tmul(G, ring.split_terms(rd)) == D


def cancel_case(ring, f, s, b, j):
    """N = f * x^b * F^j against D with split s: (N, D, g, N/g, D/g) from
    cancel_split, D/g as a split and the rest as term dicts; g's split is
    s less that of D/g."""
    N = _tmul(f, ring.split_terms((b, j)))
    Q, rest = ring.cancel_split(N, s)
    assert ring._known_split(ring.split_terms(rest)) == rest
    gs = (s[0] - rest[0], s[1] - rest[1])
    return N, ring.split_terms(s), ring.split_terms(gs), Q, rest


@needs_sympy
@given(rings, polys, splits, monomials, st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_split_cancel_matches_general_gcd(ring, f, s, b, j):
    N, D, G, Q, rest = cancel_case(ring, f, s, b, j)
    assert_is_sympy_gcd(ring, G, N, D)
    assert _tmul(G, Q) == N and _tmul(G, ring.split_terms(rest)) == D


@needs_sympy
@given(rings, polys, monomials, st.integers(0, 3), scales, monomials,
       st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_known_factor_cancel_matches_general_gcd(ring, f, a, j, c, b, k):
    """D = c x^b F^k splits as (b, k) whatever its leading coefficient c,
    and the cancel against that split takes the gcd with D / c."""
    N = _tmul(_tmul(f, {a: 1}), _tpow(F, j))
    D = _tmul({b: c}, _tpow(F, k))
    assert ring._known_split(D) == (b, k)
    Q, rest = ring.cancel_split(N, (b, k))
    G = ring.split_terms((b - rest[0], k - rest[1]))
    assert _tscale(ring.split_terms((b, k)), c) == D
    assert_is_sympy_gcd(ring, G, N, ring.split_terms((b, k)))
    assert _tmul(G, Q) == N
    assert _tscale(_tmul(G, ring.split_terms(rest)), c) == D


@given(rings, polys, splits, monomials, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_split_cancel_leaves_coprime_parts(ring, f, s, b, j):
    """Without a reference gcd: N = g Q and D = g R as products, and
    gcd(Q, R) = 1 read from R's split (a, k), R = x^a F^k with F
    irreducible: each variable of x^a misses some term of Q, and F leaves a
    remainder in Q when k > 0."""
    N, D, G, Q, rest = cancel_case(ring, f, s, b, j)
    assert _tmul(G, Q) == N and _tmul(G, ring.split_terms(rest)) == D
    a, k = rest
    q = Poly(ring, Q)
    for v in Poly(ring, {a: 1}).support():
        assert 0 in q.coeffs(v)
    if k:
        assert not divmod(q, Poly(ring, F))[1].is_zero


@given(polys, st.integers(0, 3), st.dictionaries(monomials, st.integers(-3, 3),
                                                  max_size=2))
@settings(max_examples=120, deadline=None)
def test_synthetic_division_matches_exact_division(f, j, extra):
    T = _tadd(_tmul(f, _tpow(F, j)), {e: c for e, c in extra.items() if c})
    assume(T)
    q, r = divmod(Poly(PLAIN, T), Poly(PLAIN, F))
    assert _tdiv_known(T, PLAIN._known) == (q.terms if r.is_zero else None)


def test_synthetic_division_rejects_what_the_weighted_image_misses():
    # z - y^3 vanishes under the weighted image x, y, z to t, t^3, t^9 (y
    # standing for x^3), yet x^3 - y does not divide it
    T = {_pack((0, 0, 1), 3): 1, _pack((0, 3, 0), 3): -1}
    assert _tdiv_known(T, PLAIN._known) is None
    assert not divmod(Poly(PLAIN, T), Poly(PLAIN, F))[1].is_zero


@st.composite
def fractions(draw, ring=None):
    """p / (c x^b F^k); in RELATION the numerator may carry the pivot."""
    ring = ring or draw(rings)
    num = Poly(ring, draw(polys), draw(st.integers(1, 3)))
    den = Poly(ring, _tscale(ring.split_terms((draw(den_monomials),
                                               draw(st.integers(0, 3)))),
                             draw(scales)))
    return RatFn(num, den)


def reference_derive(f, v):
    p, q = f.num, f.den
    return full(p.derive(v) * q - p * q.derive(v), q * q)


@given(fractions(), st.sampled_from(["x", "y", "z", "u"]))
@settings(max_examples=200, deadline=None)
def test_log_derivative_matches_quotient_rule(f, v):
    v = v if v in f.ring.index else f.ring.names[2]
    d = f.derive(v)
    assert d == reference_derive(f, v)
    assert d.den.known_split() == d.split


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
    assert f + g == full(f.num * g.den + g.num * f.den, f.den * g.den)
    assert f * g == full(f.num * g.num, f.den * g.den)
    for r in (f + g, f * g):
        assert r.den.known_split() == r.split


dens = st.integers(1, 12)


@given(rings, polys, polys, dens, st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_trusted_constructor_matches_poly(ring, A, B, den, k):
    for T in (A, _tmul(A, B), _tadd(A, B), _tscale(A, k)):
        assert Poly._trusted(ring, T, den) == Poly(ring, T, den)
        assert Poly._trusted(ring, T) == Poly(ring, T)


def test_cached_splits_hold_over_a_cold_run(monkeypatch):
    """Every split a RatFn keeps during a cold n = 3..6 pipeline, carried
    from the operands or found by a cancel, is the split of the denominator
    built from it, whose leading coefficient is 1."""
    monkeypatch.setattr(chart, "_CACHE", {})
    reads = []
    plain = ratfn._raw

    def checked(ring, T, c, split):
        r = plain(ring, T, c, split)
        D = r.den.terms
        reads.append(D[max(D)] == 1 and r.den.known_split() == split)
        return r

    monkeypatch.setattr(ratfn, "_raw", checked)
    for n in range(3, 7):
        ch = dw.resolve_chart(n)
        dw.full_connection(ch)
        dw.modular_vf(n)
        dw.basis_vf(n)
    assert len(reads) > 1000 and all(reads)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_every_result_keeps_the_split_of_its_denominator(data):
    """The constructor, sum, product, dot, inverse and derivative of drawn
    fractions: the denominator built from the kept split is led by 1 and
    splits as that split."""
    ring = data.draw(rings)
    f, g = data.draw(fractions(ring)), data.draw(fractions(ring))
    results = [f, g, f + g, f * g, ratfn.dot(ring, [(f, g), (g, f)]),
               f.derive(data.draw(st.sampled_from(ring.names)))]
    for a in (f, g):
        if not a.is_zero:
            try:
                results.append(a.inverse())
            except UnsplitDenominator:
                pass
    for r in results:
        D = r.den.terms
        assert D[max(D)] == 1 and r.den.den == 1
        assert r.den.known_split() == r.split


SPLIT_METHODS = {
    # name: which arguments are splits, and how to read the splits returned
    "split_terms": (lambda split: [split], lambda out: []),
    "split_mul": (lambda *splits: splits, lambda out: [out]),
    "split_lcm": (lambda groups: [s for g in groups for s in g],
                  lambda out: [out[0]]),
    "split_gcd": (lambda s1, s2: [s1, s2], lambda out: out),
    "derive_split": (lambda P, split, var: [split], lambda out: [out[1]]),
    "cancel_split": (lambda N, split: [split], lambda out: [out[1]]),
    "reduce_split": (lambda T: [], lambda out: [out[2]]),
}


def test_every_split_is_an_exponent_pair(monkeypatch):
    """During a cold n = 4 chart build and its fields, every split passed to
    or returned by a Ring split method is (a, k): two ints, the key of x^a
    and the power k of the known factor."""
    monkeypatch.setattr(chart, "_CACHE", {})
    seen = []

    def watched(name, method, args_of, outs_of):
        def call(self, *args):
            out = method(self, *args)
            seen.extend((name, s) for s in [*args_of(*args), *outs_of(out)])
            return out
        return call

    for name, (args_of, outs_of) in SPLIT_METHODS.items():
        monkeypatch.setattr(Ring, name, watched(name, getattr(Ring, name),
                                                args_of, outs_of))
    ch = dw.resolve_chart(4)
    dw.full_connection(ch)
    dw.modular_vf(4)
    dw.basis_vf(4)
    assert {name for name, _ in seen} == set(SPLIT_METHODS)
    bad = [(name, s) for name, s in seen
           if not (type(s) is tuple and len(s) == 2
                   and all(type(x) is int and x >= 0 for x in s))]
    assert bad == []


def test_one_term_polynomials_split_in_every_ring():
    ring = Ring(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    assert (x * x * y * 3).known_split() == (_pack((2, 1), 2), 0)
    assert ring.one.known_split() == (0, 0)
    assert (x + y).known_split() is False


# The census: any denominator without a split raises UnsplitDenominator, so
# finishing cold work shows that every denominator it met was split.

def test_chart_and_threefold_work_takes_no_general_gcd(monkeypatch):
    """A cold chart at the matched constant with its connection, modular
    and basis fields, and the threefold table with its triples: every
    denominator they meet is split (a chart's c * x^a * disc^k, a coupling
    ring's constants)."""
    monkeypatch.setattr(chart, "_CACHE", {})
    ch = dw.resolve_chart(4)
    dw.full_connection(ch)
    dw.modular_vf(4)
    dw.basis_vf(4)
    report = dw.verify_cy3_table(2)
    assert dw.cy3_sl2(2, report).all_ok


def test_chart_and_threefold_work_never_call_the_general_cancel(monkeypatch):
    """The symbolic chart's rel_den is 1296 c, not a constant; its pivot
    products take the split route as a constant rel_den's do, since rel_den
    is split."""
    monkeypatch.setattr(chart, "_CACHE", {})
    ch = dw.resolve_chart(4, "sym")
    assert len(ch.ring.rel_den) == 1 and 0 not in ch.ring.rel_den
    dw.full_connection(ch)
    dw.modular_vf(4, "sym")
    dw.basis_vf(4, "sym")


X_PLUS_1 = {_pack((1, 0, 0), 3): 1, 0: 1}
UNSPLIT = [
    _tadd(F, {0: 1}),                                            # F + 1
    _tmul(F, X_PLUS_1),                                          # F (x + 1)
    {_pack((3, 0, 0), 3): 1, _pack((0, 1, 0), 3): 1},            # x^3 + y
    {_pack((3, 0, 0), 3): 2, _pack((0, 1, 0), 3): -1},           # 2 x^3 - y
    _tmul(F, {_pack((0, 0, 1), 3): 1, 0: -1}),                   # F (z - 1)
    {_pack((0, 2, 0), 3): 1, _pack((0, 1, 0), 3): 2, 0: 1},      # (y + 1)^2
]


@pytest.mark.parametrize("ring", [PLAIN, RELATION], ids=["plain", "relation"])
def test_denominators_without_a_split_are_refused(ring):
    """Refused before any cancellation, even where the numerator carries
    the whole denominator."""
    x = ring.var("x")
    for D in UNSPLIT:
        assert ring._known_split(D) is None
        d = Poly(ring, D)
        for num in (x, d * x, d):
            with pytest.raises(UnsplitDenominator, match="no split"):
                RatFn(num, d)
        with pytest.raises(UnsplitDenominator):
            RatFn(d).inverse()


def test_relation_denominator_must_have_a_split():
    with pytest.raises(ValueError, match="rel_den"):
        Ring(("x", "y", "u"), pivot=2, rel_num={(0, 1, 0): 1},
             rel_den={(1, 0, 0): 1, (0, 0, 0): 1}, factor=KNOWN)
    x, y = PLAIN.var("x"), PLAIN.var("y")
    for den in (x + PLAIN.one, x * x + y, Poly(PLAIN, F) + PLAIN.one):
        with pytest.raises(ValueError, match="rel_den"):
            PLAIN.with_relation("z", Poly(PLAIN, F), den)
    rel = PLAIN.with_relation("z", Poly(PLAIN, F), 4 * x * Poly(PLAIN, F))
    assert rel.pivot == 2


def test_relation_numerator_must_have_a_split():
    """pivot = 1/pivot * rel_num/rel_den, so an unsplit rel_num would leave
    the pivot without an inverse: in u^2 = (y - x)/(4x), 1/u rationalises
    to a denominator y - x."""
    with pytest.raises(ValueError, match="rel_num"):
        Ring(("x", "y", "u"), pivot=2, rel_num={(0, 1, 0): 1, (1, 0, 0): -1},
             rel_den={(1, 0, 0): 4})
    x, y = PLAIN.var("x"), PLAIN.var("y")
    for num in (y - x, x + PLAIN.one, Poly(PLAIN, F) + PLAIN.one):
        with pytest.raises(ValueError, match="rel_num"):
            PLAIN.with_relation("z", num, 4 * x)
    for num in (y, 3 * x * y, Poly(PLAIN, F) * x):
        rel = PLAIN.with_relation("z", num, 4 * x)
        z = RatFn.var(rel, "z")
        assert z * (1 / z) == RatFn.of(rel, 1)


def test_a_zero_divisor_has_no_inverse():
    """In u^2 = x^2 the norm of u - x, (u - x)(u + x) reduced, is zero: it
    is a zero divisor, refused as a zero division and not as an unsplit 0."""
    ring = Ring(("x", "y", "u"), pivot=2, rel_num={(2, 0, 0): 1},
                rel_den={(0, 0, 0): 1}, factor=KNOWN)
    x, u = RatFn.var(ring, "x"), RatFn.var(ring, "u")
    assert ((u - x) * (u + x)).is_zero
    for make in (lambda: (u - x).inverse(), lambda: x / (u + x),
                 lambda: RatFn(ring.one, ring.var("u") - ring.var("x"))):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            make()


def test_known_factor_must_avoid_the_pivot():
    with pytest.raises(ValueError, match="pivot"):
        Ring(("x", "y", "u"), pivot=1, rel_num={(1, 0, 0): 1},
             rel_den={(0, 0, 0): 1}, factor=KNOWN)


def test_known_factor_carries_over_padded():
    base = Ring(("x", "y", "u"), factor=KNOWN)
    x, y = base.var("x"), base.var("y")
    rel = base.with_relation("u", x ** 3 - y, 4 * x)
    assert rel.factor == KNOWN and rel.pivot == 2
    assert rel.factor_pow(1) == F
    ext = rel.extend(("g1", "g2"))
    assert ext.factor == ((3, 0, 0, 0, 0), 1) and ext.pivot == 2
    assert ext.factor_pow(2) == Poly(rel, _tpow(F, 2)).lift(ext).terms
    assert Ring(("x", "y")).extend(("z",)).factor is None
