"""The kernel gcd against sympy's, on operands whose variable supports differ,
so that the support split in ring._tgcd decides the answer; and the two
cancel routes, Ring.cancel_split for a split denominator and Ring.cancel for
any other, against _tgcd and exact division."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from dworklie import Poly, RatFn, Ring
from dworklie.ring import (_pack, _tadd, _tdiv_exact, _tdiv_known,
                           _tdiv_strict, _tgcd, _tmul, _tpow, _unpack)

try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy not installed")

NAMES = ("x", "y", "z", "w")


def pack(T, nv=len(NAMES)):
    """The term dict T, keyed by exponent tuples, as the kernel keys it."""
    return {_pack(e, nv): c for e, c in T.items()}


def to_sympy(T):
    T = {_unpack(e, len(NAMES)): c for e, c in T.items()}
    return sympy.Poly.from_dict(T, *sympy.symbols(NAMES)).as_expr()


def assert_matches_sympy(A, B):
    g = _tgcd(A, B, len(NAMES))
    assert g[max(g)] > 0
    ref = sympy.gcd(to_sympy(A), to_sympy(B))
    assert sympy.expand(to_sympy(g) - ref) == 0 or \
        sympy.expand(to_sympy(g) + ref) == 0


def terms_in(variables):
    """Small polynomials in the given variable positions only."""
    expo = st.tuples(*[st.integers(0, 2) if i in variables else st.just(0)
                       for i in range(len(NAMES))])
    return st.dictionaries(expo, st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=3).map(pack)


# common factor in x, y; cofactors that bring z (first operand) or w (second)
@needs_sympy
@given(terms_in({0, 1}), terms_in({0, 1, 2}), terms_in({0, 1, 3}))
@settings(max_examples=60, deadline=None)
def test_gcd_with_disjoint_extra_variables(f, ga, gb):
    assert_matches_sympy(_tmul(f, ga), _tmul(f, gb))


# only one operand carries an extra variable
@needs_sympy
@given(terms_in({0, 1}), terms_in({0, 1, 2}), terms_in({0, 1}))
@settings(max_examples=60, deadline=None)
def test_gcd_with_one_sided_extra_variable(f, ga, gb):
    assert_matches_sympy(_tmul(f, ga), _tmul(f, gb))


@needs_sympy
def test_gcd_of_disc_power_with_extra_variable_cofactor():
    # disc = x^7 - y (the n = 5 discriminant in t1, t_b); the other operand is
    # disc^2 times a cofactor in z and w that shares no factor with disc
    disc = pack({(7, 0, 0, 0): 1, (0, 1, 0, 0): -1})
    cof = pack({(0, 0, 2, 0): 3, (1, 0, 1, 1): -2, (0, 1, 0, 2): 5,
                (2, 1, 1, 0): 1, (0, 0, 0, 1): 7, (3, 0, 0, 0): -1})
    A = _tmul(_tpow(disc, 2), cof)
    B = _tpow(disc, 6)
    assert _tgcd(A, B, 4) == _tpow(disc, 2)
    assert_matches_sympy(A, B)


def test_gcd_where_a_point_drops_the_leading_coefficient():
    # lc_x(f) = 4 - y vanishes at y = 4; an evaluation image there has lower
    # degree in x, so it bounds nothing about the gcd
    f = pack({(1, 0, 0, 0): 4, (0, 1, 0, 0): -2, (1, 1, 0, 0): -1})
    A = _tmul(pack({(1, 0, 0, 0): 1}), f)
    B = _tmul(pack({(0, 1, 0, 0): 1}), f)
    assert _tgcd(A, B, 4) == pack({(1, 1, 0, 0): 1, (1, 0, 0, 0): -4,
                                   (0, 1, 0, 0): 2})


def test_quotient_with_a_common_factor_is_reduced():
    ring = Ring(NAMES)
    x, y = RatFn.var(ring, "x"), RatFn.var(ring, "y")
    f = x * 4 - y * 2 - x * y
    assert (x * f) / (y * f) == x / y


# The known factor F = x^3 - y, in a plain ring and in the relation ring
# u^2 = (y - x)/(x + 1).  Ring.cancel_split, for D = c * x^b * F^k, and
# Ring.cancel, for any other D, must give what _tgcd and two exact divisions
# give.

KNOWN = ((3, 0, 0), 1)
F = pack({(3, 0, 0): 1, (0, 1, 0): -1}, 3)
PLAIN = Ring(("x", "y", "z"), factor=KNOWN)
RELATION = Ring(("x", "y", "u"), pivot=2,
                rel_num={(0, 1, 0): 1, (1, 0, 0): -1},
                rel_den={(1, 0, 0): 1, (0, 0, 0): 1}, factor=KNOWN)
rings = st.sampled_from([PLAIN, RELATION])
monomials = st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: _pack(e, 3))
polys = st.dictionaries(monomials, st.integers(-4, 4).filter(bool),
                        min_size=1, max_size=4)
scales = st.integers(-6, 6).filter(bool)


def general_cancel(ring, N, D):
    g = _tgcd(N, D, ring.nvars)
    return g, _tdiv_strict(N, g), _tdiv_strict(D, g)


@given(rings, polys, monomials, st.integers(0, 3), scales, monomials,
       st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_known_factor_cancel_matches_general_gcd(ring, f, a, j, c, b, k):
    N = _tmul(_tmul(f, {a: 1}), _tpow(F, j))
    D = _tmul({b: c}, _tpow(F, k))
    assert ring._known_split(D) == (c, b, k)
    gs, Q, rest = ring.cancel_split(N, (c, b, k))
    assert (ring.split_terms(gs), Q, ring.split_terms(rest)) == \
        general_cancel(ring, N, D)


X_PLUS_1 = pack({(1, 0, 0): 1, (0, 0, 0): 1}, 3)
NOT_KNOWN = [
    _tadd(F, pack({(0, 0, 0): 1}, 3)),                   # F + 1
    _tmul(F, X_PLUS_1),                                  # F (x + 1)
    pack({(3, 0, 0): 1, (0, 1, 0): 1}, 3),               # x^3 + y
    pack({(3, 0, 0): 2, (0, 1, 0): -1}, 3),              # 2 x^3 - y
    _tmul(F, pack({(0, 0, 1): 1, (0, 0, 0): -1}, 3)),    # F (z - 1)
    pack({(0, 2, 0): 1, (0, 1, 0): 2, (0, 0, 0): 1}, 3), # (y + 1)^2
]


@given(rings, polys, st.sampled_from(NOT_KNOWN), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_other_denominators_take_the_general_path(ring, f, D, j):
    N = _tmul(_tmul(f, _tpow(F, j)), X_PLUS_1)
    assert ring._known_split(D) is None
    assert ring.cancel(N, D) == general_cancel(ring, N, D)[1:]


@given(polys, st.integers(0, 3), st.dictionaries(monomials, st.integers(-3, 3),
                                                  max_size=2))
@settings(max_examples=120, deadline=None)
def test_synthetic_division_matches_exact_division(f, j, extra):
    T = _tadd(_tmul(f, _tpow(F, j)), {e: c for e, c in extra.items() if c})
    assume(T)
    assert _tdiv_known(T, PLAIN._known) == _tdiv_exact(T, F)


def test_synthetic_division_rejects_what_the_weighted_image_misses():
    # z - y^3 vanishes under the weighted image x, y, z to t, t^3, t^9 (y
    # standing for x^3), yet x^3 - y does not divide it
    T = pack({(0, 0, 1): 1, (0, 3, 0): -1}, 3)
    assert _tdiv_known(T, PLAIN._known) is None and _tdiv_exact(T, F) is None


def test_known_factor_carries_over_padded():
    base = Ring(("x", "y", "u"), factor=KNOWN)
    x, y = base.var("x"), base.var("y")
    rel = base.with_relation("u", y - x, x + base.one)
    assert rel.factor == KNOWN and rel.pivot == 2
    assert rel.factor_pow(1) == F
    ext = rel.extend(("g1", "g2"))
    assert ext.factor == ((3, 0, 0, 0, 0), 1) and ext.pivot == 2
    assert ext.factor_pow(2) == Poly(rel, _tpow(F, 2)).lift(ext).terms
    assert Ring(("x", "y")).extend(("z",)).factor is None
