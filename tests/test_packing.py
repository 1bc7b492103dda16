"""Packed monomials: one int per monomial, fields [degree | e_last | ... | e_first].
Integer order must be the graded-lex order, a product one addition, the
divisibility test exact, and a degree past the field width a typed refusal."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworklie import KernelInvariant, Poly, Ring
from dworklie.ring import DEGREE_LIMIT, _G, _mono_gcd, _pack, _powers
from kernel_reference import unpack


def exponents(nv, top):
    return st.tuples(*[st.integers(0, top)] * nv)


def ordkey(e):
    return (sum(e), e[::-1])


# 3 variables, and 32 as at n = 10
@pytest.mark.parametrize("nv, top", [(3, 10_000), (32, 1_000)])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_order_is_the_graded_lex_order(nv, top, data):
    a, b = data.draw(exponents(nv, top)), data.draw(exponents(nv, top))
    ka, kb = _pack(a, nv), _pack(b, nv)
    assert unpack(ka, nv) == a
    assert (ka < kb) == (ordkey(a) < ordkey(b))
    assert (ka == kb) == (a == b)
    c = tuple(data.draw(st.permutations(a)))  # same degree: the tie-break
    assert (ka < _pack(c, nv)) == (ordkey(a) < ordkey(c))
    if sum(a) + sum(b) < 1 << 15:
        assert ka + kb == _pack(tuple(x + y for x, y in zip(a, b)), nv)
    d = kb - ka
    assert (d >= 0 and not d & _G) == all(x <= y for x, y in zip(a, b))


def test_a_product_past_the_field_limit_raises():
    R = Ring(("x", "y"))
    x, y = R.var("x"), R.var("y")
    top = x ** 32767
    assert list(top.items()) == [(1, (("x", 32767),))]
    with pytest.raises(KernelInvariant):
        top * y
    with pytest.raises(KernelInvariant):
        (top + y) * (x + R.one)
    with pytest.raises(KernelInvariant):
        x ** 40000
    with pytest.raises(KernelInvariant):
        Ring(("x", "u"), pivot=1, rel_num={(32768, 0): 1}, rel_den={(0, 0): 1})
    with pytest.raises(ValueError):
        Ring([f"x{i}" for i in range(4096)])  # wider than the guard mask


polys = st.dictionaries(exponents(3, 5), st.integers(-5, 5).filter(bool),
                        max_size=5)


@given(polys, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_lift_to_an_extension_and_back_is_the_identity(T, den):
    base = Ring(("x", "y", "z"))
    ext = base.extend(("u", "v"))
    x, y, z = (base.var(nm) for nm in ("x", "y", "z"))
    p = base.zero
    for (i, j, k), c in T.items():
        p = p + x ** i * y ** j * z ** k * Fraction(c, den)
    q = p.lift(ext)
    assert list(q.items()) == list(p.items())
    assert (q * ext.var("v")).derive("v") == q
    assert q.lift(base) == p


def random_exponents(rng, nv, base):
    """base plus a few random fields, the degree kept below 2^15."""
    e = list(base)
    for _ in range(rng.randint(0, 4)):
        e[rng.randrange(nv)] += rng.choice([1, 2, 7, rng.randint(0, 1 << 14)])
    while sum(e) >= 1 << 15:
        i = max(range(nv), key=e.__getitem__)
        e[i] //= 2
    return tuple(e)


def test_swar_monomial_gcd_matches_the_fieldwise_minimum():
    """3,000 seeded cases, up to 130 variables, fields up to 2^15 - 1: the
    operands share a random base monomial so that most gcds are not 1."""
    rng = random.Random(20)
    for case in range(3000):
        nv = rng.choice([1, 2, 3, rng.randint(4, 130)])
        if case % 10 == 0:
            base = [0] * nv
            base[rng.randrange(nv)] = (1 << 15) - 1  # one full field
        else:
            base = [rng.choice([0, 0, 1, 3]) for _ in range(nv)]
        sides = [[random_exponents(rng, nv, base)
                  for _ in range(rng.randint(1, 4))] for _ in range(2)]
        want = tuple(map(min, zip(*sides[0], *sides[1])))
        A, B = ({_pack(e, nv): 1 for e in side} for side in sides)
        assert _mono_gcd(A, B, nv) == _pack(want, nv), (nv, sides)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_support_matches_the_per_variable_scan(data):
    nv = data.draw(st.sampled_from([1, 3, 17, 120]))
    keys = data.draw(st.lists(st.lists(st.tuples(st.integers(0, nv - 1),
                                                 st.integers(1, 40)),
                                       max_size=4), max_size=5))
    R = Ring([f"v{i}" for i in range(nv)])
    terms = {}
    for fields in keys:
        e = [0] * nv
        for i, k in fields:
            e[i] = k
        terms[_pack(tuple(e), nv)] = 1
    want = [R.names[i] for i in range(nv)
            if any(unpack(e, nv)[i] for e in terms)]
    assert Poly(R, terms).support() == want


# The one reader of a key, ring._powers, walks the set fields; it and every
# reader built on it must agree with the dense unpack of every field.

@st.composite
def sparse_exponents(draw, nv):
    """A few set fields of nv, up to DEGREE_LIMIT in total."""
    e, budget = [0] * nv, DEGREE_LIMIT
    for i in draw(st.lists(st.integers(0, nv - 1), max_size=6, unique=True)):
        e[i] = draw(st.integers(0, budget))
        budget -= e[i]
    return tuple(e)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_walk_reads_the_fields_the_dense_unpack_reads(data):
    nv = data.draw(st.integers(1, 200))
    e = data.draw(sparse_exponents(nv))
    m = _pack(e, nv)
    assert unpack(m, nv) == e
    assert list(_powers(m, nv)) == [(i, k) for i, k in enumerate(e) if k]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_readers_of_a_polynomial_match_the_dense_reference(data):
    nv = data.draw(st.integers(1, 200))
    R = Ring([f"v{i}" for i in range(nv)])
    names = R.names
    exps = data.draw(st.lists(sparse_exponents(nv), min_size=1, max_size=5,
                              unique=True))
    coeffs = data.draw(st.lists(st.integers(-9, 9).filter(bool),
                                min_size=len(exps), max_size=len(exps)))
    P = Poly(R, {_pack(e, nv): c for e, c in zip(exps, coeffs)},
             data.draw(st.integers(1, 6)))
    dense = {m: unpack(m, nv) for m in P.terms}

    def coeff(c):
        return c if P.den == 1 else Fraction(c, P.den)

    assert list(P.items()) == [
        (coeff(c), tuple((names[i], k) for i, k in enumerate(dense[m]) if k))
        for m, c in sorted(P.terms.items(), key=lambda t: ordkey(dense[t[0]]))]
    assert P.support() == [names[i] for i in range(nv)
                           if any(e[i] for e in dense.values())]
    w = data.draw(st.dictionaries(st.sampled_from(names),
                                  st.integers(-3, 3), max_size=8))
    assert P.weighted_degrees(w) == {
        sum(w.get(nm, 0) * k for nm, k in zip(names, e))
        for e in dense.values()}
    values = st.fractions(-2, 2, max_denominator=3)
    point = {nm: data.draw(values) for nm in P.support()}
    want = Fraction(0)
    for m, c in P.terms.items():
        v = Fraction(c, P.den)
        for nm, k in zip(names, dense[m]):
            v *= Fraction(point.get(nm, 0)) ** k
        want += v
    assert P.eval(point) == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extend_repacks_the_relation_field_by_field(data):
    nv = data.draw(st.integers(1, 200))
    p = data.draw(st.integers(0, nv - 1))

    def free_of_pivot(e):
        return e[:p] + (0,) + e[p + 1:]

    num, den = (free_of_pivot(data.draw(sparse_exponents(nv)))
                for _ in range(2))
    R = Ring([f"v{i}" for i in range(nv)], pivot=p, rel_num={num: 3},
             rel_den={den: -2})
    extra = ("w0", "w1")
    E = R.extend(extra)
    assert E.pivot == p and E.names == R.names + extra
    for mine, theirs in ((R.rel_num, E.rel_num), (R.rel_den, E.rel_den)):
        assert theirs == {_pack(unpack(m, nv) + (0, 0), nv + 2): c
                          for m, c in mine.items()}
