"""Packed monomials: one int per monomial, fields [degree | e_last | ... | e_first].
Integer order must be the graded-lex order, a product one addition, the
divisibility test exact, and a degree past the field width a typed refusal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dworklie import KernelInvariant, Ring
from dworklie.ring import _G, _pack, _unpack


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
    assert _unpack(ka, nv) == a
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
