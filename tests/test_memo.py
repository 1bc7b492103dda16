"""Memoised results live on their chart: repeated calls hand back the same
object, and a chart built outside the cache computes its own."""

import pytest

from dworklie import basis_vf, build_chart, full_connection, modular_vf, \
    resolve_chart, sl2_triple


@pytest.mark.parametrize("n", [1, 2])
def test_repeated_calls_return_the_same_object(n):
    ch = resolve_chart(n)
    assert full_connection(ch) is full_connection(ch)
    assert modular_vf(n)[0] is modular_vf(n)[0]
    assert modular_vf(n)[1] is modular_vf(n)[1]
    assert basis_vf(n) is basis_vf(n)


def test_uncached_chart_gets_its_own_connection():
    cached = resolve_chart(2)
    fresh = build_chart(2, cached.setup.c_value)
    A = full_connection(fresh)
    assert A is not full_connection(cached)
    assert A is full_connection(fresh)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl2_triple_is_verified_once_per_chart(n):
    assert sl2_triple(n) is sl2_triple(n)
    assert resolve_chart(n).memo_sl2 is sl2_triple(n)


def test_uncached_chart_starts_without_a_triple():
    assert build_chart(2, resolve_chart(2).setup.c_value).memo_sl2 is None
