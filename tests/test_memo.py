"""Memoised results live on their chart: repeated calls hand back the same
object, and a chart built outside the cache computes its own."""

import pytest

from dworklie import MatF, RatFn, basis_vf, build_chart, full_connection, \
    modular_vf, resolve_chart, sl2_triple, vf_from_target
from dworklie.group import basis_pairs, lie_gen


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


@pytest.mark.parametrize("n", [3, 4])
def test_solver_work_lives_on_the_chart(n):
    # the base products S*B[v] and the dependent-slot derivatives are built
    # once per chart, and a chart built outside the cache builds its own
    ch = resolve_chart(n)
    full_connection(ch)
    SB, derivs = ch.memo_solver
    assert set(SB) == set(ch.conn_base.comps)
    for v, B in ch.conn_base.comps.items():
        assert SB[v] == ch.S @ B
    assert set(derivs) == set(ch.dep_exprs)
    zero = RatFn.of(ch.ring, 0)
    for slot, expr in ch.dep_exprs.items():
        assert all(derivs[slot].get(v, zero) == expr.derive(v)
                   for v in ch.coords)
    fresh = build_chart(n, ch.setup.c_value)
    assert fresh.memo_solver is None
    target = lie_gen(n, *basis_pairs(n)[0], fresh.ring).transpose()
    vf_from_target(fresh, target)
    assert fresh.memo_solver is not None
    assert fresh.memo_solver is not ch.memo_solver


def test_repeated_solves_reuse_the_base_products(monkeypatch):
    # once the chart's solver memo is filled, each solve makes exactly one
    # product, the target times S
    ch = build_chart(3, resolve_chart(3).setup.c_value)
    targets = [lie_gen(3, a, b, ch.ring).transpose() for a, b in basis_pairs(3)]
    vf_from_target(ch, targets[0])
    calls = []
    matmul = MatF.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(MatF, "__matmul__", counting)
    for g in targets:
        vf_from_target(ch, g)
    assert len(calls) == len(targets)
