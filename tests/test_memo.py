"""Memoised results live on their chart: repeated calls hand back the same
object, and a chart built outside the cache computes its own."""

import pytest

from dworklie import MatF, RatFn, basis_vf, build_chart, fR_identities, \
    full_connection, linalg, modular_vf, resolve_chart, sl2_triple, \
    vf_from_target, weights
from dworklie.connection import _pivot_corrections
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
    # the base products S*B[v], the inverse of the 2x2 base system and the
    # pivot corrections are built once per chart, and a chart built outside
    # the cache builds its own
    ch = resolve_chart(n)
    full_connection(ch)
    SB, base_inv, corrections = ch.memo_solver
    assert set(SB) == set(ch.conn_base.comps)
    for v, B in ch.conn_base.comps.items():
        assert SB[v] == ch.S @ B
    # base_inv times the base system [[a, b], [c, d]] is the identity, with
    # (a, c) and (b, d) the entries (1,1), (1,2) of S*B[t1] and S*B[t_{n+2}]
    base = MatF(ch.ring, [[SB[v].get1(1, k) for v in ("t1", ch.setup.base2)]
                          for k in (1, 2)])
    assert MatF(ch.ring, [list(r) for r in base_inv]) @ base \
        == MatF.identity(ch.ring, 2)
    if ch.pivot_var is None:
        assert corrections is None
    else:
        assert corrections == _pivot_corrections(ch)
    fresh = build_chart(n, ch.setup.c_value)
    assert fresh.memo_solver is None
    target = lie_gen(n, *basis_pairs(n)[0], fresh.ring).transpose()
    vf_from_target(fresh, target)
    assert fresh.memo_solver is not None
    assert fresh.memo_solver is not ch.memo_solver


def test_repeated_solves_reuse_the_base_products(monkeypatch):
    # once the chart's solver memo is filled, each solve makes exactly one
    # product, the target times S, and no Gauss-Jordan elimination (the
    # route of solve_linear and MatF.inverse)
    ch = build_chart(3, resolve_chart(3).setup.c_value)
    targets = [lie_gen(3, a, b, ch.ring).transpose() for a, b in basis_pairs(3)]
    vf_from_target(ch, targets[0])
    calls = []
    product = MatF.product

    def counting(self, other, skip=()):
        calls.append(1)
        return product(self, other, skip)

    eliminations = []
    gauss_jordan = linalg._gauss_jordan

    def counting_eliminations(A, ncols):
        eliminations.append(1)
        return gauss_jordan(A, ncols)

    monkeypatch.setattr(MatF, "product", counting)
    monkeypatch.setattr(linalg, "_gauss_jordan", counting_eliminations)
    for g in targets:
        vf_from_target(ch, g)
    assert len(calls) == len(targets)
    assert not eliminations


@pytest.mark.parametrize("n", [3, 4])
def test_first_solve_on_a_fresh_chart_derives_nothing(n, monkeypatch):
    # existence is proved by the pairing, so neither the solver's prepared
    # work nor the solve itself differentiates a slot expression
    ch = build_chart(n, resolve_chart(n).setup.c_value)
    calls = []
    derive = RatFn.derive

    def counting(self, var):
        calls.append(var)
        return derive(self, var)

    monkeypatch.setattr(RatFn, "derive", counting)
    vf_from_target(ch, lie_gen(n, *basis_pairs(n)[0], ch.ring).transpose())
    assert ch.memo_solver is not None
    assert not calls


def test_fR_identities_are_computed_once_per_chart():
    assert fR_identities(2) is fR_identities(2)
    assert resolve_chart(2).memo_fR is fR_identities(2)
    assert build_chart(2, resolve_chart(2).setup.c_value).memo_fR is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weights_are_computed_once_per_chart(n):
    assert weights(n) is weights(n)
    assert resolve_chart(n).memo_weights is weights(n)
    assert build_chart(n, resolve_chart(n).setup.c_value).memo_weights is None
