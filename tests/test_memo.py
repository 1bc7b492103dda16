"""Memoised results live in their chart's one store, chart.memo, each under
the name of the function that computed it: repeated calls hand back the
same object, a chart built outside the cache starts with an empty store and
computes its own, and a call that raises keeps nothing."""

import pytest

from dworklie import (MatF, OneFormMat, RatFn, Sl2Violation, VecField, act,
                     basis_vf, build_chart, fR_identities, full_connection,
                     group, group_elem, liealg, linalg, modular, modular_vf,
                     resolve_chart, sl2_triple, symbolic_elem,
                     verify_theorem2, vf_from_target, weights)
from dworklie.cli import main
from dworklie.connection import _base_inverse, _pivot_corrections
from dworklie.group import basis_pairs, lie_gen
from dworklie.ratfn import ratfn_string


@pytest.mark.parametrize("n", [1, 2])
def test_repeated_calls_return_the_same_object(n):
    ch = resolve_chart(n)
    assert full_connection(ch) is full_connection(ch)
    assert modular_vf(n)[0] is modular_vf(n)[0]
    assert modular_vf(n)[1] is modular_vf(n)[1]
    assert basis_vf(n) is basis_vf(n)


def test_uncached_chart_gets_its_own_connection():
    cached = resolve_chart(2)
    fresh = build_chart(2, cached.c_value)
    A = full_connection(fresh)
    assert A is not full_connection(cached)
    assert A is full_connection(fresh)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl2_triple_is_verified_once_per_chart(n):
    assert sl2_triple(n) is sl2_triple(n)
    assert resolve_chart(n).memo["sl2_triple"] is sl2_triple(n)


def test_uncached_chart_starts_without_a_triple():
    assert build_chart(2, resolve_chart(2).c_value).memo == {}


@pytest.mark.parametrize("n", [3, 4])
def test_solver_work_lives_on_the_chart(n):
    # the inverse of the 2x2 base system and the pivot corrections are built
    # once per chart, and a chart built outside the cache builds its own
    ch = resolve_chart(n)
    basis_vf(ch)
    base_inv = ch.memo["_base_inverse"]
    corrections = ch.memo["_pivot_corrections"]
    assert _base_inverse(ch) is base_inv
    assert _pivot_corrections(ch) is corrections
    # base_inv times the base system [[a, b], [c, d]] is the identity, with
    # (a, c) and (b, d) the entries (1,1), (1,2) of S*B[t1] and S*B[t_{n+2}]
    SB = [ch.S @ ch.conn_base.get(v) for v in ("t1", ch.base2)]
    base = MatF(ch.ring, [[P.get1(1, k) for P in SB] for k in (1, 2)])
    assert MatF(ch.ring, [list(r) for r in base_inv]) @ base \
        == MatF.identity(ch.ring, 2)
    fresh = build_chart(n, ch.c_value)
    assert "_base_inverse" not in fresh.memo
    assert "_pivot_corrections" not in fresh.memo
    target = lie_gen(n, *basis_pairs(n)[0], fresh.ring).transpose()
    vf_from_target(fresh, target)
    assert fresh.memo["_base_inverse"] is not base_inv
    if ch.pivot_var is None:
        assert corrections is fresh.memo["_pivot_corrections"] is None
    else:
        # the same coefficients of the relation, built on the fresh ring
        got = fresh.memo["_pivot_corrections"]
        assert got is not corrections
        assert [ratfn_string(f) for f in got] \
            == [ratfn_string(f) for f in corrections]


def test_repeated_solves_reuse_the_base_products(monkeypatch):
    # once the chart's base inverse is kept, each solve makes exactly two
    # products, the target times S and S times B(H), and no Gauss-Jordan
    # elimination (the route of solve_linear and MatF.inverse)
    ch = build_chart(3, resolve_chart(3).c_value)
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
    assert len(calls) == 2 * len(targets)
    assert not eliminations


@pytest.mark.parametrize("n", [3, 4])
def test_first_solve_on_a_fresh_chart_derives_nothing(n, monkeypatch):
    # existence is proved by the pairing, so neither the solver's prepared
    # work nor the solve itself differentiates a slot expression
    ch = build_chart(n, resolve_chart(n).c_value)
    calls = []
    derive = RatFn.derive

    def counting(self, var):
        calls.append(var)
        return derive(self, var)

    monkeypatch.setattr(RatFn, "derive", counting)
    vf_from_target(ch, lie_gen(n, *basis_pairs(n)[0], ch.ring).transpose())
    assert {"_base_inverse", "_pivot_corrections"} <= set(ch.memo)
    assert not calls


def holds_a_matrix(x):
    """x is a matrix, or holds one in a container or a slot."""
    if isinstance(x, (MatF, OneFormMat)):
        return True
    if isinstance(x, dict):
        return any(map(holds_a_matrix, x.values()))
    if isinstance(x, (tuple, list)):
        return any(map(holds_a_matrix, x))
    if isinstance(x, (VecField, modular.YukawaSet)):
        return any(holds_a_matrix(getattr(x, s, None))
                   for s in type(x).__slots__)
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_solved_fields_leave_no_matrix_on_the_chart(n):
    # the solver keeps its 2x2 base inverse and the pivot corrections, not a
    # product: once the fields are solved, the store holds no matrix
    ch = build_chart(n, resolve_chart(n).c_value)
    modular_vf(ch)
    basis_vf(ch)
    assert {"_base_inverse", "_pivot_corrections", "modular_vf",
            "basis_vf"} <= set(ch.memo)
    assert not any(holds_a_matrix(v) for v in ch.memo.values())
    full_connection(ch)
    assert holds_a_matrix(ch.memo["full_connection"])


def test_fR_identities_are_computed_once_per_chart():
    assert fR_identities(2) is fR_identities(2)
    assert resolve_chart(2).memo["fR_identities"] is fR_identities(2)
    assert "fR_identities" not in \
        build_chart(2, resolve_chart(2).c_value).memo


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weights_are_computed_once_per_chart(n):
    assert weights(n) is weights(n)
    assert resolve_chart(n).memo["weights"] is weights(n)
    assert "weights" not in build_chart(n, resolve_chart(n).c_value).memo


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_chart_and_its_n_and_c_reach_one_result(n):
    # a kept function takes the chart itself or n and c, and both reach the
    # one entry of the store
    ch = resolve_chart(n)
    for fn in (modular_vf, basis_vf, sl2_triple, weights, fR_identities,
               verify_theorem2, symbolic_elem):
        assert fn(ch) is fn(n) is fn(n, ch.c_value)
        assert ch.memo[fn.__name__] is fn(n)
    assert full_connection(ch) is ch.memo["full_connection"]


def test_a_failed_triple_keeps_nothing(monkeypatch):
    fresh = build_chart(2, resolve_chart(2).c_value)
    B = dict(basis_vf(fresh))
    B[1, 2] = B[1, 2].scale(3)
    monkeypatch.setattr(modular, "basis_vf", lambda n, c=None: B)
    for _ in range(2):
        with pytest.raises(Sl2Violation):
            sl2_triple(fresh)
        assert "sl2_triple" not in fresh.memo
    monkeypatch.undo()
    tr = sl2_triple(fresh)
    assert fresh.memo["sl2_triple"] is tr is sl2_triple(fresh)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_bracket_rows_and_the_symbolic_action_are_kept(n):
    ch = resolve_chart(n)
    assert verify_theorem2(n) is verify_theorem2(n)
    g = symbolic_elem(n)
    assert act(n) is act(n) is ch.memo["_symbolic_action"]
    assert act(n, g=g) == act(n)
    assert act(n)["t1"].ring is g.ring


def test_brackets_then_verify_compute_theorem2_once(monkeypatch, capsys):
    # verify reads the rows that brackets kept on the chart: with the store
    # emptied first, the rows' helper _term runs for brackets only
    monkeypatch.setattr(resolve_chart(3), "memo", {})
    calls = []
    term = liealg._term
    monkeypatch.setattr(liealg, "_term",
                        lambda *a: calls.append(a) or term(*a))
    assert main(["brackets", "--n", "3"]) == 0
    first = len(calls)
    assert main(["verify", "--n", "3", "--suite", "theorem2"]) == 0
    capsys.readouterr()
    assert first and len(calls) == first


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elements_and_generators_on_a_chart_ring_use_its_pairing(
        n, monkeypatch):
    # group_elem on the chart it resolves reads the chart's phi and its kept
    # lower triangle; over a given ring it builds the pairing form, and so
    # does lie_gen, over the ring it is given, which on a chart's ring is
    # the chart's phi
    ch = resolve_chart(n)
    built = []
    pairing_form = group.pairing_form

    def counting(ring, n):
        built.append(ring)
        return pairing_form(ring, n)

    monkeypatch.setattr(group, "pairing_form", counting)
    params = [2] * ch.m + [1] * (ch.d - 1 - ch.m)
    g = group_elem(n, params)
    assert not built
    assert ch.memo["_phi_lower"] == ch.phi.lower()
    assert g.ring is ch.ring
    ring = ch.ring.extend(("x",))
    assert group_elem(n, params, ring=ring).ring is ring
    assert built == [ring]
    lie_gen(n, *basis_pairs(n)[-1], ch.ring)
    assert built == [ring, ch.ring]
    assert pairing_form(ch.ring, n) == ch.phi
