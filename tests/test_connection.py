"""Full connection on the chart: pairing invariance, the field-from-matrix
solver and its failure mode."""

import pytest

from dworklie import (MatF, NoSuchField, RatFn, VecField,
                      check_pairing_invariance, full_connection, modular_vf,
                      resolve_chart, vf_from_target)
from dworklie.connection import tangent_fields
from dworklie.group import lie_gen


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairing_invariance(n):
    assert check_pairing_invariance(resolve_chart(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_connection_solves_the_defining_identity(n):
    # A[v] S = d_v S + S B[v] for every coordinate, checked by a product, with
    # no inverse of S; up to n = 4 also against the old route through S^-1
    ch = resolve_chart(n)
    A, S = full_connection(ch), ch.S
    Sinv = S.inverse() if n <= 4 else None
    for v in ch.coords:
        M = S.derive(v) + S @ ch.conn_base.get(v)
        assert A.get(v) @ S == M
        if Sinv is not None:
            assert A.get(v) == M @ Sinv


def test_extended_range_n7():
    # beyond the paper's examples: pairing invariance of the full connection
    # and the band contraction of the modular field at n = 7
    ch = resolve_chart(7)
    A = full_connection(ch)
    R, Y = modular_vf(7)
    assert check_pairing_invariance(ch, A)
    assert A.contract(R) == Y.matrix()


@pytest.mark.slow
@pytest.mark.parametrize("n", [8])
def test_extended_range(n):
    # the same checks where exponents in the chart reach 180 (run with -m slow)
    ch = resolve_chart(n)
    A = full_connection(ch)
    R, Y = modular_vf(n)
    assert check_pairing_invariance(ch, A)
    assert A.contract(R) == Y.matrix()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solver_roundtrip_through_basis_matrices(n):
    # solve for the field of a transposed basis matrix, contract it back
    ch = resolve_chart(n)
    A = full_connection(ch)
    from dworklie.group import basis_pairs
    for a, b in basis_pairs(n):
        g = lie_gen(n, a, b, ch.ring).transpose()
        H = vf_from_target(ch, g)
        assert A.contract(H) == g


@pytest.mark.parametrize("n", [2, 3])
def test_solver_rejects_unreachable_target(n):
    # entry (1,3) is outside the contraction image for every field
    ch = resolve_chart(n)
    target = MatF.zeros(ch.ring, n + 1)
    target.set1(1, 3, RatFn.of(ch.ring, 1))
    with pytest.raises(NoSuchField):
        vf_from_target(ch, target)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solver_rejects_a_residue_at_each_dependent_slot(n):
    # X*S = E_ij moves only entry (i, j) of target*S, so a reachable target
    # plus X leaves a nonzero consistency residue at that dependent slot
    from dworklie.group import basis_pairs
    from dworklie.linalg import solve_right_lower
    ch = resolve_chart(n)
    g = lie_gen(n, *basis_pairs(n)[0], ring=ch.ring).transpose()
    assert ch.dep_exprs
    for i, j in ch.dep_exprs:
        E = MatF.zeros(ch.ring, n + 1)
        E.set1(i, j, 1)
        with pytest.raises(NoSuchField, match=rf"dependent slot \({i},{j}\)"):
            vf_from_target(ch, g + solve_right_lower(E, ch.S))


@pytest.mark.parametrize("n", [2, 4])
def test_solver_rejects_a_field_off_the_relation(n):
    # d/d(pivot) alone moves off pivot^2 = kappa*disc, so the matrix it
    # contracts to has no tangent preimage
    ch = resolve_chart(n)
    target = full_connection(ch).contract(VecField(ch.ring, {ch.pivot_var: 1}))
    with pytest.raises(NoSuchField, match="not tangent to the slot relation"):
        vf_from_target(ch, target)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solver_is_linear_over_random_combination(n):
    ch = resolve_chart(n)
    A = full_connection(ch)
    from dworklie.group import basis_pairs
    pairs = basis_pairs(n)
    g1 = lie_gen(n, *pairs[0], ring=ch.ring).transpose()
    g2 = lie_gen(n, *pairs[-1], ring=ch.ring).transpose()
    t1 = RatFn.var(ch.ring, "t1")
    target = g1.scale(t1) + g2.scale(RatFn.of(ch.ring, 3))
    H = vf_from_target(ch, target)
    assert A.contract(H) == target


@pytest.mark.parametrize("n", [2, 4])
def test_tangent_fields_respect_the_relation(n):
    # 2*piv*T(piv) == kappa*T(disc): the relation stays constant along each
    # lift.  Stated through the components, since inside the quotient ring
    # the relation itself reduces to zero.
    ch = resolve_chart(n)
    piv = RatFn.var(ch.ring, ch.pivot_var)
    for T in tangent_fields(ch):
        assert T.get(ch.pivot_var) * piv * 2 == ch.kappa * T.apply(ch.disc)


def test_tangent_fields_count():
    for n in (1, 2, 3, 4):
        ch = resolve_chart(n)
        assert len(tangent_fields(ch)) == ch.d
