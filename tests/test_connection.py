"""Full connection on the chart: pairing invariance, the field-from-matrix
solver and its failure mode."""

import random
from fractions import Fraction

import pytest

from dworklie import (LinearInconsistent, MatF, NoSuchField, OneFormMat,
                      RatFn, VecField, basis_vf, build_chart,
                      check_pairing_invariance, full_connection, modular_vf,
                      resolve_chart, solve_linear, vf_from_target)
from dworklie.connection import _base_inverse, _pivot_corrections, \
    tangent_fields
from dworklie.group import basis_pairs, lie_gen
from dworklie.linalg import _gauss_jordan, pairing_defect, solve_right_lower
from dworklie.modular import yukawa_for
from dworklie.ratfn import ratfn_string


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
    # plus X leaves a nonzero residue at that dependent slot; no slot reads
    # it, and the pairing sees it: the target is not antisymmetric
    from dworklie.group import basis_pairs
    from dworklie.linalg import solve_right_lower
    ch = resolve_chart(n)
    g = lie_gen(n, *basis_pairs(n)[0], ring=ch.ring).transpose()
    assert ch.dep_exprs
    for i, j in ch.dep_exprs:
        E = MatF.zeros(ch.ring, n + 1)
        E.set1(i, j, 1)
        with pytest.raises(NoSuchField,
                           match="not antisymmetric for the pairing at cell"):
            vf_from_target(ch, g + solve_right_lower([E], ch.S)[0])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_solver_forms_no_dependent_slot_cell(n, monkeypatch):
    # neither T*S, S*B(H) nor M = T*S - S*B(H) is formed on the dependent
    # slots, and the fields come out as before: each target takes two
    # products and one sum
    ch = resolve_chart(n)
    want = [modular_vf(n)[0]] + list(basis_vf(n).values())
    formed = {"product": [], "sum": []}
    product, add = MatF.product, MatF.__add__

    def recording(name, fn):
        def wrapped(*args):
            M = fn(*args)
            formed[name].append({k for k, _ in M.entries()})
            return M
        return wrapped

    monkeypatch.setattr(MatF, "product", recording("product", product))
    monkeypatch.setattr(MatF, "__add__", recording("sum", add))
    targets = [yukawa_for(ch).matrix()] + [
        lie_gen(n, a, b, ch.ring).transpose() for a, b in basis_pairs(n)]
    fields = [vf_from_target(ch, g) for g in targets]
    assert fields == want and ch.dep_exprs
    assert len(formed["product"]) == 2 * len(targets)
    assert len(formed["sum"]) == len(targets)
    for cells in formed.values():
        assert not set().union(*cells) & set(ch.dep_exprs)


@pytest.mark.parametrize("n,c", [(n, None) for n in range(1, 9)]
                         + [(n, "sym") for n in range(1, 7)]
                         + [(3, 2), (4, 2)])
def test_the_base_system_is_read_off_the_frame_connection(n, c):
    # row 1 of S is (1, 0, ..., 0), so the base system's entries of S*B[t1]
    # and S*B[t_{n+2}] are entries of B: the kept inverse is the inverse of
    # the system formed from the full products
    ch = resolve_chart(n, c)
    SB = [ch.S @ ch.conn_base.get(v) for v in ("t1", ch.base2)]
    base = MatF(ch.ring, [[P.get1(1, k) for P in SB] for k in (1, 2)])
    assert MatF(ch.ring, [list(r) for r in _base_inverse(ch)]) \
        == base.inverse()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solver_rejects_a_residue_at_each_entry_above_the_diagonal(n):
    # the same construction at an entry above the diagonal other than (1,2):
    # no slot reads it, so it is left as a nonzero residue at that entry
    from dworklie.group import basis_pairs
    from dworklie.linalg import solve_right_lower
    ch = resolve_chart(n)
    g = lie_gen(n, *basis_pairs(n)[0], ring=ch.ring).transpose()
    cells = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)
             if (i, j) != (1, 2)]
    assert cells
    for i, j in cells:
        E = MatF.zeros(ch.ring, n + 1)
        E.set1(i, j, 1)
        with pytest.raises(NoSuchField, match=rf"residue at entry \({i},{j}\)"):
            vf_from_target(ch, g + solve_right_lower([E], ch.S)[0])


@pytest.mark.parametrize("n", [3, 5])
def test_solver_rejects_an_antisymmetric_target_with_an_unread_entry(n):
    # g + X - phi X^T phi^T, X*S = E_ij above the diagonal, is antisymmetric
    # for the pairing, but leaves a nonzero entry that no slot reads: the
    # pairing alone does not prove a field exists
    ch = resolve_chart(n)
    phi = ch.phi
    g = lie_gen(n, *basis_pairs(n)[0], ring=ch.ring).transpose()
    cells = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)
             if (i, j) != (1, 2)]
    for i, j in cells:
        E = MatF.zeros(ch.ring, n + 1)
        E.set1(i, j, 1)
        X = solve_right_lower([E], ch.S)[0]
        target = g + X - phi @ X.transpose() @ phi.transpose()
        assert pairing_defect(target, phi).is_zero
        with pytest.raises(NoSuchField, match=r"residue at entry"):
            vf_from_target(ch, target)


def chart_point(chart, rng):
    """A random rational point of the chart, on the relation for even n
    (drawn as generator_rank draws it), and S there, or None at a pole or
    where S is singular."""
    point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 4))
             for v in chart.ring.names}
    if chart.pivot_var is not None:
        p = point[chart.pivot_var]
        point[chart.base2] = (point["t1"] ** (chart.n + 2)
                              - p * p / chart.kappa.eval(point))
    try:
        S = chart.S.map(lambda f: f.subs(point))
    except ZeroDivisionError:
        return None
    diagonal = (S.get1(k, k) for k in range(1, chart.n + 2))
    return S if not any(d.is_zero for d in diagonal) else None


def defect_rank(n):
    """Rank and column count of D -> pairing_defect(D*S^-1, phi) on the
    matrices D supported on the dependent slots, at a seeded chart point."""
    ch = resolve_chart(n)
    rng = random.Random(20261019 + n)
    S = None
    while S is None:
        S = chart_point(ch, rng)
    size = n + 1
    slots = sorted(ch.dep_exprs)
    Ds = []
    for slot in slots:
        D = MatF.zeros(ch.ring, size)
        D.set1(*slot, 1)
        Ds.append(D)
    cells = [(i, j) for i in range(1, size + 1) for j in range(1, size + 1)]
    rows = [[defect.get1(*k) for k in cells]
            for defect in (pairing_defect(X, ch.phi)
                           for X in solve_right_lower(Ds, S))]
    return len(_gauss_jordan(rows, len(cells))), len(slots)


@pytest.mark.parametrize(
    "n", list(range(1, 13))
    + [pytest.param(n, marks=pytest.mark.slow) for n in range(13, 17)])
def test_the_pairing_sees_every_dependent_slot(n):
    # the hypothesis of the solver's existence argument (connection module
    # docstring): D -> D S^-1 phi + phi (D S^-1)^T is injective on the
    # dependent slots.  Full rank at one point means full rank over the
    # function field, where the rank can only be larger.
    rank, nslots = defect_rank(n)
    assert 0 < nslots == rank


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


@pytest.mark.parametrize("n,c", [(n, c) for n in (2, 4, 6, 8)
                                 for c in (None, "sym", 2)])
def test_pivot_corrections_are_the_relation_differentiated(n, c):
    # t_D^2 = kappa*disc, so dt_D = d(kappa*disc) / (2*t_D): the spelled-out
    # coefficients of dt1 and dt_{n+2} are the derivatives of the relation
    ch = resolve_chart(n, c)
    rel = ch.kappa * ch.disc
    td2 = RatFn.var(ch.ring, ch.pivot_var) * 2
    assert _pivot_corrections(ch) \
        == tuple(rel.derive(v) / td2 for v in ("t1", ch.base2))


def test_tangent_fields_count():
    for n in (1, 2, 3, 4):
        ch = resolve_chart(n)
        assert len(tangent_fields(ch)) == ch.d


def reference_vf_from_target(chart, target):
    """The solver before its base system was prepared once per chart: its
    own products S*B, a 2x2 solve_linear per target, and M formed by scale
    and matrix subtraction, each residue a sequential sum."""
    ring = chart.ring
    n = chart.n
    TS = target @ chart.S
    SB = {v: chart.S @ B for v, B in chart.conn_base.comps.items()}
    derivs = {}
    for slot, expr in chart.dep_exprs.items():
        ds = ((v, expr.derive(v)) for v in expr.support() if v in chart.coords)
        derivs[slot] = {v: d for v, d in ds if not d.is_zero}
    zeros = MatF.zeros(ring, n + 1)
    SB1 = SB.get("t1", zeros)
    SB2 = SB.get(chart.base2, zeros)
    try:
        res = solve_linear(
            ring,
            [[SB1.get1(1, 1), SB2.get1(1, 1)],
             [SB1.get1(1, 2), SB2.get1(1, 2)]],
            [TS.get1(1, 1), TS.get1(1, 2)])
    except LinearInconsistent:
        raise NoSuchField("base 2x2 system is inconsistent") from None
    if not res.unique:
        raise NoSuchField("base 2x2 system is degenerate")
    dt1, dtb = res.values
    M = TS - SB1.scale(dt1) - SB2.scale(dtb)

    comps = {"t1": dt1, chart.base2: dtb}
    for slot, var in chart.known.items():
        comps[var] = M.get1(*slot)
    H = VecField(ring, comps)

    if chart.pivot_var is not None:
        c1, cb = _pivot_corrections(chart)
        if H.get(chart.pivot_var) != c1 * dt1 + cb * dtb:
            raise NoSuchField("field is not tangent to the slot relation")

    zero = RatFn.of(ring, 0)
    for (i, j), dexpr in derivs.items():
        got = zero
        for v, d in dexpr.items():
            g = H.comps.get(v)
            if g is not None:
                got = got + g * d
        if got != M.get1(i, j):
            raise NoSuchField(f"consistency residue at dependent slot ({i},{j})")
    handled = {*chart.known, *derivs}
    for (i, j), _ in M.entries():
        if (i, j) not in handled:
            raise NoSuchField(f"nonzero residue at entry ({i},{j})")
    return H


def solved(solve, chart, target):
    """The field's component strings, or the refusal's message."""
    try:
        H = solve(chart, target)
    except NoSuchField as e:
        return str(e)
    return [ratfn_string(H.get(v)) for v in chart.coords]


def perturbations(chart, rng, g, count):
    """g + X and g + X - phi X^T phi^T, X*S = E_ij for seeded cells (i, j):
    each moves entry (i, j) of g*S, the second keeping g antisymmetric for
    the pairing."""
    size, phi = chart.n + 1, chart.phi
    out = []
    for _ in range(count):
        E = MatF.zeros(chart.ring, size)
        E.set1(rng.randint(1, size), rng.randint(1, size), rng.choice([-1, 2]))
        X = solve_right_lower([E], chart.S)[0]
        out += [g + X, g + X - phi @ X.transpose() @ phi.transpose()]
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_solver_matches_the_reference_solver(n):
    # the coupling band, every basis target, seeded constant combinations of
    # them (reachable), seeded sparse constant matrices (mostly not), and
    # a basis target moved at seeded cells of target*S, raw or kept
    # antisymmetric (at even n a move at the pivot slot leaves the relation).
    # Both solvers accept the same targets with the same fields, and refuse
    # the same targets with the same message, except where the reference
    # names a dependent slot: the solver has no per-slot check, and refuses
    # such a target at an entry no slot reads or by the pairing.
    ch = resolve_chart(n)
    size = n + 1
    gens = [lie_gen(n, a, b, ch.ring).transpose() for a, b in basis_pairs(n)]
    targets = [yukawa_for(ch).matrix()] + gens
    rng = random.Random(20261019 + n)
    for _ in range(3):
        M = MatF.zeros(ch.ring, size)
        for g in rng.sample(gens, min(3, len(gens))):
            M = M + g.scale(rng.randint(-3, 3))
        targets.append(M)
    for _ in range(3):
        M = MatF.zeros(ch.ring, size)
        for _ in range(rng.randint(1, 4)):
            M.set1(rng.randint(1, size), rng.randint(1, size),
                   rng.randint(-2, 2))
        targets.append(M)
    targets += perturbations(ch, rng, rng.choice(gens), 6)
    reached = slot_refusals = 0
    for target in targets:
        want = solved(reference_vf_from_target, ch, target)
        got = solved(vf_from_target, ch, target)
        if isinstance(want, str) and "dependent slot" in want:
            assert isinstance(got, str)
            slot_refusals += 1
        else:
            assert got == want
        reached += isinstance(want, list)
    assert reached >= len(gens) + 4
    assert slot_refusals or n == 1


@pytest.mark.parametrize("n", [2, 3])
def test_a_singular_base_system_has_no_field(n):
    # a chart whose base direction t_{n+2} moves S as t1 does: the 2x2 base
    # system has equal columns, so no target has a unique field
    fresh = build_chart(n, resolve_chart(n).c_value)
    B1 = fresh.conn_base.get("t1")
    fresh.conn_base = OneFormMat(fresh.ring, n + 1,
                                 {"t1": B1, fresh.base2: B1})
    target = lie_gen(n, *basis_pairs(n)[0], fresh.ring).transpose()
    with pytest.raises(NoSuchField, match="base 2x2 system is singular"):
        vf_from_target(fresh, target)
    assert fresh.memo["_base_inverse"] is None
    with pytest.raises(NoSuchField, match="degenerate|inconsistent"):
        reference_vf_from_target(fresh, target)
