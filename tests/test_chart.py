"""Chart construction: slot layout, dependent-slot elimination against the
inverse pairing, the even-n quadratic relation, and the matched constant.
The former elimination through row images of S omega S^T = phi is kept
here as the reference route."""

from fractions import Fraction

import pytest

from dworklie import (DworkError, EliminationStuck, RatFn, chart, geometry,
                      matched_c, modular_vf, resolve_chart, symbolic_elem)
from dworklie.chart import (_cell_equation, _check_calibration, _frame,
                            _inverse_pairing, build_chart, chart_of_ring,
                            slot_layout)
from dworklie.closedforms import C_DEFAULT, derive_matched_c
from dworklie.cy3 import _yring
from dworklie.geometry import family_dims
from dworklie.linalg import MatF
from dworklie.ratfn import ratfn_string
from dworklie.ring import Ring


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_slot_layout_counts(n):
    d, m, ncoords = family_dims(n)
    indep, pivot_slot, pivot_var = slot_layout(n)
    assert len(indep) == d - 2
    if n % 2:
        assert pivot_slot is None and pivot_var is None
    else:
        assert pivot_slot == (m + 1, m + 1)
    names = set(indep.values()) | {"t1", f"t{n + 2}"}
    if pivot_var:
        names.add(pivot_var)
    assert len(names) == ncoords
    assert names == {f"t{i}" for i in range(1, ncoords + 1)}


def test_pivot_variable_assignment():
    # the pivot gets the smallest index not used by the independent slots
    assert slot_layout(2)[2] == "t3"
    assert slot_layout(4)[2] == "t8"
    assert slot_layout(6)[2] == "t14"


@pytest.mark.parametrize("n", [2, 4])
def test_even_relation_constant(n):
    # test_relation_display compares kappa*disc with the display; here the
    # relation is baked into the ring: the pivot square reduces
    ch = resolve_chart(n)
    piv = RatFn.var(ch.ring, ch.pivot_var)
    assert piv * piv == ch.kappa * ch.disc


def test_relation_strings():
    assert resolve_chart(1).relation_string() is None
    assert resolve_chart(2).relation_string() == "t3^2 = -4*t4 + 4*t1^4"
    assert resolve_chart(4).relation_string() == "t8^2 = -36*t6 + 36*t1^6"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matched_constant_is_derivable(n):
    # independent route: the one root of the linear conditions on c
    assert derive_matched_c(n) == C_DEFAULT[n]
    assert matched_c(n) == C_DEFAULT[n]


def test_matched_constant_fallback():
    assert matched_c(5) == Fraction(1)
    assert matched_c(6) == Fraction(1)


def test_extrapolation_flag():
    assert not resolve_chart(1).rule_extrapolated
    assert not resolve_chart(4).rule_extrapolated
    assert resolve_chart(5).rule_extrapolated


def test_chart_cache_and_ring_lookup():
    ch = resolve_chart(3)
    assert resolve_chart(3) is ch
    assert chart_of_ring(ch.ring) is ch
    with pytest.raises(DworkError):
        chart_of_ring(Ring(("a", "b")))


def test_symbolic_constant_chart():
    ch = resolve_chart(2, "sym")
    assert "c" in ch.ring.names
    # matched and symbolic charts are distinct cache entries
    assert ch is not resolve_chart(2)


def test_equal_constants_give_one_chart():
    # the cache is keyed by Fraction(c), the value the chart is built with,
    # so fields built through equal constants share one ring
    ch = resolve_chart(2, Fraction(1, 2))
    for c in (0.5, "1/2", Fraction(2, 4)):
        assert resolve_chart(2, c) is ch
    assert resolve_chart(1, 1) is resolve_chart(1, 1.0)
    R, _ = modular_vf(2, 0.5)
    assert R + modular_vf(2, Fraction(1, 2))[0] == R.scale(2)


def test_explicit_constant_chart():
    ch = resolve_chart(1, Fraction(1, 27))
    assert ch is resolve_chart(1, Fraction(1, 27))
    assert "c" not in ch.ring.names


@pytest.mark.parametrize("c", [None, "sym"], ids=["matched", "sym"])
@pytest.mark.parametrize("n", range(1, 7))
def test_a_chart_is_its_setup_with_the_frame_solved(n, c):
    # at even n the chart holds disc and scale on its relation ring, so
    # those two compare printed
    ch = resolve_chart(n, c)
    fresh = geometry.Setup(n, ch.c_value)
    assert isinstance(ch, geometry.Setup)
    for name in ("n", "d", "m", "rho", "ncoords", "base2", "c_value"):
        assert getattr(ch, name) == getattr(fresh, name), name
    for name in ("disc", "scale"):
        assert ratfn_string(getattr(ch, name)) == \
            ratfn_string(getattr(fresh, name)), name
    assert not set(chart.Chart.__slots__) & set(geometry.Setup.__slots__)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dependent_slots_close_under_the_chart(n):
    # every dependent-slot expression only uses chart coordinates
    ch = resolve_chart(n)
    allowed = set(ch.coords)
    for (i, j), expr in ch.dep_exprs.items():
        used = set()
        for poly in (expr.num, expr.den):
            used.update(poly.support())
        assert used <= allowed, f"slot ({i},{j}) leaks {used - allowed}"


@pytest.mark.parametrize("n", range(1, 7))
def test_frame_connection_is_built_once_per_ring(monkeypatch, n):
    # the even-n relation comes from c alone, so its ring is set before the
    # connection that feeds the pairing matrix is built, on the chart's ring
    original, rings = geometry.frame_connection, []

    def counted(setup):
        rings.append(setup.ring)
        return original(setup)

    monkeypatch.setattr(chart, "frame_connection", counted)
    monkeypatch.setattr(geometry, "frame_connection", counted)
    ch = build_chart(n)
    assert len(rings) == 1 and rings[0] is ch.ring


@pytest.mark.parametrize("n, c", [(n, None) for n in range(2, 13, 2)]
                         + [(2, "sym"), (4, "sym")])
def test_relation_is_the_middle_cell_of_the_inverse_pairing(n, c):
    # kappa comes from c alone, before omega is built; the middle cell of
    # its inverse is what the relation must match
    ch = resolve_chart(n, c)
    mid = n // 2 + 1
    assert ch.kappa * ch.disc == _inverse_pairing(ch.omega).get1(mid, mid)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chart_ring_knows_the_discriminant(n):
    # every chart ring, with or without the even-n relation, carries
    # disc = t1^(n+2) - t_{n+2} as its known factor
    ch = resolve_chart(n)
    assert ch.disc.c == 1 and ch.disc.den.is_const
    assert ch.ring.factor_pow(1) == ch.disc.num.terms


def test_group_ring_keeps_the_factor_and_cy3_ring_has_none():
    ch = resolve_chart(4)
    ring = symbolic_elem(4).ring
    assert ring.factor_pow(1) == ch.disc.num.lift(ring).terms
    assert _yring(2).factor is None


# The reference route: the elimination through row images of
# S omega S^T = phi that build_chart used before it solved against
# Omega = omega^-1.

def _row_image(omega, size, entries, j):
    """The image (u, y) of row j of S against the size x size omega, given
    as the dict of its stored entries: u = omega s^T over the known entries
    s of the row, and y the column of the row's one unsolved slot (None once
    the row is complete).  EliminationStuck if more than one is unsolved."""
    row = [(l, entries.get((j, l))) for l in range(1, j + 1)]
    unsolved = [l for l, b in row if b is None]
    if len(unsolved) > 1:
        raise EliminationStuck(f"row {j} has {len(unsolved)} unsolved slots")
    known = [(l, b) for l, b in row if not (b is None or b.is_zero)]
    zero = RatFn.of(entries[1, 1].ring, 0)  # S_11 = 1 is always known
    u = []
    for k in range(1, size + 1):
        acc = zero
        for l, b in known:
            w = omega.get((k, l))
            if w is not None:
                acc = acc + w * b
        u.append(acc)
    return u, next(iter(unsolved), None)


def _equation(omega, sign, entries, image, i, j):
    """(S omega S^T)_{ij} = sum_k S_ik u[k] from the image (u, y) of row j:
    the one unsolved slot it involves (None if every factor is known) and
    its (constant, linear, quadratic) coefficients in that slot's value.
    An unsolved slot of row i enters linearly with coefficient u[k].  Only
    a diagonal equation may read an incomplete row: there the slot y also
    enters through omega^T = sign omega, adding sign u[y] to the linear and
    omega_yy to the quadratic coefficient."""
    u, y = image
    if y is not None and i != j:
        raise EliminationStuck(
            f"equation ({i},{j}) reads row {j} before slot ({j},{y}) is solved")
    zero = RatFn.of(u[0].ring, 0)
    c0, lin, quad = zero, zero, zero
    slots = set()
    for k in range(1, i + 1):
        w = u[k - 1]
        if w.is_zero:
            continue
        a = entries.get((i, k))
        if a is None:
            slots.add((i, k))
            lin = w
        elif not a.is_zero:
            c0 = c0 + a * w
    if y is not None:
        slots.add((i, y))
        lin = lin + sign * u[y - 1]
        quad = omega.get((y, y), zero)
    if len(slots) > 1:
        raise EliminationStuck(
            f"equation ({i},{j}) involves {len(slots)} unsolved slots")
    return next(iter(slots), None), (c0, lin, quad)


def reference_chart(n, c_value=None):
    """(S, dep_exprs, kappa) by the row-image elimination: equations
    (S omega S^T)_{ij} = phi_{ij} over j <= i, i + j >= n + 2, ordered by
    (i + j, i), each read through the cached image of row j; at even n the
    middle slot's equation, x^2 omega_cc = 1, gives the relation first.  A
    diagonal equation that solves the last slot of its own row completes
    the cached image in place."""
    setup = geometry.Setup(n, c_value)
    omega = geometry.pairing_matrix(setup)
    sign = -1 if setup.rho else 1
    size = n + 1
    indep, pivot_slot, pivot_var = slot_layout(n)
    eqs = sorted(((i, j) for i in range(1, n + 2) for j in range(1, i + 1)
                  if i + j >= n + 2), key=lambda p: (p[0] + p[1], p[0]))
    known = dict(indep)
    kappa = None
    if pivot_slot is not None:
        assert eqs[0] == pivot_slot
        eqs = eqs[1:]
        om = dict(omega.entries())
        entries = _frame(setup.ring, indep)
        image = _row_image(om, size, entries, pivot_slot[0])
        slot, (c0, lin, quad) = _equation(om, sign, entries, image,
                                          *pivot_slot)
        assert slot == pivot_slot and lin.is_zero and c0.is_zero
        rhs = 1 / quad
        kappa = rhs / setup.disc
        setup.bind(setup.ring.with_relation(pivot_var, rhs.num, rhs.den))
        kappa = kappa.lift(setup.ring)
        omega = omega.lift(setup.ring)
        known[pivot_slot] = pivot_var
    ring = setup.ring
    phi = geometry.pairing_form(ring, n)
    entries = _frame(ring, known)
    dep_exprs, images = {}, {}
    om = dict(omega.entries())
    for (i, j) in eqs:
        if j not in images:
            images[j] = _row_image(om, size, entries, j)
        slot, (c0, lin, quad) = _equation(om, sign, entries, images[j], i, j)
        if slot is None:
            assert c0 == phi.get1(i, j)
            continue
        assert quad.is_zero and not lin.is_zero
        x = entries[slot] = dep_exprs[slot] = (phi.get1(i, j) - c0) / lin
        u, l = images[j]
        if l is not None:
            for k in range(1, size + 1):
                w = om.get((k, l))
                if w is not None:
                    u[k - 1] = u[k - 1] + x * w
            images[j] = (u, None)
    S = MatF.zeros(ring, size)
    for (i, j), v in entries.items():
        S.set1(i, j, v)
    return S, dep_exprs, kappa


def _strings(S, dep_exprs, kappa):
    return ([(k, ratfn_string(v)) for k, v in S.entries()],
            [(k, ratfn_string(v)) for k, v in dep_exprs.items()],
            None if kappa is None else ratfn_string(kappa))


@pytest.mark.parametrize("n, c", [(n, "matched") for n in range(1, 11)]
                         + [(n, None) for n in range(1, 6)])
def test_chart_equals_the_row_image_reference(n, c):
    # S, the dependent slots (in their order) and kappa, string for string
    c_value = matched_c(n) if c == "matched" else None
    ch = build_chart(n, c_value)
    want = _strings(*reference_chart(n, c_value))
    assert _strings(ch.S, ch.dep_exprs, ch.kappa) == want


def _ones(ring, size):
    one = RatFn.of(ring, 1)
    return dict(MatF(ring, [[one] * size] * size).entries())


def test_equation_refuses_two_unsolved_slots():
    # with only (1,1) known, equation (2,1) has products in both (2,1) and
    # (2,2)
    ring = Ring(("x",))
    om, entries = _ones(ring, 2), {(1, 1): RatFn.of(ring, 1)}
    image = _row_image(om, 2, entries, 1)
    with pytest.raises(EliminationStuck, match="involves 2 unsolved slots"):
        _equation(om, 1, entries, image, 2, 1)


def test_equation_refuses_an_incomplete_row_off_the_diagonal():
    # row 2 still misses (2,2), so equation (3,2) cannot be read from it
    ring = Ring(("x",))
    om = _ones(ring, 3)
    entries = {(1, 1): RatFn.of(ring, 1), (2, 1): RatFn.var(ring, "x")}
    image = _row_image(om, 3, entries, 2)
    assert image[1] == 2
    with pytest.raises(EliminationStuck, match=r"reads row 2 before slot"):
        _equation(om, 1, entries, image, 3, 2)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("col", [1, 2, 3])
def test_diagonal_equation_of_an_incomplete_row(sign, col):
    # (s omega s^T) with the open slot of s worth y equals c0 + lin*y +
    # quad*y^2, for a symmetric and a skew omega
    ring = Ring(("x1", "x2", "y"))
    vals = {(1, 2): 2, (1, 3): 5, (2, 3): -3, (1, 1): 7, (2, 2): 0,
            (3, 3): 4}
    rows = [[RatFn.of(ring, 0)] * 3 for _ in range(3)]
    for (k, l), v in vals.items():
        if k == l and sign == -1:
            continue
        rows[k - 1][l - 1] = RatFn.of(ring, v)
        rows[l - 1][k - 1] = RatFn.of(ring, sign * v)
    omega = MatF(ring, rows)
    om = dict(omega.entries())
    known = iter(RatFn.var(ring, nm) for nm in ("x1", "x2"))
    entries = {(1, 1): RatFn.of(ring, 1)}
    entries.update(((3, l), next(known)) for l in (1, 2, 3) if l != col)
    image = _row_image(om, 3, entries, 3)
    assert image[1] == col
    slot, (c0, lin, quad) = _equation(om, sign, entries, image, 3, 3)
    assert slot == (3, col)
    s = [entries.get((3, l), RatFn.var(ring, "y")) for l in (1, 2, 3)]
    full = MatF(ring, [s]) @ omega @ MatF(ring, [s]).transpose()
    y = RatFn.var(ring, "y")
    assert c0 + lin * y + quad * y * y == full.get1(1, 1)


def test_row_image_refuses_two_unsolved_slots():
    ring = Ring(("x",))
    with pytest.raises(EliminationStuck, match="row 2 has 2 unsolved slots"):
        _row_image(_ones(ring, 2), 2, {(1, 1): RatFn.of(ring, 1)}, 2)


def _eps(ring, n):
    phi = geometry.pairing_form(ring, n)
    return {k: phi.get1(n + 2 - k, k) for k in range(1, n + 2)}


def test_cell_equation_refuses_two_unsolved_slots():
    # cell (1,2) at n = 3 reads S_11 S_42, S_21 S_32 and S_31 S_22: with
    # (4,2) and (3,2) both unsolved it cannot solve either
    ring = Ring(("x",))
    entries = {s: RatFn.var(ring, "x") for s in [(1, 1), (2, 1), (3, 1),
                                                 (2, 2)]}
    with pytest.raises(EliminationStuck, match="involves 2 unsolved slots"):
        _cell_equation(ring, _eps(ring, 3), entries, 1, 2)


def test_cell_equation_refuses_the_middle_slot_squared():
    # at n = 2 cell (2,2) is S_22^2 alone
    ring = Ring(("x",))
    with pytest.raises(EliminationStuck, match=r"quadratic in slot \(2, 2\)"):
        _cell_equation(ring, _eps(ring, 2), {(1, 1): RatFn.of(ring, 1)},
                       2, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_build_refuses_a_stuck_order(monkeypatch, n):
    # without the independent slot (2,1) the first cell of column 1 that
    # reads an unsolved slot reads two
    layout = chart.slot_layout

    def short(k):
        indep, ps, pv = layout(k)
        return {s: v for s, v in indep.items() if s != (2, 1)}, ps, pv

    monkeypatch.setattr(chart, "slot_layout", short)
    with pytest.raises(EliminationStuck, match="unsolved slots"):
        build_chart(n)


@pytest.mark.parametrize("n", [3, 4])
def test_build_refuses_a_zero_linear_coefficient(monkeypatch, n):
    # with S_22 = 0 the cell (2, j) that should solve slot (n, j) does not
    # see it
    frame = chart._frame

    def zero_diagonal(ring, slots):
        entries = frame(ring, slots)
        entries[2, 2] = RatFn.of(ring, 0)
        return entries

    monkeypatch.setattr(chart, "_frame", zero_diagonal)
    with pytest.raises(EliminationStuck, match=r"does not see slot \(" + str(n)):
        build_chart(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_singular_pairing_is_refused_before_the_inverse(n):
    with pytest.raises(EliminationStuck,
                       match=rf"pairing matrix is singular: zero antidiagonal "
                             rf"entry \(1,{n + 1}\)"):
        build_chart(n, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_pairing_is_the_inverse(n):
    ch = resolve_chart(n)
    Omega = _inverse_pairing(ch.omega)
    size = n + 1
    assert Omega @ ch.omega == MatF.identity(ch.ring, size)
    # every cell depends on t1 and t_{n+2} alone, with no disc below
    for _, f in Omega.entries():
        assert set(f.support()) <= {"t1", f"t{n + 2}"}
        assert f.den.support() == []


@pytest.mark.parametrize("n, c", [(n, "matched") for n in (2, 4, 6, 8, 10)]
                         + [(n, None) for n in (2, 4)])
def test_middle_cell_of_the_inverse_is_the_old_relation(n, c):
    # eps_c S_cc^2 = Omega_cc, where the row-image route read x^2 omega_cc = 1
    setup = geometry.Setup(n, matched_c(n) if c == "matched" else None)
    omega = geometry.pairing_matrix(setup)
    mid = n // 2 + 1
    got = _inverse_pairing(omega).get1(mid, mid)
    assert ratfn_string(got) == ratfn_string(1 / omega.get1(mid, mid))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recheck_catches_a_wrong_inverse_cell(monkeypatch, n):
    # cell (1, n+1) alone solves S_{n+1,n+1}, so the construction takes a
    # wrong value there in its stride; Omega omega = I does not
    inverse = chart._inverse_pairing

    def corrupt(omega):
        Omega = inverse(omega)
        Omega.set1(1, n + 1, Omega.get1(1, n + 1) + 1)
        return Omega

    monkeypatch.setattr(chart, "_inverse_pairing", corrupt)
    with pytest.raises(EliminationStuck, match="inverse pairing check"):
        build_chart(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_recheck_catches_a_wrong_entry_of_S(n):
    # every stored entry moved by 1 fails the re-check, except S_{n+1,1} at
    # odd n: there S + E = (I + E) S with E = E_{n+1,1}, and I + E preserves
    # the split skew form phi, so the moved frame is calibrated too
    ch = resolve_chart(n)
    Omega = _inverse_pairing(ch.omega)
    _check_calibration(ch.S, ch.phi, ch.omega, Omega)
    for (i, j), v in ch.S.entries():
        S = ch.S.map(lambda f: f)
        S.set1(i, j, v + 1)
        if n % 2 and (i, j) == (n + 1, 1):
            assert S @ ch.omega @ S.transpose() == ch.phi
            _check_calibration(S, ch.phi, ch.omega, Omega)
            continue
        with pytest.raises(EliminationStuck,
                           match="final calibration identity"):
            _check_calibration(S, ch.phi, ch.omega, Omega)


# The final re-check compares only the cells j <= i of S omega S^T with phi.
# That is the whole identity because both sides have omega's transpose type.

@pytest.mark.parametrize("n", range(1, 9))
def test_phi_has_the_transpose_type_of_omega(n):
    setup = geometry.Setup(n, matched_c(n))
    omega = geometry.pairing_matrix(setup)
    phi = geometry.pairing_form(setup.ring, n)
    sign = -1 if n % 2 else 1
    assert omega.transpose() == omega.scale(sign)
    assert phi.transpose() == phi.scale(sign)


@pytest.mark.parametrize("n", range(1, 9))
def test_full_calibration_identity_holds(n):
    ch = resolve_chart(n)
    assert ch.S @ ch.omega @ ch.S.transpose() == ch.phi
