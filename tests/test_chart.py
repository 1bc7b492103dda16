"""Chart construction: slot layout, dependent-slot elimination, the even-n
quadratic relation, and the matched constant."""

from fractions import Fraction

import pytest

from dworklie import (DworkError, EliminationStuck, RatFn, chart, geometry,
                      matched_c, resolve_chart, symbolic_elem)
from dworklie.chart import (_equation, _row_image, build_chart,
                            chart_of_ring, slot_layout)
from dworklie.closedforms import C_DEFAULT, RELATION_CONST, derive_matched_c
from dworklie.cy3 import _yring
from dworklie.geometry import family_dims
from dworklie.linalg import MatF
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
    ch = resolve_chart(n)
    assert ch.kappa == RatFn.of(ch.ring, RELATION_CONST[n])
    # the relation is baked into the ring: the pivot square reduces
    piv = RatFn.var(ch.ring, ch.pivot_var)
    assert piv * piv == ch.kappa * ch.disc


def test_relation_strings():
    assert resolve_chart(1).relation_string() is None
    assert resolve_chart(2).relation_string() == "t3^2 = -4*t4 + 4*t1^4"
    assert resolve_chart(4).relation_string() == "t8^2 = -36*t6 + 36*t1^6"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matched_constant_is_derivable(n):
    # independent route: scan candidate constants for the reference shape
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


def test_explicit_constant_chart():
    ch = resolve_chart(1, Fraction(1, 27))
    assert ch is resolve_chart(1, Fraction(1, 27))
    assert "c" not in ch.ring.names


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


@pytest.mark.parametrize("n, builds", [(3, 1), (4, 2)])
def test_frame_connection_is_built_once_per_ring(monkeypatch, n, builds):
    # odd n keeps the connection that fed the pairing matrix; even n builds a
    # second one in the relation ring
    original, rings = geometry.frame_connection, []

    def counted(setup):
        rings.append(setup.ring)
        return original(setup)

    monkeypatch.setattr(chart, "frame_connection", counted)
    monkeypatch.setattr(geometry, "frame_connection", counted)
    ch = build_chart(n)
    assert len(rings) == builds
    assert rings[-1] is ch.ring


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chart_ring_knows_the_discriminant(n):
    # every chart ring, with or without the even-n relation, carries
    # disc = t1^(n+2) - t_{n+2} as its known factor
    ch = resolve_chart(n)
    assert ch.disc.den == ch.ring.one
    assert ch.ring.factor_pow(1) == ch.disc.num.terms


def test_group_ring_keeps_the_factor_and_cy3_ring_has_none():
    ch = resolve_chart(4)
    ring = symbolic_elem(4).ring
    assert ring.factor_pow(1) == ch.disc.num.lift(ring).terms
    assert _yring(2).factor is None


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


def _final_images(monkeypatch, corrupt=False):
    """Record the row of every _row_image call made once every slot of S is
    known; with corrupt, add 1 to u[1] of those images.  At even n only the
    final check makes such calls."""
    original, calls = chart._row_image, []

    def recorded(omega, size, entries, j):
        u, y = original(omega, size, entries, j)
        if len(entries) == size * (size + 1) // 2:
            calls.append(j)
            if corrupt:
                u = [u[0] + 1] + u[1:]
        return u, y

    monkeypatch.setattr(chart, "_row_image", recorded)
    return calls


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_recheck_images_the_rows_completed_in_place_afresh(monkeypatch, n):
    # at even n each diagonal past the middle slot solves the last slot of
    # its row and completes the cached image in place; the final check
    # images exactly those rows afresh
    calls = _final_images(monkeypatch)
    build_chart(n)
    assert calls == list(range(n // 2 + 2, n + 2))


@pytest.mark.parametrize("n", [4, 6])
def test_recheck_catches_a_wrong_image(monkeypatch, n):
    _final_images(monkeypatch, corrupt=True)
    with pytest.raises(EliminationStuck, match="final calibration identity"):
        build_chart(n)


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
