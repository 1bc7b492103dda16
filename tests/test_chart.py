"""Chart construction: slot layout, dependent-slot elimination, the even-n
quadratic relation, and the matched constant."""

from fractions import Fraction

import pytest

from dworklie import (DworkError, EliminationStuck, RatFn, chart, geometry,
                      matched_c, resolve_chart, symbolic_elem)
from dworklie.chart import _equation, build_chart, chart_of_ring, slot_layout
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


def test_equation_refuses_two_unsolved_slots():
    # with only (1,1) known, equation (2,2) has products in both (2,1) and
    # (2,2)
    ring = Ring(("x",))
    one = RatFn.of(ring, 1)
    omega = MatF(ring, [[one, one], [one, one]])
    with pytest.raises(EliminationStuck, match="involves 2 unsolved slots"):
        _equation(omega, {(1, 1): one}, 2, 2)
