"""Base-layer oracles: dimension table, Stirling numbers, the pairing
identity and the flatness of the frame connection, and the shape and guards
of the moving pairing matrix."""

from fractions import Fraction

import pytest

from dworklie import MatF, OmegaInconsistent, RatFn, family_dims, geometry
from dworklie.geometry import (Setup, _check_pairing_identity,
                               frame_connection, pairing_form, pairing_matrix,
                               stirling2)

# chart dimension, pairing half-size and coordinate count per dimension
DIMS = {
    1: (3, 1, 3),
    2: (3, 1, 4),
    3: (7, 2, 7),
    4: (7, 2, 8),
    5: (13, 3, 13),
    6: (13, 3, 14),
}


@pytest.mark.parametrize("n", sorted(DIMS))
def test_family_dims_table(n):
    assert family_dims(n) == DIMS[n]


def test_family_dims_parity_step():
    # moving from odd n to n+1 adds one coordinate but no chart dimension
    for n in (1, 3, 5, 7, 9):
        d, m, nc = family_dims(n)
        d2, m2, nc2 = family_dims(n + 1)
        assert (d2, m2) == (d, m)
        assert nc2 == nc + 1


def _stirling_rec(k, j):
    if k == 0:
        return 1 if j == 0 else 0
    if j <= 0 or j > k:
        return 0
    return j * _stirling_rec(k - 1, j) + _stirling_rec(k - 1, j - 1)


def test_stirling_matches_recurrence():
    for k in range(9):
        for j in range(k + 2):
            assert stirling2(k, j) == _stirling_rec(k, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moving_pairing_symmetry(n):
    s = Setup(n)
    om = pairing_matrix(s)
    if n % 2:
        assert om.transpose() == om.scale(-1)
    else:
        assert om.transpose() == om


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_frame_connection_preserves_pairing(n):
    s = Setup(n)
    assert _check_pairing_identity(s, frame_connection(s), pairing_matrix(s))


def test_constant_pairing_squares_to_sign():
    for n in (1, 2, 3, 4):
        s = Setup(n)
        P = pairing_form(s.ring, n)
        expect = MatF.identity(s.ring, n + 1)
        if n % 2:
            expect = expect.scale(-1)
        assert P @ P == expect


@pytest.mark.parametrize("n", range(1, 8))
def test_pairing_recurrence_yields_the_antidiagonal_shape(n):
    # the recurrence starts from row (0, ..., 0, base) only; the zeros above
    # the antidiagonal and the alternating antidiagonal come out of it
    s = Setup(n)
    om = pairing_matrix(s)
    base = RatFn.of(s.ring, Fraction((-(n + 2)) ** n)) * s.c / s.disc
    for i in range(1, n + 2):
        for j in range(1, n + 2 - i):
            assert om.get1(i, j).is_zero, (i, j)
    for j in range(1, n + 2):
        assert om.get1(j, n + 2 - j) == (-1) ** (j - 1) * base, j


def _bent_connection(s):
    """The frame connection with B1[n+1, n+1] raised by t1."""
    n = s.n
    conn = frame_connection(s)
    B1 = conn.get("t1")
    B1.set1(n + 1, n + 1, B1.get1(n + 1, n + 1) + RatFn.var(s.ring, "t1"))
    return conn


@pytest.mark.parametrize("n", range(1, 8))
def test_pairing_matrix_refuses_a_bent_last_frame_row(n):
    s = Setup(n)
    with pytest.raises(OmegaInconsistent, match="defining identity"):
        pairing_matrix(s, _bent_connection(s))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairing_matrix_checks_the_transpose_type(monkeypatch, n):
    # with the identity check waved through, the bent connection still
    # yields a pairing of the wrong transpose type, and that is refused
    s = Setup(n)
    monkeypatch.setattr(geometry, "_check_pairing_identity", lambda *a: True)
    with pytest.raises(OmegaInconsistent, match="wrong transpose type"):
        pairing_matrix(s, _bent_connection(s))


@pytest.mark.parametrize("n", range(1, 9))
def test_pairing_matrix_refuses_any_moved_last_frame_row_entry(n):
    # the last frame row is induction from low dimensions; moving one of its
    # entries, in either base component, by t1 is refused.  At odd n the
    # entry (n+1, 1) is the exception: f E_{n+1,1} preserves the split skew
    # form (E omega + omega E^T = 0), and no omega row the recurrence builds
    # reads it, so the identity cannot see it; flatness does (below)
    s = Setup(n)
    t1 = RatFn.var(s.ring, "t1")
    for v in ("t1", s.base2):
        for j in range(1, n + 2):
            conn = frame_connection(s)
            B = conn.get(v)
            B.set1(n + 1, j, B.get1(n + 1, j) + t1)
            if n % 2 and j == 1:
                assert pairing_matrix(s, conn) == pairing_matrix(s)
                continue
            with pytest.raises(OmegaInconsistent):
                pairing_matrix(s, conn)


# Flatness of the frame connection guards what the pairing identity cannot
# see: dB2/dt1 - dB1/dt_{n+2} - [B1, B2] = 0, with B1 and B2 its dt1 and
# dt_{n+2} components.

def _curvature(s, conn):
    B1, B2 = conn.get("t1"), conn.get(s.base2)
    return B2.derive("t1") - B1.derive(s.base2) - (B1 @ B2 - B2 @ B1)


@pytest.mark.parametrize("n", range(1, 11))
def test_frame_connection_is_flat(n):
    s = Setup(n)
    assert _curvature(s, frame_connection(s)).is_zero


@pytest.mark.parametrize("n", range(1, 9))
def test_flatness_sees_a_moved_first_entry_of_the_last_row(n):
    # the entry (n+1, 1), moved by t1 in either component, that the pairing
    # identity passes at odd n
    s = Setup(n)
    t1 = RatFn.var(s.ring, "t1")
    for v in ("t1", s.base2):
        conn = frame_connection(s)
        B = conn.get(v)
        B.set1(n + 1, 1, B.get1(n + 1, 1) + t1)
        assert not _curvature(s, conn).is_zero, v
