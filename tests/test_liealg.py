"""Bracket calculus: the bracket table of the distinguished field, flatness,
the algebra homomorphism, membership decomposition, and the scaled-field
rules."""

import random
from fractions import Fraction

import pytest

from dworklie import (NotMember, RatFn, VecField, amsy_decompose,
                      basis_pairs, basis_vf, fR_identities, jacobi_ok,
                      membership_build, modular_vf, resolve_chart, sl2_triple,
                      truncate_poly, verify_flatness, verify_homomorphism,
                      verify_theorem2)
from dworklie.closedforms import (DECOMP3, DECOMP3_F0, OBSTRUCTION4_ENTRY,
                                  OBSTRUCTION4_VALUE, parse_field)
from dworklie.geometry import family_dims
from dworklie.liealg import Row, generator_rank
from dworklie.ratfn import parse_ratfn


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bracket_table_all_rows_hold(n):
    report = verify_theorem2(n)
    assert report.all_ok, [r for r in report if not r.equal]


def test_bracket_table_row_counts():
    # one row per (a,b): m*(m+1) rows, except the n=1 chart where the two
    # diagonal roles collapse into one generator
    for n in (1, 2, 3, 4, 5):
        _, m, _ = family_dims(n)
        assert len(verify_theorem2(n)) == m * (m + 1)


def test_bracket_table_corner_rows_present():
    # rows where the index shift would leave the basis must appear (their
    # coefficient vanishes, which is what the rows certify)
    names3 = [r.name for r in verify_theorem2(3)]
    assert any("B_23" in nm for nm in names3)
    names5 = [r.name for r in verify_theorem2(5)]
    assert len(names5) == 12


def test_lowest_dimension_diagonal_doubling():
    rows = {r.name: r for r in verify_theorem2(1)}
    assert "[R, B_11] = 2R" in rows
    rows2 = {r.name: r for r in verify_theorem2(2)}
    assert "[R, B_11] = R" in rows2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flatness_all_pairs(n):
    R, _ = modular_vf(n)
    B = basis_vf(n)
    fields = [R] + [B[p] for p in basis_pairs(n)]
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            assert verify_flatness(fields[i], fields[j])


@pytest.mark.parametrize("n", [4, 5])
def test_flatness_sampled_pairs(n):
    R, _ = modular_vf(n)
    B = basis_vf(n)
    fields = [R] + [B[p] for p in basis_pairs(n)]
    rng = random.Random(31 + n)
    seen = set()
    while len(seen) < 5:
        i, j = sorted(rng.sample(range(len(fields)), 2))
        seen.add((i, j))
    for i, j in sorted(seen):
        assert verify_flatness(fields[i], fields[j])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_homomorphism_all_basis_pairs(n):
    report = verify_homomorphism(n)
    assert report.all_ok, [r for r in report if not r.equal]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobi_on_named_triples(n):
    tr = sl2_triple(n)
    assert jacobi_ok(tr.E, tr.F, tr.Hf)
    B = basis_vf(n)
    pairs = basis_pairs(n)
    assert jacobi_ok(tr.E, B[pairs[0]], B[pairs[-1]])


def test_decomposition_of_truncated_field_dimension_three():
    ch = resolve_chart(3)
    R, _ = modular_vf(3)
    res = amsy_decompose(truncate_poly(R), 3)
    assert not isinstance(res, NotMember)
    f0, coeffs = res
    assert f0 == parse_ratfn(ch.ring, DECOMP3_F0)
    want = {k: parse_ratfn(ch.ring, s) for k, s in DECOMP3.items()}
    for key, f in coeffs.items():
        if key in want:
            assert f == want[key], f"coefficient on {key}"
        else:
            assert f.is_zero, f"unexpected coefficient on {key}"


def test_decomposition_obstruction_dimension_four():
    ch = resolve_chart(4)
    R, _ = modular_vf(4)
    res = amsy_decompose(truncate_poly(R), 4)
    assert isinstance(res, NotMember)
    assert res.entry == OBSTRUCTION4_ENTRY
    assert res.value == parse_ratfn(ch.ring, OBSTRUCTION4_VALUE)
    assert res.reason == ""


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_decompose_build_roundtrip(n):
    # random regular coefficients: build the field, decompose it back
    ch = resolve_chart(n)
    rng = random.Random(818 + n)
    pairs = basis_pairs(n)
    for _ in range(100):
        f0 = RatFn.of(ch.ring, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        coeffs = {}
        for p in rng.sample(pairs, min(2, len(pairs))):
            coeffs[p] = (RatFn.var(ch.ring, "t1")
                         ** rng.randint(0, 2)) * rng.randint(-3, 3)
        V = membership_build(f0, coeffs, n)
        res = amsy_decompose(V, n)
        assert not isinstance(res, NotMember)
        g0, got = res
        assert g0 == f0
        for p in pairs:
            want = coeffs.get(p, RatFn.of(ch.ring, 0))
            assert got[p] == want


def test_decompose_flags_irregular_coefficient():
    # a coefficient with a pole on the chart is rejected even though the
    # matrix readout succeeds
    ch = resolve_chart(3)
    B = basis_vf(3)
    bad = RatFn.of(ch.ring, 1) / RatFn.var(ch.ring, "t2")
    V = B[(1, 1)].scale(bad)
    res = amsy_decompose(V, 3)
    assert isinstance(res, NotMember)
    assert res.reason == "coefficient not regular"
    assert res.entry == (1, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scaled_field_identities(n):
    report = fR_identities(n)
    assert report.all_ok, [r for r in report if not r.equal]


def test_scaled_bracket_coefficient_tracks_the_grading():
    # the discriminant has graded degree n+2 except under the doubled
    # normalization at n=2, where every instanced coefficient shifts
    names = {n: [r.name for r in fR_identities(n)] for n in (1, 2, 3, 4)}
    assert "[H, fR] = 5*fR, f = disc" in names[1]
    assert "[H, fR] = 10*fR, f = disc" in names[2]
    assert "[H, fR] = 7*fR, f = disc" in names[3]
    assert "[H, fR] = 8*fR, f = disc" in names[4]


# on the symbolic chart the random point draws c as well
@pytest.mark.parametrize("n,c", [
    pytest.param(n, c, id=f"{c}-{n}" if c else str(n))
    for c in (None, "sym") for n in (1, 2, 3, 4)])
def test_generator_fields_have_full_rank(n, c):
    d, m, _ = family_dims(n)
    rank, count, dim = generator_rank(n, c)
    assert dim == d
    assert count == 1 + m * (m + 1)
    assert rank == d


def test_row_repr_keeps_the_report_strings():
    """perfbench hashes these strings for the threefold rows."""
    assert repr(Row("[R, B_22] = -R", True)) == "ok   [R, B_22] = -R"
    assert repr(Row("[R, B_22] = -R", False)) == "FAIL [R, B_22] = -R"
    assert repr(Row("[g0, R1]", True, kind="coupling")) == \
        "ok   [coupling] [g0, R1]"
    assert repr(Row("[R1, R1]", False, kind="integrability")) == \
        "FAIL [integrability] [R1, R1]"


def test_compare_row_lists_the_differing_components():
    ring = resolve_chart(1).ring
    t1, t2 = RatFn.var(ring, "t1"), RatFn.var(ring, "t2")
    row = Row.compare("name", VecField(ring, {"t1": t1, "t2": t2}),
                      VecField(ring, {"t2": t2, "t3": 1}))
    assert not row.equal
    assert row.detail == ["t1: expected 0", "t1: got      t1",
                          "t3: expected 1", "t3: got      0"]
    assert Row.compare("name", VecField(ring, {"t1": t1}),
                       VecField(ring, {"t1": t1})).detail == []
