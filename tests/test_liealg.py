"""Bracket calculus: the bracket table of the distinguished field, flatness,
the algebra homomorphism, membership decomposition, and the scaled-field
rules."""

import random
from fractions import Fraction

import pytest

from dworklie import (DworkError, KernelInvariant, MatF, NotMember, RatFn,
                      VecField, amsy_decompose, basis_pairs, basis_vf,
                      check_pairing_invariance, fR_identities,
                      full_connection, jacobi_ok, lie_gen, linalg,
                      membership_build, modular_vf, resolve_chart, sl2_triple,
                      truncate_poly, verify_flatness, verify_homomorphism,
                      verify_theorem2)
from dworklie.cli import _suite_flatness
from dworklie.closedforms import (DECOMP3, DECOMP3_F0, OBSTRUCTION4_ENTRY,
                                  OBSTRUCTION4_VALUE, parse_field)
from dworklie.geometry import family_dims
from dworklie.liealg import Row, _regular, generator_rank
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


@pytest.mark.parametrize("n", [2, 3])
def test_flatness_suite_contracts_each_field_once(n, monkeypatch):
    # every pair forms the matrix of its bracket; the matrix of a named
    # field is kept on it, so a second run forms only the bracket matrices
    fields = 1 + len(basis_pairs(n))
    pairs = fields * (fields - 1) // 2
    formed = []
    products = linalg.OneFormMat._products

    def counted(self, vf, keep=None):
        formed.append(1)
        return products(self, vf, keep)

    monkeypatch.setattr(linalg.OneFormMat, "_products", counted)
    assert all(row.equal for row in _suite_flatness(n, None, None))
    assert len(formed) <= pairs + fields
    formed.clear()
    _suite_flatness(n, None, None)
    assert len(formed) == pairs


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


# The division loop _regular replaced, kept as its reference: strip every
# power of t_{n+2}, of disc and of each independent diagonal coordinate off
# the denominator, and see whether a constant is left.

def reference_regular(ch, f):
    den = RatFn(f.den)
    facs = [RatFn.var(ch.ring, ch.base2), ch.disc]
    for (i, j), var in sorted(ch.known.items()):
        if i == j and var != ch.pivot_var:
            facs.append(RatFn.var(ch.ring, var))
    for fac in facs:
        while not den.is_const:
            q = den / fac
            if not q.den.is_const:
                break
            den = q
    return den.is_const


@pytest.mark.parametrize("c", [None, "sym", 2], ids=["matched", "sym", "c2"])
@pytest.mark.parametrize("n", range(1, 7))
def test_regular_reads_the_split_as_the_division_loop_does(n, c):
    # every cell of A, every component of R and of the basis fields, then
    # inverses and products of them, the invertible ones (a split numerator)
    ch = resolve_chart(n, c)
    A = full_connection(ch)
    fields = [modular_vf(ch)[0]] + list(basis_vf(ch).values())
    values = [f for M in A.comps.values() for _, f in M.entries()]
    values += [f for V in fields for f in V.comps.values()]
    rng = random.Random(n)
    units = [f for f in values if f.num.known_split()]
    values += [rng.choice(units).inverse() for _ in range(200)]
    values += [rng.choice(values) * rng.choice(values) for _ in range(200)]
    seen = set()
    for f in values:
        seen.add(_regular(ch, f))
        assert _regular(ch, f) == reference_regular(ch, f), f
    assert seen == {True, False}


# The full-matrix route amsy_decompose replaced, kept as its reference: the
# whole contraction T = A.V against the readout's matrix f0*Y + sum
# f_ab*g_ab^T, NotMember at the first cell of T - recon, then regularity.

def reference_decompose(V, n, c=None):
    ch = resolve_chart(n, c)
    _, Y = modular_vf(n, c)
    T = full_connection(ch).contract(V)
    f0 = T.get1(1, 2)
    coeffs = {}
    recon = Y.matrix().scale(f0)
    for a, b in basis_pairs(n):
        coeffs[(a, b)] = f = T.get1(b, a)
        recon = recon + lie_gen(n, a, b, ch.ring).transpose().scale(f)
    resid = (T - recon).entries()
    if resid:
        return NotMember(*resid[0])
    for key, f in [(None, f0)] + sorted(coeffs.items()):
        if not _regular(ch, f):
            entry = (1, 2) if key is None else (key[1], key[0])
            return NotMember(entry, f, "coefficient not regular")
    return f0, coeffs


def outcome(res):
    if isinstance(res, NotMember):
        return ("not a member", res.entry, res.value, res.reason)
    return res


def seeded_members(n, rng, count, c=None):
    ring = resolve_chart(n, c).ring
    t1 = RatFn.var(ring, "t1")
    pairs = basis_pairs(n)
    for _ in range(count):
        f0 = RatFn.of(ring, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        coeffs = {p: t1 ** rng.randint(0, 2) * rng.randint(-3, 3)
                  for p in rng.sample(pairs, min(2, len(pairs)))}
        yield membership_build(f0, coeffs, n, c)


# the matched charts n = 1..6 (n = 6 on its relation ring) and one
# constant off the matched one at n = 3 and 4
CHARTS = [pytest.param(n, None, id=str(n)) for n in range(1, 7)] \
    + [pytest.param(n, Fraction(2), id=f"{n}-c2") for n in (3, 4)]


@pytest.mark.parametrize("n,c", CHARTS)
def test_decompose_matches_the_full_matrix_route_on_members(n, c):
    for V in seeded_members(n, random.Random(4242 + n), 10, c):
        got = amsy_decompose(V, n, c)
        assert not isinstance(got, NotMember)
        assert outcome(got) == outcome(reference_decompose(V, n, c))


@pytest.mark.parametrize("n,c", CHARTS)
def test_decompose_matches_the_full_matrix_route_on_non_members(n, c):
    # members with one component moved, the truncated modular field, and
    # a basis field over an irregular coefficient
    ch = resolve_chart(n, c)
    ring = ch.ring
    rng = random.Random(5353 + n)
    R, _ = modular_vf(n, c)
    B = basis_vf(n, c)
    t1 = RatFn.var(ring, "t1")
    fields = [truncate_poly(R), B[(1, 1)].scale(1 / RatFn.var(ring, "t2"))]
    for V in seeded_members(n, rng, 6, c):
        v = rng.choice(ch.coords)
        bump = rng.choice([RatFn.of(ring, 1), t1, t1 / ch.disc])
        fields.append(V + VecField(ring, {v: bump}))
    seen = set()
    for V in fields:
        want = reference_decompose(V, n, c)
        assert outcome(amsy_decompose(V, n, c)) == outcome(want)
        seen.add(want.reason if isinstance(want, NotMember) else "member")
    # at odd n the fields span the tangent sheaf, so only regularity can
    # fail; at even n a moved component leaves the relation's tangent space
    assert ("" in seen) == (n % 2 == 0)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_decompose_of_a_member_forms_only_the_readout_cells(n, monkeypatch):
    # f0 and f11 are read off V, every other coefficient off V1 = V - f0*R
    # - f11*B_11, which for a member has no t1 or t_{n+2} component: one
    # cell each, and A's base cells never meet the second readout
    base = {"t1", resolve_chart(n).base2}
    V = next(seeded_members(n, random.Random(n), 1))
    amsy_decompose(V, n)  # warm every memo the call reads
    reads, contract_at = [], linalg.OneFormMat.contract_at

    def recorded(self, vf, cells):
        reads.append((cells, base & set(vf.comps)))
        return contract_at(self, vf, cells)

    def refuse(self, vf):
        raise AssertionError("the whole contraction was formed")

    monkeypatch.setattr(linalg.OneFormMat, "contract_at", recorded)
    monkeypatch.setattr(linalg.OneFormMat, "contract", refuse)
    assert not isinstance(amsy_decompose(V, n), NotMember)
    assert [cells for cells, _ in reads] \
        == [[(1, 2), (1, 1)], [(b, a) for a, b in basis_pairs(n)[1:]]]
    assert base & set(V.comps) and not reads[1][1]


def test_decompose_refuses_a_residual_free_mismatch(monkeypatch):
    # A.(.) is injective, so V != W with A.(V - W) = 0 is a broken
    # invariant: with every readout cell and the contraction read as zero,
    # every coefficient is zero and V - W = V
    V = next(seeded_members(3, random.Random(3), 1))
    assert not V.is_zero
    monkeypatch.setattr(linalg.OneFormMat, "contract_at",
                        lambda self, vf, cells: [RatFn.of(self.ring, 0)]
                        * len(cells))
    monkeypatch.setattr(linalg.OneFormMat, "contract",
                        lambda self, vf: MatF.zeros(self.ring, self.size))
    with pytest.raises(DworkError, match="same connection matrix"):
        amsy_decompose(V, 3)


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


def test_a_build_with_an_unknown_basis_key_is_refused_by_name():
    ch = resolve_chart(3)
    one = RatFn.of(ch.ring, 1)
    with pytest.raises(DworkError, match=r"no basis field \(9, 9\) at n = 3"):
        membership_build(one, {(9, 9): one}, 3)


def one_on(n):
    return RatFn.of(resolve_chart(n).ring, 1)


# each call hands a field, a coefficient or a connection of one chart to a
# function working on another; the message names the chart it is not on
FOREIGN = {
    "decompose n = 3 field at n = 4": (
        lambda: amsy_decompose(modular_vf(3)[0], 4),
        r"field V is not on the chart n = 4, c = 1/46656"),
    "decompose n = 3 field on the symbolic chart": (
        lambda: amsy_decompose(modular_vf(3)[0], 3, "sym"),
        r"field V is not on the chart n = 3, c symbolic"),
    "build with an n = 1 f0 at n = 3": (
        lambda: membership_build(one_on(1), {}, 3),
        r"coefficient is not on the chart n = 3, c = 1/78125"),
    "build with an n = 1 coefficient at n = 3": (
        lambda: membership_build(one_on(3), {(1, 2): one_on(1)}, 3),
        r"coefficient is not on the chart n = 3"),
    "flatness of an n = 3 and an n = 4 field": (
        lambda: verify_flatness(modular_vf(3)[0], modular_vf(4)[0]),
        r"field W is not on the chart n = 3"),
    "pairing invariance of the n = 4 connection on the n = 3 chart": (
        lambda: check_pairing_invariance(resolve_chart(3),
                                         full_connection(resolve_chart(4))),
        r"connection is not on the chart n = 3"),
}


@pytest.mark.parametrize("case", FOREIGN)
def test_inputs_from_another_chart_are_refused_by_name(case):
    call, message = FOREIGN[case]
    with pytest.raises(DworkError, match=message) as caught:
        call()
    assert not isinstance(caught.value, KernelInvariant)
