"""Block-matrix model for a threefold with h deformation directions: frame,
bracket table, derived coupling actions, and the per-direction sl2 triples."""

import hashlib
import itertools

import cy3_reference as ref
import pytest

from dworklie import (DworkError, MatF, cy3, cy3_basis, cy3_dims, cy3_phi,
                      cy3_sl2, verify_cy3_table)
from dworklie.cy3 import (KINDS, _yring, basis_keys, bracket_claim, key_name,
                          table_keys, ysym_name)
from dworklie.geometry import pairing_form
from dworklie.group import lie_gen
from dworklie.ratfn import RatFn, parse_ratfn, ratfn_string

DIMS = {1: (4, 6, 7), 2: (6, 13, 15), 3: (8, 23, 26), 10: (22, 177, 187)}


@pytest.mark.parametrize("h", sorted(DIMS))
def test_dims_table(h):
    assert cy3_dims(h) == DIMS[h]


def test_dims_formula_range():
    for h in range(1, 11):
        frame, dim_g, dim_m = cy3_dims(h)
        assert frame == 2 * h + 2
        assert dim_g == (3 * h * h + 5 * h + 4) // 2
        assert dim_m == h + dim_g


def test_dims_rejects_nonpositive():
    with pytest.raises(DworkError):
        cy3_dims(0)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_phi_squares_to_minus_one(h):
    ring = _yring(h)
    phi = cy3_phi(h, ring)
    N = 2 * h + 2
    assert phi @ phi == MatF.identity(ring, N).scale(-1)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_basis_size_and_pairing(h):
    ring = _yring(h)
    basis = cy3_basis(h)
    _, dim_g, _ = cy3_dims(h)
    assert len(basis) == dim_g
    phi = cy3_phi(h, ring)
    for key, g in basis.items():
        assert (g.transpose() @ phi + phi @ g).is_zero, key_name(h, key)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_bracket_table(h):
    report = verify_cy3_table(h)
    assert report.all_ok, [r.name for r in report.rows if not r.equal]
    kinds = {r.kind for r in report.rows}
    assert kinds == {"constant", "coupling", "integrability"}


def test_bracket_table_row_count():
    # one row per ordered pair over the basis keys plus the modular keys
    report = verify_cy3_table(2)
    _, dim_g, _ = cy3_dims(2)
    assert len(report.rows) == (dim_g + 2) ** 2


def test_frame_diagonal_bracket_is_nonzero():
    # the table's printed zero for this cell disagrees with the commutator;
    # the amended claim is what the matrices satisfy
    h = 2
    ring = _yring(h)
    claim = bracket_claim(h, ring, ("g", 1, 2), ("g", 2, 1))
    assert claim, "bracket of distinct frame generators must not vanish"
    basis = cy3_basis(h)
    lhs = basis[("g", 1, 2)] @ basis[("g", 2, 1)] \
        - basis[("g", 2, 1)] @ basis[("g", 1, 2)]
    rhs = MatF.zeros(ring, 2 * h + 2)
    for key, cf in claim.items():
        rhs = rhs + basis[key].scale(cf)
    assert lhs == rhs


def test_keys_follow_the_kind_order():
    # bracket_claim writes each entry for one order of kinds, read off KINDS
    for h in range(1, 5):
        kinds = [key[0] for key in table_keys(h)]
        assert list(dict.fromkeys(kinds)) == list(KINDS)
        assert kinds == sorted(kinds, key=KINDS.index)


def same_table_as_the_reference(h):
    ring = _yring(h)
    keys = table_keys(h)
    for v, w in itertools.product(keys, keys):
        assert bracket_claim(h, ring, v, w) \
            == ref.bracket_claim(h, ring, v, w), (v, w)


@pytest.mark.parametrize("h", range(1, 9))
def test_table_matches_the_reference_written_in_both_orders(h):
    same_table_as_the_reference(h)


@pytest.mark.slow
def test_table_matches_the_reference_at_ten_directions():
    same_table_as_the_reference(10)


def test_a_wrong_entry_fails_both_of_its_rows(monkeypatch):
    # the reversed entry is the negated one, so a term dropped from
    # [t1_1, R_1] shows in that row and in [R_1, t1_1]
    real = cy3.bracket_claim

    def wrong(h, ring, v, w):
        out = real(h, ring, v, w)
        if (v, w) == (("t1", 1), ("R", 1)):
            out.pop(("t2", 1, 1))
        return out

    monkeypatch.setattr(cy3, "bracket_claim", wrong)
    failed = {r.name for r in verify_cy3_table(2).rows if not r.equal}
    assert failed == {"[t1, R1]", "[R1, t1]"}


def test_the_frames_are_built_once_per_h(monkeypatch):
    calls = []
    real = cy3.frame_cells
    monkeypatch.setattr(cy3, "frame_cells",
                        lambda h, key: calls.append((h, key)) or real(h, key))
    cy3._frames.cache_clear()
    cy3_sl2(2, verify_cy3_table(2))
    cy3_basis(2)
    assert calls == [(2, key) for key in table_keys(2)]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_derived_coupling_actions(h):
    # the scaling generator acts as the identity on every coupling symbol;
    # the frame generators act by the three-slot contraction rule; shears
    # and shifts act by zero
    acts = verify_cy3_table(h).actions
    assert set(acts) == set(basis_keys(h))
    ring = _yring(h)
    for vkey, yname in itertools.product(basis_keys(h), ring.names):
        val = acts[vkey].get(yname)
        a, i, j = (int(ch) for ch in yname[1:])
        if vkey == ("g0",):
            assert val == RatFn.var(ring, yname)
        elif vkey[0] == "g":
            c, b = vkey[1], vkey[2]
            want = RatFn.of(ring, 0)
            for pos, idx in enumerate((a, i, j)):
                if idx == c:
                    rest = [a, i, j]
                    rest[pos] = b
                    want = want - RatFn.var(
                        ring, "Y" + "".join(map(str, sorted(rest))))
            assert val == want, (vkey, yname)
        else:
            assert val.is_zero, (vkey, yname)


def test_absorbing_an_action_refuses_a_residual_it_cannot_read():
    # at h = 2 the coupling block of R_1 is rows 2..3 by columns 4..5, and
    # Y_112 sits in two of its cells, (2, 5) and (3, 4)
    h, k = 2, 1
    ring = _yring(h)
    one, two = RatFn.of(ring, 1), RatFn.of(ring, 2)
    off = MatF.zeros(ring, 2 * h + 2)
    off.set1(2, 4, one)
    off.set1(1, 4, one)
    assert cy3._absorb_action(h, ring, {}, k, off) == [
        "residual off the coupling block at (1, 4)"]
    y112 = ysym_name(h, k, 1, 2)
    twice = MatF.zeros(ring, 2 * h + 2)
    twice.set1(2, 5, one)
    twice.set1(3, 4, two)
    act = {}
    assert cy3._absorb_action(h, ring, act, k, twice) == [
        f"inconsistent action on {y112}"]
    assert act[y112] == one
    assert act[ysym_name(h, k, 1, 1)].is_zero
    # a later row that reads another value for a fixed symbol fails too
    again = MatF.zeros(ring, 2 * h + 2)
    again.set1(2, 5, two)
    assert cy3._absorb_action(h, ring, act, k, again) == [
        f"inconsistent action on {y112}"]


@pytest.mark.slow
def test_full_table_at_ten_directions():
    # from h = 10 on every name is "_"-joined (run with -m slow)
    h = 10
    _, dim_g, _ = cy3_dims(h)
    report = verify_cy3_table(h)
    assert report.all_ok, [r.name for r in report.rows if not r.equal]
    assert len(report.rows) == (dim_g + h) ** 2
    assert len({r.name for r in report.rows}) == len(report.rows)
    triples = cy3_sl2(h, report)
    assert triples.all_ok
    assert len(triples.rows) == 3 * h


@pytest.mark.parametrize("h", [1, 2, 3])
def test_sl2_triples(h):
    rows = cy3_sl2(h, verify_cy3_table(h))
    assert rows.all_ok
    names = [r.name for r in rows.rows]
    for k in range(1, h + 1):
        assert any(f"E_{k}" in nm for nm in names)


def test_modular_matrix_shape():
    h = 2
    ring = _yring(h)
    gm = cy3._frames(h)[("R", 1)]
    N = 2 * h + 2
    # first row picks out the direction, last column closes the band
    assert gm.get1(1, 2) == RatFn.of(ring, 1)
    assert gm.get1(h + 2, N) == RatFn.of(ring, 1)
    assert gm.get1(2, h + 2) == RatFn.var(ring, "Y111")


def test_basis_keys_are_named_uniquely():
    for h in range(1, 13):
        names = [key_name(h, k) for k in table_keys(h)]
        assert len(set(names)) == len(names), h


def test_names_stay_single_digit_up_to_nine():
    assert key_name(9, ("t2", 1, 9)) == "t19"
    assert ysym_name(9, 9, 1, 2) == "Y129"
    assert key_name(11, ("t2", 1, 1)) == "t1_1"
    assert key_name(11, ("t1", 11)) == "t11"
    assert ysym_name(10, 10, 1, 10) == "Y1_10_10"


def test_coupling_ring_beyond_single_digits():
    h = 10
    ring = _yring(h)
    assert cy3_dims(h) == DIMS[h]
    assert len(ring.names) == h * (h + 1) * (h + 2) // 6
    for nm in ring.names:
        f = RatFn.var(ring, nm)
        assert parse_ratfn(ring, ratfn_string(f)) == f
    assert cy3._frames(h)[("R", 10)].get1(2, h + 11) \
        == RatFn.var(ring, "Y1_10_10")


@pytest.mark.parametrize("h, built", [(1, 2), (2, 1)])
def test_triples_refuse_a_report_built_for_another_h(h, built):
    with pytest.raises(DworkError, match=f"another h than h = {h}"):
        cy3_sl2(h, verify_cy3_table(built))


def same_frames_as_the_reference(h):
    ring = _yring(h)
    frames = cy3._frames(h)
    assert list(frames) == table_keys(h)
    for key, frame in frames.items():
        assert frame == ref.frame(h, ring, key), key_name(h, key)


@pytest.mark.parametrize("h", range(1, 10))
def test_frames_match_the_reference_written_cell_by_cell(h):
    same_frames_as_the_reference(h)


@pytest.mark.slow
def test_frames_match_the_reference_at_ten_directions():
    same_frames_as_the_reference(10)


# sha256 of the table's and the triples' rows (name, kind, ok, detail, in
# order) and of every derived action on every coupling symbol, as the cell
# by cell frames gave them
TABLE_DIGESTS = {1: "c7557306046b8f3f", 2: "544963b795da9609",
                 3: "662143e080f40d1b", 4: "f71b451ba7626a14",
                 5: "0b86b5139551dacf", 6: "448b14e06e793bd0"}


@pytest.mark.parametrize("h", sorted(TABLE_DIGESTS))
def test_table_triples_and_actions_keep_their_digest(h):
    report = verify_cy3_table(h)
    lines = [f"{r.name}|{r.kind}|{r.equal}|{r.detail}"
             for r in [*report.rows, *cy3_sl2(h, report).rows]]
    lines += [f"{key_name(h, key)}|{y}|{ratfn_string(act.get(y))}"
              for key, act in report.actions.items()
              for y in _yring(h).names]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == TABLE_DIGESTS[h]


# cy3 key at h = 1: (a, b) of the n = 3 basis matrix g_ab and the sign s
FAMILY_RULE = {("g0",): (1, 1, -1), ("g", 1, 1): (2, 2, -1),
               ("t2", 1, 1): (2, 3, 1), ("t1", 1): (1, 3, -1),
               ("t0",): (1, 4, 1), ("k", 1): (1, 2, 1)}


def test_the_rule_at_one_direction_is_the_family_rule_at_n_3():
    # conjugation by D = diag(1, 1, 1, -1) takes the h = 1 model onto the
    # Dwork family's n = 3 chart group: each basis frame is s times g_ab's
    # transpose, and the pairing is the family's
    ring = _yring(1)
    D = MatF.identity(ring, 4)
    D.set1(4, 4, -1)
    assert D @ cy3_phi(1, ring) @ D == pairing_form(ring, 3)
    assert set(FAMILY_RULE) == set(basis_keys(1))
    for key, (a, b, s) in FAMILY_RULE.items():
        frame = MatF.zeros(ring, 4)
        for (i, j), x in cy3.frame_cells(1, key):
            frame.set1(i, j, x)
        assert D @ frame @ D == lie_gen(3, a, b, ring).transpose().scale(s), \
            key_name(1, key)
