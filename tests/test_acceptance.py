"""End-to-end acceptance run, one test per shipped acceptance criterion.

Each test prints a single "criterion k: PASS" (or FAIL) line, so a plain
`pytest -v tests/test_acceptance.py` reads as a checklist.  Bodies overlap
the per-module suites on purpose: this file is the gate, those are the
development loop.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from dworklie import (
    NotMember,
    RatFn,
    VecField,
    act,
    amsy_decompose,
    basis_pairs,
    basis_vf,
    check_pairing_invariance,
    compose,
    cy3_dims,
    cy3_sl2,
    decompose_elem,
    eq_by_random_eval,
    fR_identities,
    family_dims,
    full_connection,
    group_elem,
    infinitesimal,
    jacobi_ok,
    lie_gen,
    matched_c,
    modular_vf,
    parse_ratfn,
    quasi_degree,
    ratfn_string,
    resolve_chart,
    sl2_triple,
    symbolic_elem,
    truncate_poly,
    verify_cy3_table,
    verify_flatness,
    verify_homomorphism,
    verify_theorem2,
    weights,
)
from dworklie.cli import field_lines, main as cli_main
from dworklie.closedforms import (
    ACTION,
    DECOMP3,
    DECOMP3_F0,
    OBSTRUCTION4_ENTRY,
    OBSTRUCTION4_VALUE,
    REFERENCE,
)
from dworklie.errors import DworkError
from dworklie.group import subgroup_counts


def symbolic_pair(n):
    """Two independent symbolic elements, g and h, over one shared ring."""
    d, _, _ = family_dims(n)
    names = [f"{p}{i}" for p in "gh" for i in range(1, d)]
    ring = resolve_chart(n).ring.extend(tuple(names))
    return [group_elem(n, [RatFn.var(ring, f"{p}{i}") for i in range(1, d)],
                       ring=ring) for p in "gh"]


@contextmanager
def criterion(k):
    try:
        yield
    except BaseException:
        print(f"criterion {k}: FAIL")
        raise
    else:
        print(f"criterion {k}: PASS")


def random_params(n, rng):
    mult, add = subgroup_counts(n)
    out = [Fraction(rng.choice([1, 2, 3, -1, -2, -3]), rng.randint(1, 4))
           for _ in range(mult)]
    out += [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(add)]
    return out


def test_criterion_01_reference_displays_to_the_byte():
    # command output for n = 1..4 must match the recorded closed forms
    # byte for byte, relation line included, in under five seconds
    with criterion(1):
        t0 = time.monotonic()
        for n in (1, 2, 3, 4):
            ch = resolve_chart(n)
            want = [f"n = {n}  (c = {matched_c(n)})"]
            for label in ("modular", "weight", "lowering"):
                comps = {v: parse_ratfn(ch.ring, s)
                         for v, s in REFERENCE[n][label].items()}
                want.append(f"{label}:")
                want.extend(field_lines(VecField(ch.ring, comps), ch.coords))
            rel = REFERENCE[n]["relation"]
            if rel is not None:
                lhs, rhs = rel.split(" = ")
                want.append(f"relation: {lhs} = "
                            f"{ratfn_string(parse_ratfn(ch.ring, rhs))}")
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(["ra", "--n", str(n)])
            assert code == 0
            assert buf.getvalue() == "\n".join(want) + "\n", f"n={n}"
        assert time.monotonic() - t0 < 5.0


def test_criterion_02_coupling_band_and_pairing():
    # the modular field's connection matrix is exactly the banded coupling
    # target, the band kills the pairing, and so the couplings are
    # antisymmetric under index reflection, coef(k) = -coef(n-1-k); n = 5
    # stays under a minute
    with criterion(2):
        for n in range(1, 6):
            t0 = time.monotonic()
            ch = resolve_chart(n)
            A = full_connection(ch)
            R, Y = modular_vf(n)
            band = Y.matrix()
            assert A.contract(R) == band, f"n={n}"
            phi = ch.phi
            assert (band @ phi + phi @ band.transpose()).is_zero
            if n == 5:
                assert time.monotonic() - t0 < 60.0


def test_criterion_03_basis_fields_solve_their_targets():
    # one field per basis matrix, built by the connection solver (which
    # raises on any nonzero residue), and each contraction reproduces the
    # transposed matrix exactly
    with criterion(3):
        for n in range(1, 6):
            ch = resolve_chart(n)
            A = full_connection(ch)
            B = basis_vf(n)
            assert set(B) == set(basis_pairs(n))
            for (a, b), vf in B.items():
                g = lie_gen(n, a, b, ch.ring)
                assert A.contract(vf) == g.transpose(), (n, a, b)


def test_criterion_04_structure_constant_table():
    # the full bracket table between the modular field and the basis
    # fields holds for n = 1..5, including the last-column and
    # antidiagonal rows where the coefficient formulas change shape
    with criterion(4):
        for n in range(1, 6):
            m = family_dims(n)[1]
            rep = verify_theorem2(n)
            assert rep.all_ok, f"n={n}"
            assert len(rep) == m * (m + 1)
            names = [r.name for r in rep]
            for a, b in basis_pairs(n):
                assert any(nm.startswith(f"[R, B_{a}{b}]")
                           for nm in names), (n, a, b)
            last_col = [p for p in basis_pairs(n) if p[1] == m + 1]
            antidiag = [p for p in basis_pairs(n)
                        if sum(p) in (2 * m, 2 * m + 1)]
            assert last_col and antidiag
        assert "[R, B_11] = 2R" in [r.name for r in verify_theorem2(1)]
        assert "[R, B_11] = R" in [r.name for r in verify_theorem2(2)]


def test_criterion_05_sl2_triples_and_case_split():
    # defining relations of the triple hold exactly for n = 1..5, with the
    # three-way construction split at n = 1, n = 2, and n >= 3
    with criterion(5):
        for n in range(1, 6):
            tr = sl2_triple(n)
            R, F, Hf = tr.E, tr.F, tr.Hf
            assert R.bracket(F) == Hf
            assert Hf.bracket(R) == R.scale(2)
            assert Hf.bracket(F) == F.scale(-2)
            B = basis_vf(n)
            if n == 1:
                assert F == B[(1, 2)] and Hf == -B[(1, 1)]
            elif n == 2:
                assert F == B[(1, 2)].scale(2) and Hf == B[(1, 1)].scale(-2)
            else:
                assert F == B[(1, 2)] and Hf == B[(2, 2)] - B[(1, 1)]


def test_criterion_06_truncated_membership():
    # polynomial truncation of the n = 3 modular field decomposes with the
    # five recorded coefficients; the n = 4 truncation is obstructed at
    # entry (3,3) with the recorded residual
    with criterion(6):
        ch3 = resolve_chart(3)
        R3, _ = modular_vf(3)
        out = amsy_decompose(truncate_poly(R3), 3)
        assert not isinstance(out, NotMember)
        f0, coeffs = out
        assert f0 == parse_ratfn(ch3.ring, DECOMP3_F0)
        nonzero = {p: f for p, f in coeffs.items() if not f.is_zero}
        assert nonzero == {p: parse_ratfn(ch3.ring, s)
                           for p, s in DECOMP3.items()}
        ch4 = resolve_chart(4)
        R4, _ = modular_vf(4)
        out4 = amsy_decompose(truncate_poly(R4), 4)
        assert isinstance(out4, NotMember)
        assert out4.entry == OBSTRUCTION4_ENTRY
        assert out4.value == parse_ratfn(ch4.ring, OBSTRUCTION4_VALUE)


def test_criterion_07_group_action():
    # recorded action formulas, the right-action axiom and pairing
    # invariance with every parameter symbolic, and 100 decomposition
    # round trips per dimension
    with criterion(7):
        for n in (1, 2, 3, 4):
            ch = resolve_chart(n)
            g = symbolic_elem(n)
            moved = act(n, g=g)
            assert set(moved) == set(ch.coords)
            for v, s in ACTION[n].items():
                assert moved[v] == parse_ratfn(g.ring, s), (n, v)
            phi = ch.phi.map(lambda r: r.lift(g.ring))
            gm = g.matrix
            assert gm.transpose() @ phi @ gm == phi
            ga, h = symbolic_pair(n)
            first = act(n, g=ga)
            second = act(n, g=h)
            via_two = {v: rf.subs(first) for v, rf in second.items()}
            assert via_two == act(n, g=compose(ga, h))
        for n in range(1, 6):
            rng = random.Random(1000 + n)
            for _ in range(100):
                g = group_elem(n, random_params(n, rng))
                assert decompose_elem(n, g.matrix) == g.params


def test_criterion_08_infinitesimal_action():
    # the parameter derivative of the action at the identity lands on
    # exactly one signed basis field; the sign table is pinned
    signs = {
        1: {1: ((1, 1), -1), 2: ((1, 2), 1)},
        2: {1: ((1, 1), -1), 2: ((1, 2), -1)},
        3: {1: ((1, 1), -1), 2: ((2, 2), -1), 3: ((1, 2), -1),
            4: ((1, 3), 1), 5: ((1, 4), 1), 6: ((2, 3), 1)},
        4: {1: ((1, 1), -1), 2: ((2, 2), -1), 3: ((1, 2), -1),
            4: ((1, 3), -1), 5: ((1, 4), -1), 6: ((2, 3), -1)},
    }
    with criterion(8):
        for n in (1, 2, 3, 4):
            d = family_dims(n)[0]
            B = basis_vf(n)
            for i in range(1, d):
                V = infinitesimal(n, i)
                hits = [(pair, s)
                        for pair in basis_pairs(n) for s in (1, -1)
                        if V == (B[pair] if s == 1 else -B[pair])]
                assert hits == [signs[n][i]], (n, i)


def test_criterion_09_weights_and_degree_shifts():
    # grading field matches the recorded weights, the modular field is
    # quasi-homogeneous of degree w+2 per component, the lowering field of
    # degree w-2, and discriminant scaling shifts the grading bracket by
    # the discriminant's weight (10 for n = 2, n+4 otherwise)
    with criterion(9):
        for n in (1, 2, 3, 4):
            ch = resolve_chart(n)
            tr = sl2_triple(n)
            w, rows = weights(n)
            shown = VecField(ch.ring, {v: parse_ratfn(ch.ring, s)
                                       for v, s in
                                       REFERENCE[n]["weight"].items()})
            assert shown == tr.Hf
            assert rows and all(r[3] for r in rows)
            for v in ch.coords:
                if not tr.E.get(v).is_zero:
                    assert quasi_degree(tr.E.get(v), w) == w[v] + 2
            for v in tr.F.vars():
                assert quasi_degree(tr.F.get(v), w) == w[v] - 2
            assert fR_identities(n).all_ok
            fR = tr.E.scale(ch.disc)
            if n == 2:
                assert tr.Hf.bracket(fR) == fR.scale(10)
                assert tr.Hf.bracket(fR) != fR.scale(6)
            else:
                assert tr.Hf.bracket(fR) == fR.scale(n + 4)
            assert fR.bracket(tr.F) == tr.Hf.scale(ch.disc)


def test_criterion_10_flatness_homomorphism_jacobi():
    # curvature-free bracket rule on all generator pairs (sampled for
    # n = 4, 5), matrix-versus-field bracket agreement on all basis pairs,
    # and the Jacobi identity on mixed triples
    with criterion(10):
        for n in (1, 2, 3):
            R, _ = modular_vf(n)
            gens = [R] + list(basis_vf(n).values())
            for i, V in enumerate(gens):
                for W in gens[i + 1:]:
                    assert verify_flatness(V, W), n
        for n in (4, 5):
            R, _ = modular_vf(n)
            gens = [R] + list(basis_vf(n).values())
            rng = random.Random(97 + n)
            for _ in range(5):
                V, W = rng.sample(gens, 2)
                assert verify_flatness(V, W), n
        for n in range(1, 6):
            assert verify_homomorphism(n).all_ok, n
        for n in (1, 2, 3, 4):
            tr = sl2_triple(n)
            assert jacobi_ok(tr.E, tr.F, tr.Hf)
            B = basis_vf(n)
            pairs = basis_pairs(n)
            assert jacobi_ok(tr.E, B[pairs[0]], B[pairs[-1]])


def test_criterion_11_frame_blocks_by_hodge_number():
    # dimension formulas through h = 10; the full constant-pair bracket
    # table and the h matrix-level triples for h <= 3, with the rows that
    # depend on derived coupling actions labeled as such
    with criterion(11):
        for h in range(1, 11):
            N, dim_g, dim_m = cy3_dims(h)
            assert N == 2 * h + 2
            assert dim_g == (3 * h * h + 5 * h + 4) // 2
            assert dim_m == h + dim_g
        for h in (1, 2, 3):
            rep = verify_cy3_table(h)
            assert rep.all_ok, h
            dim_g = cy3_dims(h)[1]
            assert len(rep.rows) == (dim_g + h) ** 2
            assert {r.kind for r in rep.rows} == {
                "constant", "coupling", "integrability"}
            s = cy3_sl2(h, rep)
            assert s.all_ok, h
            got = {(r.name, r.kind) for r in s.rows}
            for k in range(1, h + 1):
                want = {(f"[H_{k}, F_{k}] = -2 F_{k}", "constant"),
                        (f"[H_{k}, E_{k}] = 2 E_{k}", "coupling"),
                        (f"[E_{k}, F_{k}] = H_{k}", "coupling")}
                assert want <= got, (h, k)
            assert len(s.rows) == 3 * h


def test_criterion_12_extrapolated_rule_probe():
    # the extrapolated coefficient rule must either go through green for
    # n = 5, 6 (pairing identity, solver residues, tangency) or fail as a
    # typed structural error carrying a diagnostic; either way the
    # symbolic equalities are cross-checked at 50 random rational points
    with criterion(12):
        for n in (5, 6):
            try:
                ch = resolve_chart(n)
                assert ch.rule_extrapolated
                A = full_connection(ch)
                assert check_pairing_invariance(ch, A)
                R, Y = modular_vf(n)
                band = Y.matrix()
                C = A.contract(R)
                assert C == band
            except DworkError as e:
                assert str(e), "structural failure must carry a diagnostic"
                print(f"n={n} probe: structural failure: {e}")
                continue
            rng = random.Random(1200 + n)
            pairs = []
            for v in ch.coords:
                f = R.get(v)
                g = parse_ratfn(ch.ring, ratfn_string(f))
                pairs.append((f, g))
                pairs.append((f.derive(v), g.derive(v)))
            for i in range(1, n + 2):
                for j in range(1, n + 2):
                    pairs.append((C.get1(i, j), band.get1(i, j)))
            assert len(pairs) >= 50
            for f, g in pairs[:50]:
                assert eq_by_random_eval(f, g, rng, trials=3)
