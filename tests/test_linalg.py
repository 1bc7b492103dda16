"""Exact linear algebra: the sparse MatF against a dense reference, the one
Gauss-Jordan routine behind MatF.inverse, solve_linear and generator_rank,
the right triangular solve behind the full connection, the linear
combination routines, the congruence by a pairing, the vector-field bracket
against its componentwise definition, and their typed refusals."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dworklie import DworkError, LinearInconsistent, MatF, OneFormMat, \
    RatFn, Ring, UnsplitDenominator, VecField, basis_vf, modular_vf, \
    sl2_triple, solve_linear
from dworklie.cy3 import cy3_phi
from dworklie.geometry import pairing_form
from dworklie.linalg import combination, congruence_lower, \
    field_combination, pairing_defect, solve_right_lower
from dworklie.ratfn import ratfn_string

SRC = Path(__file__).resolve().parents[1] / "src"

# Refusals must not rest on assert: run them with assertions stripped.  The
# cases: a singular and a non-square inverse, a 2x2 times 3x3 product, a
# 2x2 plus and minus a 3x3, a read of cell (0, 0) and a write to (0, 1),
# 1/(x + 1), whose denominator has no split, a relation whose rel_den x + 1
# has none, a sum, a product and a quotient across two rings with the same
# names, a product and a sum of two constants across them, a zero
# denominator, the value of a non-constant, a negative
# polynomial power, an equality oracle whose every sample point is a pole,
# the dimensions of the family at n = 0, a power past the packed monomial's
# field limit, and a right triangular solve against a lower-triangular
# matrix with a zero diagonal entry, one whose right-hand sides do not all
# match its shape, and one against a matrix with an entry above the
# diagonal; a linear combination of 2x2 matrices with a 3x3 term; and the
# pairing defect and the congruence against a phi with two cells in one
# row.
OPTIMIZED_SCRIPT = """
from dworklie import DworkError, MatF, Poly, RatFn, Ring, eq_by_random_eval
from dworklie.geometry import family_dims
from dworklie.linalg import combination, congruence_lower, pairing_defect, \
    solve_right_lower
from dworklie.ratfn import dot
from dworklie.ring import _pack
R, S = Ring(["x"]), Ring(["x"])
x = RatFn.var(R, "x")
X1 = _pack((1,), 1)
origin = type("Origin", (), {"randint": staticmethod(lambda a, b: max(a, 0))})
cases = [lambda: MatF(R, [[x, x * 2], [x * 3, x * 6]]).inverse(),
         lambda: MatF(R, [[x, RatFn.of(R, 1)]]).inverse(),
         lambda: MatF.identity(R, 2) @ MatF.identity(R, 3),
         lambda: MatF.identity(R, 2) + MatF.identity(R, 3),
         lambda: MatF.identity(R, 2) - MatF.identity(R, 3),
         lambda: MatF.identity(R, 2).get1(0, 0),
         lambda: MatF.zeros(R, 2).set1(0, 1, 7),
         lambda: 1 / (x + 1),
         lambda: Ring(["x", "u"], pivot=1, rel_num={(1, 0): 1},
                      rel_den={(1, 0): 1, (0, 0): 1}),
         lambda: R.var("x") + S.var("x"),
         lambda: x * RatFn.var(S, "x"),
         lambda: RatFn(R.var("x"), S.var("x")),
         lambda: RatFn.of(R, 2) * RatFn.of(S, 3),
         lambda: RatFn.of(R, 2) + RatFn.of(S, 3),
         lambda: dot(R, [(x, RatFn.var(S, "x"))]),
         lambda: Poly(R, {X1: 1}, 0),
         lambda: (R.var("x") + R.one).const_value(),
         lambda: R.var("x") ** -1,
         lambda: eq_by_random_eval(1 / x, 1 / x, origin()),
         lambda: family_dims(0),
         lambda: R.var("x") ** 40000,
         lambda: solve_right_lower([MatF.identity(R, 2)],
                                   MatF(R, [[x, x * 0], [x, x * 0]])),
         lambda: solve_right_lower([MatF.identity(R, 2),
                                    MatF.identity(R, 3)],
                                   MatF.identity(R, 2)),
         lambda: solve_right_lower([MatF.identity(R, 2)],
                                   MatF(R, [[x, x], [x * 0, x]])),
         lambda: combination(R, (2, 2), [(1, MatF.identity(R, 2)),
                                         (0, MatF.identity(R, 3))]),
         lambda: pairing_defect(MatF.identity(R, 2),
                                MatF(R, [[x, x], [x * 0, x]])),
         lambda: congruence_lower(MatF.identity(R, 2),
                                  MatF(R, [[x, x], [x * 0, x]]))]
for case in cases:
    try:
        case()
    except (DworkError, ZeroDivisionError, ValueError) as e:
        print(type(e).__name__)
    else:
        print("returned")
"""


def test_no_invariant_rests_on_assert():
    # python -O strips assert statements, so src/ must not have any
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "dworklie").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_import():
    # every name a module of src/ imports is read in it; __init__.py's
    # imports are re-exports
    found = []
    for path in sorted((SRC / "dworklie").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (a.asname or a.name.split(".")[0]): node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []


def test_inverse_refuses_singular_and_non_square_under_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["LinearInconsistent", "DworkError",
                                   "DworkError", "DworkError", "DworkError",
                                   "DworkError", "DworkError",
                                   "UnsplitDenominator", "ValueError",
                                   "KernelInvariant", "KernelInvariant",
                                   "KernelInvariant", "KernelInvariant",
                                   "KernelInvariant", "KernelInvariant",
                                   "ZeroDivisionError",
                                   "ValueError", "ValueError", "ValueError",
                                   "DworkError", "KernelInvariant",
                                   "LinearInconsistent", "DworkError",
                                   "DworkError", "DworkError", "DworkError",
                                   "DworkError"]


def test_solve_linear_on_a_rank_deficient_system():
    R = Ring(["x"])
    x = RatFn.var(R, "x")
    rows = [[x, x * 2], [x * 2, x * 4]]
    res = solve_linear(R, rows, [x, x * 2])
    assert not res.unique
    assert res.values == [RatFn.of(R, 1), RatFn.of(R, 0)]
    with pytest.raises(LinearInconsistent):
        solve_linear(R, rows, [x, x])


# The sparse product against a dense triple loop, on mostly-zero matrices of
# any shape, some with whole rows or columns zero.  The known factor y - x
# gives one entry a denominator past a monomial.
RXY = Ring(["x", "y"], factor=((0, 1), 0))
X, Y = RatFn.var(RXY, "x"), RatFn.var(RXY, "y")
ENTRIES = [RatFn.of(RXY, 0)] * 6 + [RatFn.of(RXY, 1), RatFn.of(RXY, -2),
                                    X, Y / (Y - X), X * Y - 3, 1 / Y]
# the entries that can divide: a numerator without a split has no inverse
DIVISORS = [e for e in ENTRIES if not e.is_zero and e.num.known_split()]


@st.composite
def sparse_matrix(draw, nrows, ncols):
    rows = [[draw(st.sampled_from(ENTRIES)) for _ in range(ncols)]
            for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        rows[i] = [RatFn.of(RXY, 0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1))):
        for r in rows:
            r[j] = RatFn.of(RXY, 0)
    return MatF(RXY, rows)


def dense(M):
    """The reference layout: every cell, read through get1."""
    return [[M.get1(i, j) for j in range(1, M.ncols + 1)]
            for i in range(1, M.nrows + 1)]


@st.composite
def factor_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m))


@given(factor_pairs())
@settings(max_examples=60, deadline=None)
def test_sparse_product_matches_dense_triple_loop(ab):
    A, B = ab
    want = [[sum((A.get1(i, l) * B.get1(l, j) for l in range(1, A.ncols + 1)),
                 RatFn.of(RXY, 0))
             for j in range(1, B.ncols + 1)] for i in range(1, A.nrows + 1)]
    P = A @ B
    assert dense(P) == want
    assert not any(v.is_zero for _, v in P.entries())


@st.composite
def congruences(draw):
    """A sparse M of k + 1 rows and the family's pairing of that size, or
    its transpose."""
    k = draw(st.integers(1, 4))
    phi = pairing_form(RXY, k)
    if draw(st.booleans()):
        phi = phi.transpose()
    return draw(sparse_matrix(k + 1, draw(st.integers(1, 4)))), phi


@given(congruences())
@settings(max_examples=60, deadline=None)
def test_congruence_lower_is_the_lower_triangle_of_the_congruence(Mphi):
    M, phi = Mphi
    L = congruence_lower(M, phi)
    assert L == (M.transpose() @ phi @ M).lower()
    assert not any(v.is_zero for _, v in L.entries())


def test_congruence_lower_refuses_a_phi_that_is_not_monomial():
    M = MatF.identity(RXY, 2)
    for phi in (MatF(RXY, [[X, X], [X * 0, X]]), pairing_form(RXY, 2),
                MatF(RXY, [[X, X * 0], [X, X * 0]])):
        with pytest.raises(DworkError, match="one cell per row and column"):
            congruence_lower(M, phi)


@given(factor_pairs(), st.sets(st.tuples(st.integers(1, 4),
                                          st.integers(1, 4))))
@settings(max_examples=60, deadline=None)
def test_product_leaves_out_the_skipped_cells(ab, skip):
    A, B = ab
    assert A.product(B, skip).entries() == [
        (k, v) for k, v in (A @ B).entries() if k not in skip]


@st.composite
def right_solve_cases(draw):
    """Several right-hand sides of one shape and a lower-triangular S with a
    nonzero diagonal."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    S = draw(sparse_matrix(n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            S.set1(i, j, 0)
        S.set1(i, i, draw(st.sampled_from(DIVISORS)))
    Ms = draw(st.lists(sparse_matrix(m, n), min_size=1, max_size=3))
    return Ms, S


@given(right_solve_cases())
@settings(max_examples=60, deadline=None)
def test_right_triangular_solve_inverts_the_product(case):
    Ms, S = case
    Xs = solve_right_lower(Ms, S)
    assert len(Xs) == len(Ms)
    assert all(X @ S == M for X, M in zip(Xs, Ms))


@given(right_solve_cases())
@settings(max_examples=40, deadline=None)
def test_prepared_right_solve_matches_solve_linear(case):
    # X S = M row by row is S^T x = m, solved by Gauss-Jordan
    Ms, S = case
    St = dense(S.transpose())
    for X, M in zip(solve_right_lower(Ms, S), Ms):
        for i, row in enumerate(dense(M), 1):
            res = solve_linear(RXY, St, row)
            assert res.unique
            assert res.values == [X.get1(i, j) for j in range(1, S.ncols + 1)]


def test_right_triangular_solve_refuses_a_diagonal_without_a_split():
    S = MatF.identity(RXY, 2)
    S.set1(2, 2, X * Y - 3)
    with pytest.raises(UnsplitDenominator, match="no split"):
        solve_right_lower([MatF.identity(RXY, 2)], S)


def test_right_triangular_solve_refuses_an_upper_entry():
    S = MatF.identity(RXY, 2)
    S.set1(1, 2, X)
    with pytest.raises(DworkError, match="above the diagonal"):
        solve_right_lower([MatF.identity(RXY, 2)], S)


# The sparse layout against the dense reference: every operation agrees cell
# by cell, and none leaves a stored zero behind.
@st.composite
def summand_pairs(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(sparse_matrix(n, m)), draw(sparse_matrix(n, m))


@given(summand_pairs(), st.sampled_from(ENTRIES))
@settings(max_examples=60, deadline=None)
def test_operations_agree_with_the_dense_reference(ab, f):
    A, B = ab
    a, b = dense(A), dense(B)
    cases = [
        (A + B, [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]),
        (A - B, [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)]),
        (-A, [[-x for x in r] for r in a]),
        (A.scale(f), [[x * f for x in r] for r in a]),
        (A.transpose(), [list(c) for c in zip(*a)]),
        (A.derive("x"), [[x.derive("x") for x in r] for r in a]),
        (A.map(lambda x: x * x - x), [[x * x - x for x in r] for r in a]),
    ]
    for got, want in cases:
        assert dense(got) == want
        assert not any(v.is_zero for _, v in got.entries())


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
def test_no_operation_stores_a_zero(ab):
    A, _ = ab
    assert A - A == MatF.zeros(RXY, A.nrows, A.ncols)
    assert (A - A).is_zero and not (A - A).entries()
    assert A.scale(0).is_zero
    assert A.map(lambda x: x * 0).is_zero
    for (i, j), _ in A.entries():
        B = MatF(RXY, dense(A))
        B.set1(i, j, 0)
        assert (i, j) not in dict(B.entries())
        assert len(B.entries()) == len(A.entries()) - 1
        assert B.get1(i, j).is_zero


@given(factor_pairs())
@settings(max_examples=40, deadline=None)
def test_entries_are_the_nonzero_cells_in_row_major_order(ab):
    # also for matrices whose cells were stored in another order
    A, _ = ab
    backwards = MatF.zeros(RXY, A.nrows, A.ncols)
    for (i, j), v in reversed(A.entries()):
        backwards.set1(i, j, v)
    for M in (A, A.transpose(), backwards):
        m = dense(M)
        assert [cell for cell, _ in M.entries()] == [
            (i, j) for i in range(1, M.nrows + 1)
            for j in range(1, M.ncols + 1) if not m[i - 1][j - 1].is_zero]
        assert all(v == M.get1(*cell) for cell, v in M.entries())


def test_equality_includes_the_shape():
    assert MatF.zeros(RXY, 2, 3) != MatF.zeros(RXY, 3, 2)
    assert MatF.zeros(RXY, 2) != MatF.zeros(RXY, 3)
    assert MatF.identity(RXY, 2) == MatF(RXY, [[1 + X * 0, X * 0],
                                               [X * 0, 1 + X * 0]])


def test_cells_outside_the_shape_are_refused():
    M = MatF.zeros(RXY, 2, 3)
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 4), (-1, -1)):
        with pytest.raises(DworkError, match="outside a 2x3 matrix"):
            M.get1(i, j)
        with pytest.raises(DworkError, match="outside a 2x3 matrix"):
            M.set1(i, j, 0)
    assert M == MatF.zeros(RXY, 2, 3)
    with pytest.raises(DworkError, match="sum of a 2x3 and a 3x2 matrix"):
        M + M.transpose()


@given(st.lists(sparse_matrix(3, 3), min_size=2, max_size=2),
       st.lists(st.sampled_from(ENTRIES), min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=5))
@settings(max_examples=40, deadline=None)
def test_contract_at_reads_the_cells_of_the_contraction(Ms, fs, cells):
    A = OneFormMat(RXY, 3, dict(zip("xy", Ms)))
    V = VecField(RXY, dict(zip("xy", fs)))
    full = A.contract(V)
    assert A.contract_at(V, cells) == [full.get1(*k) for k in cells]


@given(st.lists(st.tuples(st.sampled_from(ENTRIES), sparse_matrix(3, 2)),
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_combination_matches_the_scaled_sum(terms):
    # the reference: one scale and one matrix sum per term, in order
    want = sum((M.scale(c) for c, M in terms), MatF.zeros(RXY, 3, 2))
    got = combination(RXY, (3, 2), terms)
    assert got == want
    assert not any(v.is_zero for _, v in got.entries())


def test_combination_refuses_a_term_of_another_shape():
    with pytest.raises(DworkError, match="2x2 matrices with a 2x3 term"):
        combination(RXY, (2, 2), [(1, MatF.identity(RXY, 2)),
                                  (0, MatF.zeros(RXY, 2, 3))])


@given(st.lists(st.tuples(st.sampled_from(ENTRIES),
                          st.lists(st.sampled_from(ENTRIES), min_size=2,
                                   max_size=2)),
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_field_combination_matches_the_scaled_sum(terms):
    # the reference: one scale and one field sum per term, in order
    terms = [(c, VecField(RXY, dict(zip("xy", fs)))) for c, fs in terms]
    want = sum((V.scale(c) for c, V in terms), VecField(RXY, {}))
    got = field_combination(RXY, terms)
    assert got == want
    assert not any(f.is_zero for f in got.comps.values())


# The pairing defect T*phi + phi*T^T against its two matrix products, on
# seeded sparse matrices, for the family's pairings and the threefold's.
PAIRINGS = [("pairing_form", n) for n in range(1, 9)] \
    + [("cy3_phi", h) for h in (1, 2, 3)]


@pytest.mark.parametrize("kind,k", PAIRINGS,
                         ids=[f"{kind}-{k}" for kind, k in PAIRINGS])
def test_pairing_defect_is_the_sum_of_the_two_products(kind, k):
    phi = pairing_form(RXY, k) if kind == "pairing_form" else cy3_phi(k, RXY)
    size = phi.nrows
    rng = random.Random(1019 * size + k)
    for _ in range(6):
        T = MatF.zeros(RXY, size)
        for _ in range(rng.randint(0, 2 * size)):
            T.set1(rng.randint(1, size), rng.randint(1, size),
                   rng.choice(ENTRIES))
        assert pairing_defect(T, phi) == T @ phi + phi @ T.transpose()
        # its antisymmetric part for the pairing has no defect
        A = T - phi @ T.transpose() @ phi.transpose()
        assert pairing_defect(A, phi).is_zero


def test_pairing_defect_refuses_a_phi_that_is_not_monomial():
    T = MatF.identity(RXY, 2)
    with pytest.raises(DworkError, match="one cell per row and column"):
        pairing_defect(T, MatF(RXY, [[X, X], [X * 0, X]]))
    with pytest.raises(DworkError, match="one cell per row and column"):
        pairing_defect(T, pairing_form(RXY, 2))


# The bracket against its componentwise definition: each field applied to
# each component of the other, by a sequential sum of products.

def reference_apply(V, f):
    out = RatFn.of(V.ring, 0)
    for v, g in V.comps.items():
        out = out + g * f.derive(v)
    return out


def reference_bracket(V, W):
    return VecField(V.ring, {
        v: reference_apply(V, W.get(v)) - reference_apply(W, V.get(v))
        for v in V.ring.names})


def same_field(got, want):
    """Equal, and printed the same, component by component."""
    names = got.ring.names
    return got == want and [ratfn_string(got.get(v)) for v in names] \
        == [ratfn_string(want.get(v)) for v in names]


COMPONENTS = ENTRIES + [X * X - Y, X * Y * Y / (Y - X) ** 2, (X - 1) / X]
fields = st.lists(st.sampled_from(COMPONENTS), min_size=2,
                  max_size=2).map(lambda cs: VecField(RXY, dict(zip("xy", cs))))


@given(fields, fields, st.sampled_from(COMPONENTS))
@settings(max_examples=80, deadline=None)
def test_bracket_and_apply_match_the_componentwise_definition(V, W, f):
    assert same_field(V.bracket(W), reference_bracket(V, W))
    assert same_field(W.bracket(V), reference_bracket(W, V))
    assert V.apply(f) == reference_apply(V, f)


def named_fields(n):
    """R, the lowering and grading fields, and every basis field."""
    tr = sl2_triple(n)
    out = [("R", modular_vf(n)[0]), ("F", tr.F), ("H", tr.Hf)]
    return out + [(f"B_{a}{b}", V) for (a, b), V in basis_vf(n).items()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bracket_of_the_named_fields_matches_the_definition(n):
    # each of R, F, H against every named field, in both orders
    fields = named_fields(n)
    for name, V in fields[:3]:
        for other, W in fields:
            assert same_field(V.bracket(W), reference_bracket(V, W)), \
                (name, other)
            assert same_field(W.bracket(V), reference_bracket(W, V)), \
                (other, name)


def test_a_second_bracket_of_the_same_fields_derives_nothing(monkeypatch):
    # each field keeps its Jacobian: a first bracket of fresh copies derives,
    # a second bracket of the same two fields does not
    R, B = modular_vf(3)[0], basis_vf(3)[(1, 2)]
    V, W = VecField(R.ring, R.comps), VecField(B.ring, B.comps)
    calls = []
    derive = RatFn.derive

    def counting(self, var):
        calls.append(var)
        return derive(self, var)

    monkeypatch.setattr(RatFn, "derive", counting)
    first = V.bracket(W)
    assert calls
    calls.clear()
    assert V.bracket(W) == first and W.bracket(V) == -first
    assert not calls


def test_times_factor_refuses_a_factor_of_another_size():
    R = Ring(["x"])
    for M, D, left in ((MatF.identity(R, 2), MatF.zeros(R, 3), False),
                       (MatF.zeros(R, 2, 3), MatF.zeros(R, 3), True),
                       (MatF.zeros(R, 2, 3), MatF.zeros(R, 2, 3), False)):
        with pytest.raises(DworkError, match="does not fit"):
            M.apply_factor(D, left)
    M = MatF.zeros(R, 2, 3)
    for D, left in ((MatF.zeros(R, 3), False), (MatF.zeros(R, 2), True)):
        M.apply_factor(D, left)
        assert M == MatF.zeros(R, 2, 3)
