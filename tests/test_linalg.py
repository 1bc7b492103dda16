"""Exact linear algebra: the one Gauss-Jordan routine behind MatF.inverse,
solve_linear and generator_rank, and its typed refusals."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dworklie import LinearInconsistent, MatF, RatFn, Ring, solve_linear

SRC = Path(__file__).resolve().parents[1] / "src"

# Refusals must not rest on assert: run them with assertions stripped.  The
# cases: a singular and a non-square inverse, a 2x2 times 3x3 product, a
# kernel division expected to be exact, (x^2 + 1)/x, a sum, a product and a
# quotient across two rings with the same names, a zero denominator, the
# value of a non-constant, a negative polynomial power, an equality oracle
# whose every sample point is a pole, and the dimensions of the family at
# n = 0.
OPTIMIZED_SCRIPT = """
from dworklie import DworkError, MatF, Poly, RatFn, Ring, eq_by_random_eval
from dworklie.geometry import family_dims
from dworklie.ring import _tdiv_strict
R, S = Ring(["x"]), Ring(["x"])
x = RatFn.var(R, "x")
origin = type("Origin", (), {"randint": staticmethod(lambda a, b: max(a, 0))})
cases = [lambda: MatF(R, [[x, x * 2], [x * 3, x * 6]]).inverse(),
         lambda: MatF(R, [[x, RatFn.of(R, 1)]]).inverse(),
         lambda: MatF.identity(R, 2) @ MatF.identity(R, 3),
         lambda: _tdiv_strict({(2,): 1, (0,): 1}, {(1,): 1}),
         lambda: R.var("x") + S.var("x"),
         lambda: x * RatFn.var(S, "x"),
         lambda: RatFn(R.var("x"), S.var("x")),
         lambda: Poly(R, {(1,): 1}, 0),
         lambda: (R.var("x") + R.one).const_value(),
         lambda: R.var("x") ** -1,
         lambda: eq_by_random_eval(1 / x, 1 / x, origin()),
         lambda: family_dims(0)]
for case in cases:
    try:
        case()
    except (DworkError, ZeroDivisionError, ValueError) as e:
        print(type(e).__name__)
    else:
        print("returned")
"""


def test_inverse_refuses_singular_and_non_square_under_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["LinearInconsistent", "DworkError",
                                   "DworkError", "KernelInvariant",
                                   "KernelInvariant", "KernelInvariant",
                                   "KernelInvariant", "ZeroDivisionError",
                                   "ValueError", "ValueError", "ValueError",
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
# any shape, some with whole rows or columns zero.
RXY = Ring(["x", "y"])
X, Y = RatFn.var(RXY, "x"), RatFn.var(RXY, "y")
ENTRIES = [RatFn.of(RXY, 0)] * 6 + [RatFn.of(RXY, 1), RatFn.of(RXY, -2),
                                    X, Y / (X + 1), X * Y - 3, 1 / Y]


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


@st.composite
def factor_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(sparse_matrix(n, k)), draw(sparse_matrix(k, m))


@given(factor_pairs())
@settings(max_examples=60, deadline=None)
def test_sparse_product_matches_dense_triple_loop(ab):
    A, B = ab
    want = [[sum((A.rows[i][l] * B.rows[l][j] for l in range(A.ncols)),
                 RatFn.of(RXY, 0))
             for j in range(B.ncols)] for i in range(A.nrows)]
    assert (A @ B).rows == want
