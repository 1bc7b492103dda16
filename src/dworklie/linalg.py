"""Dense matrices, matrix-valued one-forms, polynomial vector fields, and exact
linear solving over the rational-function field."""

from __future__ import annotations

from .errors import DworkError, LinearInconsistent
from .ratfn import RatFn

__all__ = ["MatF", "OneFormMat", "VecField", "solve_linear", "SolveResult"]


class MatF:
    """Dense matrix of RatFn entries.  Storage is 0-based; the 1-based helpers
    exist because every layout formula in this package is stated 1-based.
    Products skip zero entries, since frame matrices are mostly zeros."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = rows

    @staticmethod
    def zeros(ring, n, m=None):
        m = n if m is None else m
        z = RatFn.of(ring, 0)
        return MatF(ring, [[z for _ in range(m)] for _ in range(n)])

    @staticmethod
    def identity(ring, n):
        M = MatF.zeros(ring, n)
        one = RatFn.of(ring, 1)
        for i in range(n):
            M.rows[i][i] = one
        return M

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def get1(self, i, j):
        return self.rows[i - 1][j - 1]

    def set1(self, i, j, v):
        self.rows[i - 1][j - 1] = RatFn.of(self.ring, v)

    def __add__(self, other):
        return MatF(self.ring, [[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return MatF(self.ring, [[a - b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return MatF(self.ring, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DworkError(f"product of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        # sparse: each nonzero a_ik meets only the nonzero b_kj of row k
        zero = RatFn.of(self.ring, 0)
        brows = [[(j, b) for j, b in enumerate(rb) if not b.is_zero]
                 for rb in other.rows]
        out = []
        for ra in self.rows:
            row = [zero] * other.ncols
            for a, bk in zip(ra, brows):
                if not a.is_zero:
                    for j, b in bk:
                        row[j] = row[j] + a * b
            out.append(row)
        return MatF(self.ring, out)

    def scale(self, f):
        f = RatFn.of(self.ring, f)
        return MatF(self.ring, [[a * f for a in r] for r in self.rows])

    def transpose(self):
        return MatF(self.ring, [list(c) for c in zip(*self.rows)])

    def commutator(self, other):
        return self @ other - other @ self

    def __eq__(self, other):
        if not isinstance(other, MatF):
            return NotImplemented
        return self.rows == other.rows

    @property
    def is_zero(self):
        return all(a.is_zero for r in self.rows for a in r)

    def derive(self, var):
        return MatF(self.ring, [[a.derive(var) for a in r] for r in self.rows])

    def map(self, fn):
        return MatF(self.ring, [[fn(a) for a in r] for r in self.rows])

    def inverse(self):
        """Gauss-Jordan on [M | I]; raises instead of returning a non-inverse.
        The package itself no longer calls it (the full connection uses
        solve_right_lower); the tests keep it as the reference route, and
        perfbench/tracer.py wraps it by name."""
        n = self.nrows
        if n != self.ncols:
            raise DworkError(f"inverse of a non-square {n}x{self.ncols} matrix")
        one, zero = RatFn.of(self.ring, 1), RatFn.of(self.ring, 0)
        A = [list(r) + [one if k == i else zero for k in range(n)]
             for i, r in enumerate(self.rows)]
        rank = len(_gauss_jordan(A, n))
        if rank < n:
            raise LinearInconsistent(rank, "singular matrix")
        return MatF(self.ring, [r[n:] for r in A])

    def __repr__(self):
        body = "\n".join("[" + ", ".join(repr(a) for a in r) + "]"
                         for r in self.rows)
        return f"MatF({self.nrows}x{self.ncols})\n{body}"


class OneFormMat:
    """Matrix-valued one-form: map variable name -> MatF; absent key = zero."""

    __slots__ = ("ring", "size", "comps")

    def __init__(self, ring, size, comps=None):
        self.ring = ring
        self.size = size
        self.comps = {}
        if comps:
            for v, M in comps.items():
                if not M.is_zero:
                    self.comps[v] = M

    def get(self, var):
        M = self.comps.get(var)
        return M if M is not None else MatF.zeros(self.ring, self.size)

    def set(self, var, M):
        if M.is_zero:
            self.comps.pop(var, None)
        else:
            self.comps[var] = M

    def vars(self):
        return sorted(self.comps, key=lambda v: self.ring.index[v])

    def __add__(self, other):
        out = OneFormMat(self.ring, self.size)
        for v in set(self.comps) | set(other.comps):
            out.set(v, self.get(v) + other.get(v))
        return out

    def __eq__(self, other):
        if not isinstance(other, OneFormMat):
            return NotImplemented
        for v in set(self.comps) | set(other.comps):
            if self.get(v) != other.get(v):
                return False
        return True

    def contract(self, vf):
        """Pair with a vector field: sum_v vf[v] * A[v]."""
        out = MatF.zeros(self.ring, self.size)
        for v, M in self.comps.items():
            f = vf.comps.get(v)
            if f is not None and not f.is_zero:
                out = out + M.scale(f)
        return out


class VecField:
    """Vector field on the chart: map variable name -> RatFn coefficient."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps=None):
        self.ring = ring
        self.comps = {}
        if comps:
            for v, f in comps.items():
                f = RatFn.of(ring, f)
                if not f.is_zero:
                    self.comps[v] = f

    def get(self, var):
        f = self.comps.get(var)
        return f if f is not None else RatFn.of(self.ring, 0)

    def vars(self):
        return sorted(self.comps, key=lambda v: self.ring.index[v])

    def __add__(self, other):
        out = dict(self.comps)
        for v, f in other.comps.items():
            s = out.get(v)
            out[v] = f if s is None else s + f
        return VecField(self.ring, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, f):
        f = RatFn.of(self.ring, f)
        return VecField(self.ring, {v: g * f for v, g in self.comps.items()})

    def __eq__(self, other):
        if not isinstance(other, VecField):
            return NotImplemented
        return self.comps == other.comps

    @property
    def is_zero(self):
        return not self.comps

    def apply(self, f):
        """Derivation on a function: sum_v comp[v] * df/dv."""
        out = RatFn.of(self.ring, 0)
        for v, g in self.comps.items():
            d = f.derive(v)
            if not d.is_zero:
                out = out + g * d
        return out

    def apply_mat(self, M):
        return M.map(self.apply)

    def bracket(self, other):
        """[self, other], computed componentwise on coefficients."""
        out = {}
        keys = set(self.comps) | set(other.comps)
        for v in keys:
            a = self.apply(other.get(v))
            b = other.apply(self.get(v))
            c = a - b
            if not c.is_zero:
                out[v] = c
        return VecField(self.ring, out)

    def lift(self, ring):
        return VecField(ring, {v: f.lift(ring) for v, f in self.comps.items()})

    def __repr__(self):
        if not self.comps:
            return "0"
        bits = []
        for v in self.vars():
            bits.append(f"({self.comps[v]!r}) d/d{v}")
        return " + ".join(bits)


class SolveResult:
    __slots__ = ("values", "unique")

    def __init__(self, values, unique):
        self.values = values
        self.unique = unique


def _gauss_jordan(A, ncols):
    """Reduce the augmented rows A in place over their first ncols columns,
    lightest nonzero pivot first.  Returns the pivot columns; row k then holds
    a unit in the k-th of them and zeros in every other pivot column."""
    m = len(A)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = None
        best = None
        for i in range(r, m):
            if not A[i][col].is_zero:
                w = len(A[i][col].num.terms) + len(A[i][col].den.terms)
                if best is None or w < best:
                    best, piv = w, i
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = A[r][col].inverse()
        A[r] = [a * inv for a in A[r]]
        for i in range(m):
            if i != r and not A[i][col].is_zero:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(col)
    return pivots


def solve_right_lower(M, S):
    """X with X*S = M for lower-triangular S, by back substitution over the
    columns of each row of M, last column first:
    x_j = (m_j - sum_{k>j} x_k S_kj) / S_jj.  Zero rows of M and zero
    entries of S are skipped.  Raises LinearInconsistent on a zero diagonal
    entry, and DworkError on a shape mismatch or an entry above the
    diagonal."""
    n = S.nrows
    if S.ncols != n or M.ncols != n:
        raise DworkError(f"right solve of a {M.nrows}x{M.ncols} against a "
                         f"{S.nrows}x{S.ncols} matrix")
    below = []
    for j in range(n):
        if any(not S.rows[k][j].is_zero for k in range(j)):
            raise DworkError(f"right solve against a matrix with an entry "
                             f"above the diagonal in column {j + 1}")
        if S.rows[j][j].is_zero:
            raise LinearInconsistent(j + 1, "zero diagonal entry")
        below.append([(k, S.rows[k][j]) for k in range(j + 1, n)
                      if not S.rows[k][j].is_zero])
    one = RatFn.of(M.ring, 1)
    out = []
    for m in M.rows:
        x = list(m)
        if not all(a.is_zero for a in m):
            for j in range(n - 1, -1, -1):
                acc = m[j]
                for k, s in below[j]:
                    if not x[k].is_zero:
                        acc = acc - x[k] * s
                d = S.rows[j][j]
                x[j] = acc if acc.is_zero or d == one else acc / d
        out.append(x)
    return MatF(M.ring, out)


def solve_linear(ring, rows, rhs):
    """Solve rows * x = rhs over the rational-function field.

    Returns SolveResult; free unknowns are set to zero and flagged via
    unique=False.  Raises LinearInconsistent when no solution exists."""
    n = len(rows[0]) if rows else 0
    A = [[RatFn.of(ring, a) for a in r] + [RatFn.of(ring, b)]
         for r, b in zip(rows, rhs)]
    piv_cols = _gauss_jordan(A, n)
    for i in range(len(piv_cols), len(A)):
        if not A[i][n].is_zero:
            raise LinearInconsistent(i)
    x = [RatFn.of(ring, 0)] * n
    for k, col in enumerate(piv_cols):
        x[col] = A[k][n]
    return SolveResult(x, unique=(len(piv_cols) == n))
