"""Sparse matrices, matrix-valued one-forms, polynomial vector fields, and
exact linear solving over the rational-function field."""

from __future__ import annotations

from .errors import DworkError, LinearInconsistent
from .ratfn import RatFn, dot

__all__ = ["MatF", "OneFormMat", "VecField", "combination",
           "congruence_lower", "field_combination", "pairing_defect",
           "solve_linear", "SolveResult"]


class MatF:
    """Sparse matrix of RatFn entries: cells maps a 1-based (i, j) to a
    nonzero entry, zero cells are never stored, and the shape is kept
    explicitly.  Frame matrices are mostly zeros, so every operation walks
    only the stored cells.  Other modules read entries through get1 and
    entries."""

    __slots__ = ("ring", "nrows", "ncols", "cells")

    def __init__(self, ring, rows):
        """From dense rows; zero entries are dropped."""
        self.ring, self.nrows = ring, len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.cells = {(i, j): a for i, r in enumerate(rows, 1)
                      for j, a in enumerate(r, 1) if not a.is_zero}

    @staticmethod
    def _of(ring, nrows, ncols, pairs):
        """From ((i, j), value) pairs; zero values are dropped."""
        M = MatF.__new__(MatF)
        M.ring, M.nrows, M.ncols = ring, nrows, ncols
        M.cells = {k: a for k, a in pairs if not a.is_zero}
        return M

    def _like(self, pairs):
        return MatF._of(self.ring, self.nrows, self.ncols, pairs)

    @staticmethod
    def zeros(ring, n, m=None):
        return MatF._of(ring, n, n if m is None else m, ())

    @staticmethod
    def identity(ring, n):
        one = RatFn.of(ring, 1)
        return MatF._of(ring, n, n, (((i, i), one) for i in range(1, n + 1)))

    def _check_cell(self, i, j):
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise DworkError(f"cell ({i},{j}) outside a "
                             f"{self.nrows}x{self.ncols} matrix")

    def get1(self, i, j):
        a = self.cells.get((i, j))
        if a is None:
            self._check_cell(i, j)
            return RatFn.of(self.ring, 0)
        return a

    def set1(self, i, j, v):
        self._check_cell(i, j)
        v = RatFn.of(self.ring, v)
        if v.is_zero:
            self.cells.pop((i, j), None)
        else:
            self.cells[i, j] = v

    def entries(self):
        """The stored ((i, j), value) pairs, in row-major order."""
        return sorted(self.cells.items())

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DworkError(f"sum of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        out = dict(self.cells)
        for k, b in other.cells.items():
            a = out.get(k)
            out[k] = b if a is None else a + b
        return self._like(out.items())

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like((k, -a) for k, a in self.cells.items())

    def __matmul__(self, other):
        return self.product(other)

    def product(self, other, skip=()):
        """self @ other with no cell in skip formed: each nonzero a_ik meets
        only the nonzero b_kj of row k, and every cell is one ratfn.dot over
        its pairs, reduced once over one common denominator."""
        if self.ncols != other.nrows:
            raise DworkError(f"product of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        brows, pairs = {}, {}
        for (k, j), b in other.cells.items():
            brows.setdefault(k, []).append((j, b))
        for (i, k), a in self.cells.items():
            for j, b in brows.get(k, ()):
                if (i, j) not in skip:
                    pairs.setdefault((i, j), []).append((a, b))
        return MatF._of(self.ring, self.nrows, other.ncols,
                        ((k, dot(self.ring, ps)) for k, ps in pairs.items()))

    def apply_factor(self, D, left=False):
        """self @ (I + D), or (I + D) @ self with left, in place: column t
        gains sum_k (old column k) * d_kt, or row t gains sum_k d_tk * (old
        row k).  Only the lines that D reads are gathered, and only the cells
        that D changes are written, each one ratfn.dot over old cells."""
        if not D.nrows == D.ncols == (self.nrows if left else self.ncols):
            raise DworkError(f"factor {D.nrows}x{D.ncols} does not fit a "
                             f"{self.nrows}x{self.ncols} matrix")
        cells, ring, pairs = self.cells, self.ring, {}
        span = range(1, (self.ncols if left else self.nrows) + 1)
        for (i, j), d in D.cells.items():
            for p in span:
                a = cells.get((j, p) if left else (p, i))
                if a is not None:
                    pairs.setdefault((i, p) if left else (p, j), []).append(
                        (a, d))
        one = RatFn.of(ring, 1)
        for c, ps in pairs.items():
            if c in cells:
                ps.append((cells[c], one))
            cells[c] = dot(ring, ps)
            if cells[c].is_zero:
                del cells[c]

    def lower(self):
        """The cells j <= i of self; the cells above the diagonal are
        dropped."""
        return self._like((k, a) for k, a in self.cells.items()
                          if k[1] <= k[0])

    def scale(self, f):
        f = RatFn.of(self.ring, f)
        return self._like((k, a * f) for k, a in self.cells.items())

    def scale_rows(self, fs):
        """Each row i in the dict fs times fs[i], the other rows kept."""
        return self._like((k, a * fs[k[0]] if k[0] in fs else a)
                          for k, a in self.cells.items())

    def transpose(self):
        return MatF._of(self.ring, self.ncols, self.nrows,
                        (((j, i), a) for (i, j), a in self.cells.items()))

    def commutator(self, other):
        return self @ other - other @ self

    def __eq__(self, other):
        if not isinstance(other, MatF):
            return NotImplemented
        return (self.nrows, self.ncols, self.cells) \
            == (other.nrows, other.ncols, other.cells)

    @property
    def is_zero(self):
        return not self.cells

    def derive(self, var):
        return self._like((k, a.derive(var)) for k, a in self.cells.items())

    def map(self, fn):
        """fn on every stored entry; fn must send zero to zero."""
        return self._like((k, fn(a)) for k, a in self.cells.items())

    def lift(self, ring):
        return MatF._of(ring, self.nrows, self.ncols,
                        ((k, a.lift(ring)) for k, a in self.cells.items()))

    def _dense(self):
        return [[self.get1(i, j) for j in range(1, self.ncols + 1)]
                for i in range(1, self.nrows + 1)]

    def inverse(self):
        """Gauss-Jordan on [M | I]; raises instead of returning a non-inverse.
        The package itself no longer calls it (the full connection uses
        solve_right_lower); the tests keep it as the reference route, and
        perfbench/tracer.py wraps it by name."""
        n = self.nrows
        if n != self.ncols:
            raise DworkError(f"inverse of a non-square {n}x{self.ncols} matrix")
        one, zero = RatFn.of(self.ring, 1), RatFn.of(self.ring, 0)
        A = [r + [one if k == i else zero for k in range(n)]
             for i, r in enumerate(self._dense())]
        rank = len(_gauss_jordan(A, n))
        if rank < n:
            raise LinearInconsistent(rank, "singular matrix")
        return MatF(self.ring, [r[n:] for r in A])

    def __repr__(self):
        body = "\n".join("[" + ", ".join(repr(a) for a in r) + "]"
                         for r in self._dense())
        return f"MatF({self.nrows}x{self.ncols})\n{body}"


def combination(ring, shape, terms):
    """sum_k c_k * M_k over the (c_k, M_k) terms, each M_k of the given
    (nrows, ncols) shape: every cell is one ratfn.dot over the terms that
    store it; a term with a zero coefficient adds nothing.  Raises
    DworkError on a term of another shape."""
    nrows, ncols = shape
    pairs = {}
    for c, M in terms:
        if (M.nrows, M.ncols) != (nrows, ncols):
            raise DworkError(f"combination of {nrows}x{ncols} matrices with "
                             f"a {M.nrows}x{M.ncols} term")
        c = RatFn.of(ring, c)
        if not c.is_zero:
            for k, a in M.cells.items():
                pairs.setdefault(k, []).append((c, a))
    return MatF._of(ring, nrows, ncols,
                    ((k, dot(ring, ps)) for k, ps in pairs.items()))


def field_combination(ring, terms):
    """sum_k c_k * V_k over the (c_k, V_k) terms of vector fields, one
    ratfn.dot per component, as combination forms a matrix."""
    pairs = {}
    for c, V in terms:
        c = RatFn.of(ring, c)
        if not c.is_zero:
            for v, f in V.comps.items():
                pairs.setdefault(v, []).append((c, f))
    return VecField(ring, {v: dot(ring, ps) for v, ps in pairs.items()})


def congruence_lower(M, phi):
    """The cells j <= i of M^T phi M, for phi with one cell per row and
    column: M_ki meets phi_kl and row l of M, so every cell is one ratfn.dot
    over the rows of M.  DworkError for any other phi."""
    row = {k: (l, e) for (k, l), e in phi.cells.items()}
    if not len(phi.cells) == len(row) == len({l for l, _ in row.values()}) \
            == M.nrows == phi.nrows == phi.ncols:
        raise DworkError(f"no congruence of a {M.nrows}x{M.ncols} matrix by"
                         f" a phi without one cell per row and column")
    rows, pairs = {}, {}
    for (l, j), b in M.cells.items():
        rows.setdefault(l, []).append((j, b))
    for (k, i), a in M.cells.items():
        l, e = row[k]
        ea = e * a
        for j, b in rows.get(l, ()):
            if j <= i:
                pairs.setdefault((i, j), []).append((ea, b))
    return MatF._of(M.ring, M.ncols, M.ncols,
                    ((k, dot(M.ring, ps)) for k, ps in pairs.items()))


def pairing_defect(T, phi):
    """T*phi + phi*T^T, for phi with one cell per row and column: each T_ab
    meets phi_bj at (a, j) and phi_ib at (i, a), so every cell is one
    ratfn.dot of at most two terms.  DworkError for any other phi."""
    n = T.nrows
    row = {i: (j, e) for (i, j), e in phi.cells.items()}
    col = {j: (i, e) for (i, j), e in phi.cells.items()}
    if not len(phi.cells) == len(row) == len(col) == n == T.ncols \
            == phi.nrows == phi.ncols:
        raise DworkError(f"no pairing defect of a {n}x{T.ncols} matrix against"
                         f" a phi without one cell per row and column")
    pairs = {}
    for (a, b), t in T.cells.items():
        (j, e), (i, f) = row[b], col[b]
        pairs.setdefault((a, j), []).append((t, e))
        pairs.setdefault((i, a), []).append((f, t))
    return MatF._of(T.ring, n, n,
                    ((k, dot(T.ring, ps)) for k, ps in pairs.items()))


class OneFormMat:
    """Matrix-valued one-form: map variable name -> MatF; absent key = zero."""

    __slots__ = ("ring", "size", "comps")

    def __init__(self, ring, size, comps=None):
        self.ring = ring
        self.size = size
        self.comps = {v: M for v, M in (comps or {}).items()
                      if not M.is_zero}

    def get(self, var):
        M = self.comps.get(var)
        return M if M is not None else MatF.zeros(self.ring, self.size)

    def vars(self):
        return sorted(self.comps, key=lambda v: self.ring.index[v])

    def _products(self, vf, keep=None):
        """cell -> the (vf[v], A[v] entry) pairs summing to that entry of
        contract(vf), for the cells in keep (every cell when None)."""
        pairs = {}
        for v, M in self.comps.items():
            f = vf.comps.get(v)
            if f is not None and not f.is_zero:
                for k, a in M.cells.items():
                    if keep is None or k in keep:
                        pairs.setdefault(k, []).append((f, a))
        return pairs

    def contract(self, vf):
        """Pair with a vector field: sum_v vf[v] * A[v].  Each entry is one
        ratfn.dot over its component products, so it is reduced once over
        one common denominator, not once per product.  The result is kept
        on vf for this A and handed back on the next call."""
        kept = getattr(vf, "_con", None)
        if kept is not None and kept[0] is self:
            return kept[1]
        M = MatF._of(self.ring, self.size, self.size,
                     ((k, dot(self.ring, ps))
                      for k, ps in self._products(vf).items()))
        vf._con = (self, M)
        return M

    def contract_at(self, vf, cells):
        """The entries of contract(vf) at the given cells, in their order,
        each one ratfn.dot; no other entry is formed."""
        pairs = self._products(vf, set(cells))
        return [dot(self.ring, pairs.get(k, ())) for k in cells]


class VecField:
    """Vector field on the chart: map variable name -> RatFn coefficient.
    A field is not changed after it is made, so its Jacobian is kept once
    found (jacobian), and so is its contraction with the last connection
    that formed one (OneFormMat.contract)."""

    __slots__ = ("ring", "comps", "_jac", "_con")

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

    def jacobian(self):
        """{v: {u: d comp[v] / du}} over the support of each component,
        nonzero entries only.  Found on first use, then kept."""
        try:
            return self._jac
        except AttributeError:
            jac = self._jac = {}
            for v, f in self.comps.items():
                row = {}
                for u in f.support():
                    d = f.derive(u)
                    if not d.is_zero:
                        row[u] = d
                if row:
                    jac[v] = row
            return jac

    def apply(self, f):
        """Derivation on a function: sum_v comp[v] * df/dv, one ratfn.dot."""
        comps = self.comps
        return dot(self.ring, [(comps[v], f.derive(v))
                               for v in f.support() if v in comps])

    def apply_mat(self, M):
        return M.map(self.apply)

    def bracket(self, other):
        """[self, other]: component v is
        sum_u self[u] d other[v]/du - other[u] d self[v]/du, one ratfn.dot
        over the two fields' kept Jacobians."""
        a, b = self.comps, other.comps
        ja, jb = self.jacobian(), other.jacobian()
        out = {}
        for v in ja.keys() | jb.keys():
            pairs = [(a[u], d) for u, d in jb.get(v, {}).items() if u in a]
            pairs += [(-b[u], d) for u, d in ja.get(v, {}).items() if u in b]
            out[v] = dot(self.ring, pairs)
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


def solve_right_lower(Ms, S):
    """[X with X*S = M for each M in Ms], S lower triangular, by back
    substitution over the columns of each row of M, last column first:
    x_j = m_j / S_jj + sum_{k>j} x_k (-S_kj / S_jj).  The columns of S are
    read, and the factors 1/S_jj and -S_kj/S_jj formed, once for all of Ms;
    each entry of X is then one ratfn.dot over one common denominator, with
    no division.  Only the stored entries of each M and of S are visited.
    Raises LinearInconsistent on a zero diagonal entry, and DworkError on a
    shape mismatch or an entry above the diagonal."""
    n = S.nrows
    if S.ncols != n or any(M.ncols != n for M in Ms):
        shapes = ", ".join(f"{M.nrows}x{M.ncols}" for M in Ms)
        raise DworkError(f"right solve of {shapes} against a {n}x{S.ncols} "
                         f"matrix")
    cols = {}
    for (k, j), s in S.cells.items():
        if k < j:
            raise DworkError(f"right solve against a matrix with an entry "
                             f"above the diagonal in column {j}")
        cols.setdefault(j, []).append((k, s))
    inv, below = {}, {}
    for j in range(1, n + 1):
        if (j, j) not in S.cells:
            raise LinearInconsistent(j, "zero diagonal entry")
        inv[j] = S.cells[j, j].inverse()
        below[j] = sorted((k, -s * inv[j]) for k, s in cols[j] if k > j)
    return [_back_substitute(M, n, inv, below) for M in Ms]


def _back_substitute(M, n, inv, below):
    out = {}
    for i in {i for i, _ in M.cells}:
        for j in range(n, 0, -1):
            pairs = [(out[i, k], f) for k, f in below[j] if (i, k) in out]
            m = M.cells.get((i, j))
            if m is not None:
                pairs.append((m, inv[j]))
            if pairs:
                x = dot(M.ring, pairs)
                if not x.is_zero:
                    out[i, j] = x
    return MatF._of(M.ring, M.nrows, n, out.items())


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
