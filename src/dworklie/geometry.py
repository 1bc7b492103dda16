"""Base data of the family: dimension bookkeeping, the constant pairing form,
the two-parameter frame connection, and the moving pairing matrix.

Everything lives on the small base with coordinates t1 and t_{n+2}; the frame
has n+1 sections, each the t1-derivative of the one before.  The pairing
matrix follows row by row from its first row by that derivative, and is
re-verified against its defining identity after construction (the last
frame-row coefficients are induction from low dimensions, so the check is a
real guard, not decoration)."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DworkError, KernelInvariant, OmegaInconsistent
from .linalg import MatF, OneFormMat
from .ratfn import RatFn
from .ring import Ring


def family_dims(n):
    """(d, m, ncoords): chart dimension, pairing half-size, coordinate count."""
    if n < 1:
        raise DworkError(f"need n >= 1, got {n}")
    if n % 2:
        d = (n + 1) * (n + 3) // 4 + 1
        m = (n + 1) // 2
        ncoords = d
    else:
        d = n * (n + 2) // 4 + 1
        m = n // 2
        ncoords = d + 1
    return d, m, ncoords


class Setup:
    """Variable context for one dimension n; chart.Chart is a Setup with its
    frame solved.  c_value None keeps the scaling constant c symbolic; a
    Fraction pins it.  disc = t1^(n+2) - t_{n+2} is the known factor of the
    ring: every chart denominator is a monomial times a power of it.  scale
    = (-(n+2))^n c is disc times the first-row entry of the pairing
    matrix."""

    __slots__ = ("n", "d", "m", "rho", "ncoords", "c_value", "ring", "c",
                 "base2", "disc", "scale")

    def __init__(self, n, c_value=None):
        self.n = n
        self.d, self.m, self.ncoords = family_dims(n)
        self.rho = n % 2
        self.c_value = None if c_value is None else Fraction(c_value)
        self.base2 = f"t{n + 2}"
        names = tuple(f"t{i}" for i in range(1, self.ncoords + 1))
        if self.c_value is None:
            names = names + ("c",)
        r = (n + 2,) + (0,) * (len(names) - 1)
        self.bind(Ring(names, factor=(r, n + 1)))

    def bind(self, ring):
        """Move onto ring, which has our names (e.g. with a relation added)."""
        self.ring = ring
        self.c = (RatFn.var(ring, "c") if self.c_value is None
                  else RatFn.of(ring, self.c_value))
        self.disc = (RatFn.var(ring, "t1") ** (self.n + 2)
                     - RatFn.var(ring, self.base2))
        self.scale = RatFn.of(ring, (-(self.n + 2)) ** self.n) * self.c


def stirling2(k, j):
    """Stirling number of the second kind via the alternating binomial sum."""
    if j < 0 or j > k:
        return 0
    total = 0
    for i in range(j + 1):
        total += (-1) ** i * comb(j, i) * (j - i) ** k
    q, r = divmod(total, factorial(j))
    if r:
        raise KernelInvariant(f"S({k},{j}) sum not divisible by {j}!")
    return q


def pairing_form(ring, n):
    """Constant pairing on the chart group over the given ring: antidiagonal,
    split signs when n is odd (symplectic type), all ones when n is even
    (symmetric type)."""
    _, m, _ = family_dims(n)
    P = MatF.zeros(ring, n + 1)
    for i in range(1, n + 2):
        P.set1(i, n + 2 - i, -1 if (n % 2 and i > m) else 1)
    return P


def frame_connection(setup):
    """Connection matrix of the frame over the base, as a one-form in dt1 and
    dt_{n+2}.  The last row interpolates the low-dimension pattern; its
    correctness is enforced by the pairing identity check downstream."""
    n = setup.n
    ring = setup.ring
    t1 = RatFn.var(ring, "t1")
    tb = RatFn.var(ring, setup.base2)
    disc = setup.disc
    B1 = MatF.zeros(ring, n + 1)
    B2 = MatF.zeros(ring, n + 1)
    for i in range(1, n + 1):
        B2.set1(i, i, RatFn.of(ring, Fraction(-i, n + 2)) / tb)
        B1.set1(i, i + 1, 1)
        B2.set1(i, i + 1, -t1 / (tb * (n + 2)))
    for j in range(1, n + 1):
        s2 = stirling2(n + 2, j)
        B1.set1(n + 1, j, -s2 * t1 ** j / disc)
        B2.set1(n + 1, j, s2 * t1 ** (j + 1) / (tb * disc * (n + 2)))
    s2 = stirling2(n + 2, n + 1)
    B1.set1(n + 1, n + 1, -s2 * t1 ** (n + 1) / disc)
    B2.set1(n + 1, n + 1,
            (Fraction(n * (n + 1), 2) * t1 ** (n + 2) + (n + 1) * tb)
            / (tb * disc * (n + 2)))
    return OneFormMat(setup.ring, n + 1, {"t1": B1, setup.base2: B2})


def _check_pairing_identity(setup, conn, omega):
    """d(pairing) == B * pairing + pairing * B^T, both base components.
    With omega^T = sign omega, pairing * B^T = sign (B * pairing)^T, so one
    product P = B * pairing gives the right side P + sign P^T; it has the
    transpose type of omega, as d(pairing) does, so the cells j <= i carry
    the whole identity."""
    sign = -1 if setup.rho else 1
    for v in ("t1", setup.base2):
        P = conn.get(v) @ omega
        rhs = P.lower() + P.transpose().lower().scale(sign)
        if omega.lower().derive(v) != rhs:
            return False
    return True


def pairing_matrix(setup, conn=None):
    """Moving pairing matrix on the frame.

    The frame is alpha_{i+1} = d/dt1 alpha_i, so the t1 component of the
    identity d(omega) = B omega + omega B^T gives omega row by row from its
    first row (0, ..., 0, scale / disc): omega_{i+1,j} = d/dt1 omega_{ij} -
    omega_{i,j+1} for j <= n, and the last column subtracts the last frame
    row, sum_k B1_{n+1,k} omega_{ik}, instead.  The zeros above the
    antidiagonal and the alternating antidiagonal follow.  The identity is
    then checked in both base components (its last t1 row and the whole
    t_{n+2} component are used by nothing else), and so is the transpose
    type; either failure raises OmegaInconsistent.  The first check reads
    the identity through omega^T = +-omega, so the two pass together only
    when both hold."""
    n = setup.n
    ring = setup.ring
    if conn is None:
        conn = frame_connection(setup)
    base = setup.scale / setup.disc
    last = [(k, f) for (i, k), f in conn.get("t1").entries() if i == n + 1]
    row = [RatFn.of(ring, 0)] * n + [base]
    rows = [row]
    for _ in range(n):
        d = [w.derive("t1") for w in row]
        tail = d[n]
        for k, f in last:
            tail = tail - f * row[k - 1]
        row = [d[j] - row[j + 1] for j in range(n)] + [tail]
        rows.append(row)
    omega = MatF(ring, rows)

    if not _check_pairing_identity(setup, conn, omega):
        raise OmegaInconsistent("pairing matrix fails its defining identity")
    tr = omega.transpose().scale(-1 if setup.rho else 1)
    if tr != omega:
        raise OmegaInconsistent("pairing matrix has the wrong transpose type")
    return omega
