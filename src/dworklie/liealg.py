"""Bracket calculus for the named fields: the bracket table of the modular
field against the basis fields, flatness of the connection, membership
decomposition over the module the fields span, and the scaled-field bracket
identities.
"""

from __future__ import annotations

from fractions import Fraction

from .chart import chart_of_ring, on_chart, per_chart, resolve_chart
from .connection import full_connection
from .errors import DworkError
from .group import basis_pairs, lie_gen
from .linalg import VecField, _gauss_jordan, field_combination
from .modular import basis_vf, modular_vf, quasi_degree, sl2_triple, weights
from .ratfn import RatFn
from .ring import Poly


class Row:
    """One named check: whether it holds, the lines that show why it failed,
    and, in the threefold table, the kind of check."""

    __slots__ = ("name", "equal", "detail", "kind")

    def __init__(self, name, equal, detail=(), kind=None):
        self.name = name
        self.equal = equal
        self.detail = list(detail)
        self.kind = kind

    @classmethod
    def compare(cls, name, lhs, rhs):
        """lhs == rhs for two vector fields, rhs the expected side; the
        detail lists each differing component in ring order."""
        detail = []
        for v in lhs.ring.names:
            want, got = rhs.get(v), lhs.get(v)
            if want != got:
                detail += mismatch(want, got, f"{v}: ")
        return cls(name, not detail, detail)

    def __repr__(self):
        tag = "ok  " if self.equal else "FAIL"
        kind = f" [{self.kind}]" if self.kind else ""
        return f"{tag}{kind} {self.name}"


def mismatch(want, got, label=""):
    """The expected and the got line of a failed comparison."""
    return [f"{label}expected {want}", f"{label}got      {got}"]


class BracketReport:
    """Rows of a bracket table check; the threefold table also carries the
    action of each basis field on the coupling symbols, a VecField per
    generator key (see cy3.verify_cy3_table)."""

    __slots__ = ("rows", "actions")

    def __init__(self, rows, actions=None):
        self.rows = rows
        self.actions = actions

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def all_ok(self):
        return all(r.equal for r in self.rows)


@per_chart
def verify_theorem2(ch):
    """Bracket of the modular field with every basis field against its
    predicted two-term combination; one report row per basis index."""
    R, Y = modular_vf(ch)
    B = basis_vf(ch)
    n, m, rho = ch.n, ch.m, ch.rho
    zero = VecField(ch.ring, {})
    rows = []
    for a, b in basis_pairs(n):
        lhs = R.bracket(B[(a, b)])
        if a == b == 1:
            if n == 1:
                # m = 1 leaves a single diagonal generator carrying both
                # diagonal roles; the doubled bracket is forced by the
                # lowest-dimension sl2 normalization
                rows.append(Row.compare("[R, B_11] = 2R", lhs, R.scale(2)))
            else:
                rows.append(Row.compare("[R, B_11] = R", lhs, R))
            continue
        if a == b == 2:
            rows.append(Row.compare("[R, B_22] = -R", lhs, -R))
            continue
        if a == b:
            rows.append(Row.compare(f"[R, B_{a}{a}] = 0", lhs, zero))
            continue
        psi1 = ((1 + rho * (a + b == 2 * m) - (a + b == 2 * m + 1))
                * Y.coef(a - 1))
        psi2 = (1 - 2 * rho * (b == m + 1)) * Y.coef(n + 1 - b)
        rhs = _term(B, n, (a + 1, b), psi1) + _term(B, n, (a, b - 1), psi2)
        rows.append(
            Row.compare(f"[R, B_{a}{b}] = c1*B_{a + 1}{b} + c2*B_{a}{b - 1}",
                        lhs, rhs))
    return BracketReport(rows)


def _term(B, n, pair, psi):
    """psi * basis field, where an out-of-range index demands psi = 0."""
    if pair in B:
        return B[pair].scale(psi)
    if not psi.is_zero:
        raise DworkError(
            f"nonzero coefficient on out-of-range basis index {pair}")
    ring = next(iter(B.values())).ring
    return VecField(ring, {})


def verify_flatness(V, W):
    """Connection matrix of [V,W] versus the curvature-free combination of
    the matrices of V and W, computed along independent routes.  DworkError
    when W is not on V's chart."""
    ch = chart_of_ring(V.ring)
    on_chart(ch, "the field W", W)
    A = full_connection(ch)
    lhs = A.contract(V.bracket(W))
    AV = A.contract(V)
    AW = A.contract(W)
    rhs = AW.commutator(AV) + V.apply_mat(AW) - W.apply_mat(AV)
    return lhs == rhs


def verify_homomorphism(n, c=None):
    """Field bracket versus constant-matrix bracket for every basis pair:
    the connection matrix of [B_x, B_y] must be the transposed commutator."""
    ch = resolve_chart(n, c)
    A = full_connection(ch)
    B = basis_vf(ch)
    pairs = basis_pairs(n)
    gens = {p: lie_gen(n, *p, ring=ch.ring) for p in pairs}
    rows = []
    for i, p in enumerate(pairs):
        for q in pairs[i + 1:]:
            lhs = A.contract(B[p].bracket(B[q]))
            want = (gens[p] @ gens[q] - gens[q] @ gens[p]).transpose()
            diff = (lhs - want).entries()
            rows.append(Row(f"[B_{p[0]}{p[1]}, B_{q[0]}{q[1]}]", not diff,
                            [f"entry {ij}: lhs - rhs = {d}"
                             for ij, d in diff]))
    return BracketReport(rows)


class NotMember:
    """Failed membership: the first matrix entry that cannot be realized,
    with its residual value."""

    __slots__ = ("entry", "value", "reason")

    def __init__(self, entry, value, reason=""):
        self.entry = entry
        self.value = value
        self.reason = reason

    def __repr__(self):
        extra = f" ({self.reason})" if self.reason else ""
        return f"NotMember(entry={self.entry}{extra})"


def amsy_decompose(V, n, c=None):
    """Coefficients (f0, {index: f}) expressing V over the modular field and
    the basis fields, or NotMember.

    The basis matrices have pairwise disjoint supports away from the
    superdiagonal, so each coefficient sits in its own cell of T = A.V, and
    only those cells are formed.  f0 = T_12 and f11 = T_11 come first, and
    V1 = V - f0*R - f11*B_11.  As A.R = Y and A.B_ab = g_ab^T, A.V1 = T -
    f0*Y - f11*g_11^T by linearity; Y is strictly superdiagonal and g_11^T
    lies on (1, 1) and (n+1, n+1), so every other coefficient is its cell of
    A.V1, for any V.  Only R and B_11 have a t1 or t_{n+2} component: a
    member's V1 has neither and never meets A's large base cells.  V is a
    member when V1 = W1 = sum f_ab*B_ab over ab != 11 (the test V =
    membership_build(...)) and every coefficient is regular on the chart;
    else NotMember carries the first nonzero cell of A.(V1 - W1).  A.(.) is
    injective on fields (vf_from_target reads every component back off it),
    so V1 != W1 with A.(V1 - W1) = 0 is a DworkError, as is a V off the
    chart."""
    ch = resolve_chart(n, c)
    on_chart(ch, "the field V", V)
    A = full_connection(ch)
    R, _ = modular_vf(n, c)
    B = basis_vf(n, c)
    pairs = basis_pairs(n)
    f0, f11 = A.contract_at(V, [(1, 2), (1, 1)])
    V1 = field_combination(ch.ring, [(1, V), (-f0, R), (-f11, B[1, 1])])
    fs = A.contract_at(V1, [(b, a) for a, b in pairs[1:]])
    coeffs = dict(zip(pairs, [f11] + fs))
    W1 = field_combination(ch.ring, [(f, B[k]) for k, f in zip(pairs[1:], fs)])
    if W1 != V1:
        resid = A.contract(V1 - W1).entries()
        if not resid:
            raise DworkError("distinct fields with the same connection matrix")
        return NotMember(*resid[0])
    for key, f in [(None, f0)] + sorted(coeffs.items()):
        if not _regular(ch, f):
            entry = (1, 2) if key is None else (key[1], key[0])
            return NotMember(entry, f, "coefficient not regular")
    return f0, coeffs


def _regular(ch, f):
    """True when the canonical denominator x^a*disc^k (its split (a, k))
    divides a power of the inverted locus: every variable of x^a is t_{n+2}
    or an independent diagonal slot variable."""
    a, _ = f.split
    if not a:
        return True
    units = {ch.base2} | {v for (i, j), v in ch.known.items()
                          if i == j and v != ch.pivot_var}
    return units.issuperset(Poly(ch.ring, {a: 1}).support())


def membership_build(f0, coeffs, n, c=None):
    """Assemble the field with the given decomposition coefficients.
    DworkError when f0 or a coefficient is not on the chart of n and c, or
    a key names no basis field."""
    on_chart(resolve_chart(n, c), "a coefficient", f0, *coeffs.values())
    R, _ = modular_vf(n, c)
    B = basis_vf(n, c)
    try:
        terms = [(f, B[key]) for key, f in coeffs.items()]
    except KeyError as e:
        raise DworkError(f"no basis field {e.args[0]} at n = {n}") from None
    return field_combination(R.ring, [(f0, R)] + terms)


@per_chart
def fR_identities(ch):
    """Bracket identities for the discriminant-scaled modular field plus the
    degree-shift rule on sampled quasi-homogeneous scalings."""
    tr = sl2_triple(ch)
    R, F, Hf = tr.E, tr.F, tr.Hf
    w, _ = weights(ch)
    disc = ch.disc
    fR = R.scale(disc)
    # the degree of the discriminant in the H grading is n+2 except for
    # n = 2, where the doubled weight normalization makes it 2n+4
    kd = quasi_degree(disc, w)
    rows = [
        Row.compare("[fR, F] = f*H, f = disc",
                    fR.bracket(F), Hf.scale(disc)),
        Row.compare(f"[H, fR] = {kd + 2}*fR, f = disc",
                    Hf.bracket(fR), fR.scale(kd + 2)),
    ]
    t2 = "t2" if ch.n >= 2 else "t1"
    samples = [RatFn.var(ch.ring, "t1") ** 2,
               RatFn.var(ch.ring, t2) * RatFn.var(ch.ring, "t3"),
               RatFn.var(ch.ring, ch.base2)]
    for f in samples:
        k = quasi_degree(f, w)
        gR = R.scale(f)
        rows.append(Row.compare(f"[H, fR] = {k + 2}*fR, f = {f!r}",
                                Hf.bracket(gR), gR.scale(k + 2)))
    return BracketReport(rows)


def jacobi_ok(V, W, X):
    s = V.bracket(W).bracket(X) + W.bracket(X).bracket(V) \
        + X.bracket(V).bracket(W)
    return s.is_zero


def generator_rank(n, c=None):
    """Rank of the generator component matrix at a random admissible
    rational point; recorded as evidence, nothing is asserted from it."""
    import random

    rnd = random.Random(0)
    ch = resolve_chart(n, c)
    R, _ = modular_vf(ch)
    B = basis_vf(ch)
    fields = [R] + [B[p] for p in basis_pairs(n)]
    for _ in range(60):
        point = {v: Fraction(rnd.randint(1, 9), rnd.randint(1, 4))
                 for v in ch.ring.names}
        if ch.pivot_var is not None:
            # the point must satisfy pivot^2 = kappa*(t1^(n+2) - t_b): draw the
            # pivot, then solve the linear relation for t_b
            p = Fraction(rnd.randint(1, 9), rnd.randint(1, 4))
            point[ch.pivot_var] = p
            point[ch.base2] = (point["t1"] ** (n + 2)
                               - p * p / ch.kappa.eval(point))
        try:
            mat = [[RatFn.of(ch.ring, f.get(v).eval(point))
                    for v in ch.coords]
                   for f in fields]
        except ZeroDivisionError:
            continue
        rank = len(_gauss_jordan(mat, len(ch.coords)))
        return rank, len(fields), ch.d
    raise DworkError("no admissible random point found")
