"""Symmetry group of the framed family: canonical Lie-algebra basis,
one-parameter subgroup factors, assembled group elements, the right action on
chart coordinates, and the infinitesimal fields of that action.

Parameter i moves along exp(t*g) for one basis matrix g = g_ab, whose cells
one rule gives (gen_cells).  Elements are kept in factored normal form: the
multiplicative (diagonal) factors first, then one unipotent factor per
additive subgroup in lexicographic index order.  One working matrix is built: the diagonal part is set at once,
then each nonzero additive factor I + D (factor_delta) is applied in place
(MatF.apply_factor).  ``decompose_elem`` peels a copy in the same order, the
diagonal part as one row scaling, and verifies the peel by an identity
end-check rather than trusting it."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .chart import per_chart, resolve_chart
from .errors import ActionShapeViolation, DworkError, ZeroScalar
from .geometry import family_dims, pairing_form
from .linalg import MatF, VecField, congruence_lower, pairing_defect
from .ratfn import RatFn


def basis_pairs(n):
    """Index pairs (a,b) of the canonical Lie-algebra basis."""
    _, m, _ = family_dims(n)
    return [(a, b) for a in range(1, m + 1)
            for b in range(a, 2 * m + 2 - a)]


@cache
def gen_cells(n, a, b):
    """The +-1 cells of the basis matrix g_ab: ((a, b), 1) first, then its
    mirror (n+2-b, n+2-a), unless the mirror is (a, b) itself."""
    if (a, b) not in basis_pairs(n):
        raise IndexError(f"basis indices ({a},{b}) out of range for n={n}")
    _, m, _ = family_dims(n)
    mirror = (n + 2 - b, n + 2 - a)
    if mirror == (a, b):
        return (((a, b), 1),)
    return (((a, b), 1), (mirror, 1 if n % 2 and b >= m + 1 else -1))


def lie_gen(n, a, b, ring):
    """Constant basis matrix g_ab over ring, set from gen_cells."""
    M = MatF._of(ring, n + 1, n + 1, ((rc, RatFn.of(ring, x))
                                      for rc, x in gen_cells(n, a, b)))
    if not pairing_defect(M.transpose(), pairing_form(ring, n)).is_zero:
        raise DworkError(f"basis matrix ({a},{b}) violates the pairing identity")
    return M


@cache
def param_pair(n, i):
    """Basis pair of 1-based parameter i: the m diagonal (multiplicative)
    pairs first, then the additive ones in basis order."""
    pairs = sorted(basis_pairs(n), key=lambda p: p[0] != p[1])
    if not 1 <= i <= len(pairs):
        raise IndexError(f"parameter index {i} out of range for n={n}")
    return pairs[i - 1]


def subgroup_counts(n):
    """(multiplicative, additive) subgroup counts."""
    _, m, _ = family_dims(n)
    return m, len(basis_pairs(n)) - m


def _diagonal(n, a, gamma):
    """exp(t*g_aa) at gamma = e^-t: gamma^-x on each diagonal cell x."""
    if gamma.is_zero:
        raise ZeroScalar(f"multiplicative parameter {a} is zero")
    inv = gamma.inverse()
    return [(rc, inv if x == 1 else gamma) for rc, x in gen_cells(n, a, a)]


def factor_delta(n, i, gamma, ring):
    """exp(t*g) - I for the generator g of parameter i: t*g + (t*g)^2/2,
    with gamma at g's last cell, or gamma^-x - 1 on a diagonal cell x.  At
    most three cells, so M.apply_factor(D) applies the factor in place."""
    a, b = param_pair(n, i)
    gamma = gamma if isinstance(gamma, RatFn) else RatFn.of(ring, gamma)
    if a == b:
        cells = [(rc, v - 1) for rc, v in _diagonal(n, a, gamma)]
    else:
        cells = gen_cells(n, a, b)
        last = cells[-1][1]
        cells = [(rc, gamma if x == last else -gamma) for rc, x in cells]
        (p, q), u = cells[0]
        (r, s), v = cells[-1]
        if q == r:  # (t*g)^2: only first-by-last can be nonzero
            cells.append(((p, s), u * v / 2))
    return MatF._of(ring, n + 1, n + 1, cells)


class GroupElem:
    """Group element assembled from its subgroup parameters."""

    __slots__ = ("n", "ring", "params", "matrix")

    def __init__(self, n, ring, params, matrix):
        self.n = n
        self.ring = ring
        self.params = params
        self.matrix = matrix

    def __repr__(self):
        return f"GroupElem(n={self.n}, params={self.params})"


@per_chart
def _phi_lower(ch):
    return ch.phi.lower()


def group_elem(n, params, c=None, ring=None):
    """Assemble an element from d-1 parameters (multiplicative ones first).

    Raises ZeroScalar on a vanishing multiplicative parameter.  The pairing
    invariance M^T phi M = phi of the assembled matrix is checked, not
    assumed, on the cells j <= i: phi^T = +-phi holds by construction, so
    (M^T phi M)^T = M^T phi^T M = +-M^T phi M, and the cells above the
    diagonal of both sides mirror those below.
    """
    d, m, _ = family_dims(n)
    if len(params) != d - 1:
        raise IndexError(f"expected {d - 1} parameters, got {len(params)}")
    if ring is None:
        ch = resolve_chart(n, c)
        ring, phi, phi_lower = ch.ring, ch.phi, _phi_lower(ch)
    else:
        phi = pairing_form(ring, n)
        phi_lower = phi.lower()
    vals = [p if isinstance(p, RatFn) else RatFn.of(ring, p) for p in params]
    M = MatF.identity(ring, n + 1)
    for a, gamma in enumerate(vals[:m], start=1):
        for rc, v in _diagonal(n, a, gamma):
            M.set1(*rc, v)
    for i, gamma in enumerate(vals[m:], start=m + 1):
        if not gamma.is_zero:
            M.apply_factor(factor_delta(n, i, gamma, ring))
    if congruence_lower(M, phi) != phi_lower:
        raise DworkError("assembled element does not preserve the pairing")
    return GroupElem(n, ring, vals, M)


@per_chart
def symbolic_elem(ch):
    """Fully symbolic element over the chart ring extended by parameters
    g1..g_{d-1}; kept per chart, with its ring."""
    names = tuple(f"g{i}" for i in range(1, ch.d))
    ring = ch.ring.extend(names)
    return group_elem(ch.n, [RatFn.var(ring, nm) for nm in names], ring=ring)


def compose(g, h):
    """Product element; parameters recovered by decomposition."""
    if g.ring is not h.ring:
        raise DworkError("elements live over different rings")
    M = g.matrix @ h.matrix
    params = decompose_elem(g.n, M)
    return GroupElem(g.n, g.ring, params, M)


def decompose_elem(n, M):
    """Recover subgroup parameters from an assembled matrix.

    Diagonal entries give the multiplicative parameters directly; the
    unipotent remainder is peeled greedily in assembly order.  The peel must
    end at the identity matrix or the input was not in the group."""
    d, m, _ = family_dims(n)
    ring = M.ring
    params, rows = [], {}
    for a in range(1, m + 1):
        cells = gen_cells(n, a, a)
        gamma = M.get1(*cells[-1][0])
        if gamma.is_zero:
            raise ZeroScalar(f"diagonal entry for subgroup {a} is zero")
        params.append(gamma)
        inv = gamma.inverse()
        rows.update((r, gamma if x == 1 else inv) for (r, _), x in cells)
    U = M.scale_rows(rows)
    for i in range(m + 1, d):
        gamma = U.get1(*gen_cells(n, *param_pair(n, i))[-1][0])
        params.append(gamma)
        if not gamma.is_zero:
            U.apply_factor(factor_delta(n, i, -gamma, ring), left=True)
    if U != MatF.identity(ring, n + 1):
        raise DworkError("matrix is not a product of the subgroup factors")
    return params


def act(n, g=None, c=None):
    """Right action on chart coordinates.

    Returns {var: formula} over the ring of g, the kept symbolic_elem by
    default.  The moved frame is checked against the chart normal form:
    unit corner, lower triangularity, dependent-slot equations, and the
    quadratic relation."""
    ch = resolve_chart(n, c)
    return _symbolic_action(ch) if g is None else _moved(ch, g)


@per_chart
def _symbolic_action(ch):
    return _moved(ch, symbolic_elem(ch))


def _moved(ch, g):
    """act's checked formulas for the element g."""
    n, ring = ch.n, g.ring
    S = ch.S if ring is ch.ring else ch.S.lift(ring)
    g1 = g.matrix.get1(n + 1, n + 1)
    D = MatF.zeros(ring, n + 1)
    for k in range(1, n + 2):
        D.set1(k, k, g1 ** k)
    Sp = g.matrix.transpose() @ S @ D
    if Sp.get1(1, 1) != RatFn.of(ring, 1):
        raise ActionShapeViolation("moved frame has a non-unit corner")
    for (i, j), _ in Sp.entries():
        if j > i:
            raise ActionShapeViolation(
                f"moved frame is not lower triangular at ({i},{j})")
    new = {
        "t1": RatFn.var(ring, "t1") * g1,
        ch.base2: RatFn.var(ring, ch.base2) * g1 ** (n + 2),
    }
    new.update((var, Sp.get1(*slot)) for slot, var in ch.known.items())
    for (i, j), expr in ch.dep_exprs.items():
        want = expr.lift(ring).subs(new)
        if Sp.get1(i, j) != want:
            raise ActionShapeViolation(
                f"dependent slot ({i},{j}) broke its defining equation")
    if ch.pivot_var is not None:
        kap = ch.kappa.lift(ring)
        lhs = new[ch.pivot_var] ** 2
        rhs = kap * (new["t1"] ** (n + 2) - new[ch.base2])
        if lhs != rhs:
            raise ActionShapeViolation("moved point violates the relation")
    return new


def infinitesimal(n, i, c=None):
    """Derivative of the action along parameter i at the identity element."""
    ch = resolve_chart(n, c)
    a, b = param_pair(n, i)
    ring = ch.ring.extend(("gp",))
    gamma = RatFn.var(ring, "gp")
    mult, add = subgroup_counts(n)
    params = [RatFn.of(ring, 1)] * mult + [RatFn.of(ring, 0)] * add
    params[i - 1] = gamma
    g = group_elem(n, params, ring=ring)
    formulas = act(n, g=g, c=c)
    center = Fraction(1 if a == b else 0)
    comps = {}
    for v, rf in formulas.items():
        dv = rf.derive("gp").subs({"gp": center})
        comps[v] = dv.lift(ch.ring)
    return VecField(ch.ring, comps)
