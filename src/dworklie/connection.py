"""Full Gauss-Manin connection on a chart and the inverse solver that turns a
prescribed connection matrix into the unique vector field realizing it.

The connection comes from  A[v]*S = d_v S + S*B[v]  by a right triangular
solve against the lower-triangular S; no inverse of S is formed, and no
other function forms S*B[v].

The solver follows the constructive existence argument: row 1 of S is
(1, 0, ..., 0), so entries (1,1) and (1,2) of  T*S = dS + S*B(H)  form a 2x2
system for the two base components whose coefficients are entries of B,
inverted once per chart; each carrier slot of S hands out one remaining
component by direct readout of M = T*S - S*B(H), B(H) formed per target.
Past the tangency check and the entries no slot reads, H exists exactly when
T*phi + phi*T^T = 0 (pairing_defect).  With D = M - H(S), phi^-1 = phi^T
and d omega = B*omega + omega*B^T (pairing_matrix checks it), the derivative
of S*omega*S^T = phi (build_chart checks it) along a tangent H reads
S^T phi^T D + D^T phi^T S = S^T phi^T (T*phi + phi*T^T) phi^T S.  Readout and
the entry check leave D on the dependent slots, where the left side is
build_chart's cell equations linearised, each meeting one unsolved slot with
a nonzero coefficient (lin); so an antisymmetric target gives D = 0, slot by
slot.  Conversely A(H) is antisymmetric (check_pairing_invariance)."""

from __future__ import annotations

from .chart import on_chart, per_chart
from .errors import NoSuchField
from .linalg import OneFormMat, VecField, pairing_defect, solve_right_lower
from .ratfn import RatFn, dot


@per_chart
def _base_inverse(chart):
    """Entries (1,1) and (1,2) of T*S = dS + S*B(H) give
    [[a, b], [c, d]] (dt1, dt_{n+2}) = ((T*S)_11, (T*S)_12), where (a, c)
    and (b, d) are entries (1,1), (1,2) of B[t1] and B[t_{n+2}], as row 1 of
    S is (1, 0, ..., 0).  Returns the rows of the inverse,
    ((d, -b), (-c, a)) / (a*d - b*c), or None when the system is singular."""
    B1, B2 = (chart.conn_base.get(v) for v in ("t1", chart.base2))
    a, c = B1.get1(1, 1), B1.get1(1, 2)
    b, d = B2.get1(1, 1), B2.get1(1, 2)
    det = dot(chart.ring, [(a, d), (-b, c)])
    if det.is_zero:
        return None
    r = det.inverse()
    return ((d * r, -b * r), (-c * r, a * r))


@per_chart
def full_connection(chart):
    """OneFormMat A over every chart variable, where A[v] solves
    A[v]*S = d_v S + S*B[v] and B[v] is zero except in the two base
    directions; one solve_right_lower call takes every v.  The products
    S*B[v] are formed here, in full, and nowhere else."""
    S, B = chart.S, chart.conn_base.comps
    Ms = [S.derive(v) + S @ B[v] if v in B else S.derive(v)
          for v in chart.coords]
    return OneFormMat(chart.ring, chart.n + 1,
                      dict(zip(chart.coords, solve_right_lower(Ms, S))))


@per_chart
def _pivot_corrections(chart):
    """dt_D expressed through dt1 and dt_{n+2} on the relation variety, as
    the pair of coefficients; None for odd n, which has no relation.  They
    are the relation t_D^2 = kappa*disc differentiated, 2*t_D*dt_D =
    d(kappa*disc) with disc = t1^(n+2) - t_{n+2}, spelled out so that a
    solve differentiates nothing (tests/test_connection.py checks them
    against (kappa*disc).derive(v) / (2*t_D))."""
    if chart.pivot_var is None:
        return None
    td, t1 = (RatFn.var(chart.ring, v) for v in (chart.pivot_var, "t1"))
    c1 = chart.kappa * (t1 ** (chart.n + 1)) * (chart.n + 2) / (td * 2)
    cb = -(chart.kappa / (td * 2))
    return c1, cb


def tangent_fields(chart):
    """Coordinate lifts spanning the tangent sheaf: d/dv per free coordinate,
    with the pivot component forced by the slot relation for even n."""
    ring = chart.ring
    corrections = _pivot_corrections(chart)
    if corrections is None:
        return [VecField(ring, {v: 1}) for v in chart.coords]
    c1, cb = corrections
    out = []
    for v in chart.coords:
        if v == chart.pivot_var:
            continue
        comps = {v: RatFn.of(ring, 1)}
        if v == "t1":
            comps[chart.pivot_var] = c1
        elif v == chart.base2:
            comps[chart.pivot_var] = cb
        out.append(VecField(ring, comps))
    return out


def check_pairing_invariance(chart, A=None):
    """A*Phi + Phi*A^T = 0 as a one-form identity on the chart variety: the
    contraction of A with every tangent field is antisymmetric.  For even n
    the pivot direction is not free, and tangent_fields rewrites its
    differential through the base differentials."""
    if A is None:
        A = full_connection(chart)
    on_chart(chart, "the connection", A)
    return all(pairing_defect(A.contract(H), chart.phi).is_zero
               for H in tangent_fields(chart))


def vf_from_target(chart, target):
    """The unique vector field H with contract(full_connection, H) = target.

    The base components solve the chart's 2x2 base system (_base_inverse).
    B(H) is the frame connection contracted with them, and the rest of H is
    read off M = T*S + S*(-B(H)).  Both products skip the dependent slots,
    so neither they nor their sum M form a dependent-slot cell.  Raises
    NoSuchField, in this order, when the base system is singular, H leaves
    the slot relation, an entry no slot reads is nonzero, or the target is
    not antisymmetric for the pairing; past these, H exists (module
    docstring)."""
    ring, S, skip = chart.ring, chart.S, chart.dep_exprs
    base_inv = _base_inverse(chart)
    if base_inv is None:
        raise NoSuchField("base 2x2 system is singular")
    TS = target.product(S, skip)
    rhs = (TS.get1(1, 1), TS.get1(1, 2))
    dt1, dtb = (dot(ring, zip(row, rhs)) for row in base_inv)
    comps = {"t1": dt1, chart.base2: dtb}
    BH = chart.conn_base.contract(VecField(ring, comps))
    M = TS + S.product(-BH, skip)

    comps.update((var, M.get1(*slot)) for slot, var in chart.known.items())
    H = VecField(ring, comps)

    corrections = _pivot_corrections(chart)
    if corrections is not None:
        c1, cb = corrections
        if H.get(chart.pivot_var) != dot(ring, [(c1, dt1), (cb, dtb)]):
            raise NoSuchField("field is not tangent to the slot relation")

    handled = {*chart.known, *skip}
    for (i, j), _ in M.entries():
        if (i, j) not in handled:
            raise NoSuchField(f"nonzero residue at entry ({i},{j})")
    defect = pairing_defect(target, chart.phi).entries()
    if defect:
        raise NoSuchField("target is not antisymmetric for the pairing at "
                          "cell ({},{})".format(*defect[0][0]))
    return H
