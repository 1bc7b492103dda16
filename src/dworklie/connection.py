"""Full Gauss-Manin connection on a chart and the inverse solver that turns a
prescribed connection matrix into the unique vector field realizing it.

The connection comes from  A[v]*S = d_v S + S*B[v]  by a right triangular
solve against the lower-triangular S; no inverse of S is formed.

The solver follows the constructive existence argument: entries (1,1) and
(1,2) of  T*S = dS + S*B(H)  form a 2x2 linear system for the two base
components, whose inverse is prepared once per chart; each carrier slot of
S hands out one remaining component by direct readout of M = T*S - S*B(H).
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

from collections import namedtuple

from .chart import per_chart
from .errors import NoSuchField
from .linalg import OneFormMat, VecField, combination, pairing_defect, \
    solve_right_lower
from .ratfn import RatFn, dot


SolverPrep = namedtuple("SolverPrep", "SB base_inv corrections")


@per_chart
def _target_free(chart):
    """The work full_connection and vf_from_target share across targets:
    SB, S*B[v] per base direction v; base_inv, the inverse of the 2x2 base
    system (_base_inverse); corrections, _pivot_corrections for even n and
    None for odd n.  No slot expression is derived (module docstring)."""
    S = chart.S
    SB = {v: S @ B for v, B in chart.conn_base.comps.items()}
    corrections = None if chart.pivot_var is None \
        else _pivot_corrections(chart)
    return SolverPrep(SB, _base_inverse(chart, SB), corrections)


def _base_inverse(chart, SB):
    """Entries (1,1) and (1,2) of T*S = dS + S*B(H) give
    [[a, b], [c, d]] (dt1, dt_{n+2}) = ((T*S)_11, (T*S)_12), with (a, c) the
    entries (1,1), (1,2) of S*B[t1] and (b, d) those of S*B[t_{n+2}].
    Returns the rows of the inverse, ((d, -b), (-c, a)) / (a*d - b*c), or
    None when the system is singular."""
    ring = chart.ring
    SB1, SB2 = SB.get("t1"), SB.get(chart.base2)
    if SB1 is None or SB2 is None:
        return None
    a, c = SB1.get1(1, 1), SB1.get1(1, 2)
    b, d = SB2.get1(1, 1), SB2.get1(1, 2)
    det = dot(ring, [(a, d), (-b, c)])
    if det.is_zero:
        return None
    r = det.inverse()
    return ((d * r, -b * r), (-c * r, a * r))


@per_chart
def full_connection(chart):
    """OneFormMat A over every chart variable, where A[v] solves
    A[v]*S = d_v S + S*B[v] and B[v] is zero except in the two base
    directions; one solve_right_lower call takes every v."""
    S = chart.S
    SB = _target_free(chart).SB
    Ms = [S.derive(v) + SB[v] if v in SB else S.derive(v)
          for v in chart.coords]
    return OneFormMat(chart.ring, chart.n + 1,
                      dict(zip(chart.coords, solve_right_lower(Ms, S))))


def _pivot_corrections(chart):
    """dt_D expressed through dt1 and dt_{n+2} on the relation variety."""
    td = RatFn.var(chart.ring, chart.pivot_var)
    t1 = RatFn.var(chart.ring, "t1")
    c1 = chart.kappa * (t1 ** (chart.n + 1)) * (chart.n + 2) / (td * 2)
    cb = -(chart.kappa / (td * 2))
    return c1, cb


def tangent_fields(chart):
    """Coordinate lifts spanning the tangent sheaf: d/dv per free coordinate,
    with the pivot component forced by the slot relation for even n."""
    ring = chart.ring
    if chart.pivot_var is None:
        return [VecField(ring, {v: 1}) for v in chart.coords]
    c1, cb = _pivot_corrections(chart)
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
    return all(pairing_defect(A.contract(H), chart.phi).is_zero
               for H in tangent_fields(chart))


def vf_from_target(chart, target):
    """The unique vector field H with contract(full_connection, H) = target.

    The base components solve the chart's prepared 2x2 system
    (_target_free); the rest is read off M = T*S - dt1*S*B[t1] -
    dt_{n+2}*S*B[t_{n+2}], one ratfn.dot per cell; neither M nor T*S is
    formed on the dependent slots.  Raises NoSuchField, in this order, when
    the base system is singular, H leaves the slot relation, an entry no
    slot reads is nonzero, or the target is not antisymmetric for the
    pairing; past these, H exists (module docstring)."""
    ring = chart.ring
    base2 = chart.base2
    prep = _target_free(chart)
    if prep.base_inv is None:
        raise NoSuchField("base 2x2 system is singular")
    TS = target.product(chart.S, chart.dep_exprs)
    rhs = (TS.get1(1, 1), TS.get1(1, 2))
    dt1, dtb = (dot(ring, zip(row, rhs)) for row in prep.base_inv)
    M = combination(ring, (chart.n + 1, chart.n + 1),
                    [(1, TS), (-dt1, prep.SB["t1"]), (-dtb, prep.SB[base2])],
                    chart.dep_exprs)

    comps = {"t1": dt1, base2: dtb}
    comps.update((var, M.get1(*slot)) for slot, var in chart.known.items())
    H = VecField(ring, comps)

    if chart.pivot_var is not None:
        c1, cb = prep.corrections
        if H.get(chart.pivot_var) != dot(ring, [(c1, dt1), (cb, dtb)]):
            raise NoSuchField("field is not tangent to the slot relation")

    handled = {*chart.known, *chart.dep_exprs}
    for (i, j), _ in M.entries():
        if (i, j) not in handled:
            raise NoSuchField(f"nonzero residue at entry ({i},{j})")
    defect = pairing_defect(target, chart.phi).entries()
    if defect:
        raise NoSuchField("target is not antisymmetric for the pairing at "
                          "cell ({},{})".format(*defect[0][0]))
    return H
