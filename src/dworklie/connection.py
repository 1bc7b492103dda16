"""Full Gauss-Manin connection on a chart and the inverse solver that turns a
prescribed connection matrix into the unique vector field realizing it.

The connection comes from  A[v]*S = d_v S + S*B[v]  by a right triangular
solve against the lower-triangular S; no inverse of S is formed.

The solver follows the constructive existence argument: entries (1,1) and
(1,2) of  T*S = dS + S*B(H)  form a 2x2 linear system for the two base
components, each carrier slot of S hands out one remaining component by
direct readout, and every other entry is a consistency or tangency residue
that must vanish identically."""

from __future__ import annotations

from .errors import LinearInconsistent, NoSuchField
from .linalg import MatF, OneFormMat, VecField, solve_linear, \
    solve_right_lower
from .ratfn import RatFn


def _target_free(chart):
    """(S*B[v] per base direction v, the coordinate derivatives of each
    dependent-slot expression): the work full_connection and vf_from_target
    share across targets.  Computed once per chart and kept in its memo
    slot."""
    if chart.memo_solver is None:
        S = chart.S
        SB = {v: S @ B for v, B in chart.conn_base.comps.items()}
        coords = set(chart.coords)
        derivs = {}
        for slot, expr in chart.dep_exprs.items():
            ds = ((v, expr.derive(v)) for v in expr.support() if v in coords)
            derivs[slot] = {v: d for v, d in ds if not d.is_zero}
        chart.memo_solver = (SB, derivs)
    return chart.memo_solver


def full_connection(chart):
    """OneFormMat A over every chart variable, where A[v] solves
    A[v]*S = d_v S + S*B[v] and B[v] is zero except in the two base
    directions.  Computed once per chart and kept in its memo slot."""
    if chart.memo_conn is not None:
        return chart.memo_conn
    S = chart.S
    SB, _ = _target_free(chart)
    A = OneFormMat(chart.ring, chart.n + 1)
    for v in chart.coords:
        M = S.derive(v)
        if v in SB:
            M = M + SB[v]
        A.set(v, solve_right_lower(M, S))
    chart.memo_conn = A
    return A


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
        elif v == chart.setup.base2:
            comps[chart.pivot_var] = cb
        out.append(VecField(ring, comps))
    return out


def check_pairing_invariance(chart, A=None):
    """A*Phi + Phi*A^T = 0 as a one-form identity on the chart variety.

    For even n the pivot direction is not free: its differential is rewritten
    through the base differentials before the components are required to
    vanish."""
    if A is None:
        A = full_connection(chart)
    phi = chart.phi
    E = {v: A.get(v) @ phi + phi @ A.get(v).transpose()
         for v in chart.coords}
    if chart.pivot_var is not None:
        Ep = E.pop(chart.pivot_var)
        c1, cb = _pivot_corrections(chart)
        E["t1"] = E["t1"] + Ep.scale(c1)
        E[chart.setup.base2] = E[chart.setup.base2] + Ep.scale(cb)
    return all(M.is_zero for M in E.values())


def vf_from_target(chart, target):
    """The unique vector field H with contract(full_connection, H) = target.

    Raises NoSuchField when any consistency or tangency residue is nonzero;
    by uniqueness, zero residue is equivalent to existence."""
    ring = chart.ring
    n = chart.n
    TS = target @ chart.S
    SB, derivs = _target_free(chart)
    zeros = MatF.zeros(ring, n + 1)
    SB1 = SB.get("t1", zeros)
    SB2 = SB.get(chart.setup.base2, zeros)
    try:
        res = solve_linear(
            ring,
            [[SB1.get1(1, 1), SB2.get1(1, 1)],
             [SB1.get1(1, 2), SB2.get1(1, 2)]],
            [TS.get1(1, 1), TS.get1(1, 2)])
    except LinearInconsistent:
        raise NoSuchField("base 2x2 system is inconsistent") from None
    if not res.unique:
        raise NoSuchField("base 2x2 system is degenerate")
    dt1, dtb = res.values
    M = TS - SB1.scale(dt1) - SB2.scale(dtb)

    comps = {"t1": dt1, chart.setup.base2: dtb}
    for slot, var in chart.indep_slots.items():
        comps[var] = M.get1(*slot)
    if chart.pivot_slot is not None:
        comps[chart.pivot_var] = M.get1(*chart.pivot_slot)
    H = VecField(ring, comps)

    if chart.pivot_slot is not None:
        c1, cb = _pivot_corrections(chart)
        if H.get(chart.pivot_var) != c1 * dt1 + cb * dtb:
            raise NoSuchField("field is not tangent to the slot relation")

    handled = set(chart.indep_slots)
    if chart.pivot_slot is not None:
        handled.add(chart.pivot_slot)
    zero = RatFn.of(ring, 0)
    for (i, j), dexpr in derivs.items():
        # H applied to the slot's expression, from its cached derivatives
        got = zero
        for v, d in dexpr.items():
            g = H.comps.get(v)
            if g is not None:
                got = got + g * d
        if got != M.get1(i, j):
            raise NoSuchField(f"consistency residue at dependent slot ({i},{j})")
        handled.add((i, j))
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if (i, j) in handled:
                continue
            if not M.get1(i, j).is_zero:
                raise NoSuchField(f"nonzero residue at entry ({i},{j})")
    return H
