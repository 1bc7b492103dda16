"""Enhanced moduli chart: a geometry.Setup (coordinates, disc, pairing
scale) with the lower-triangular frame matrix S calibrated against the
moving pairing, S omega S^T = phi, its independent coordinates,
dependent-slot expressions, and (even n) the quadratic slot relation, onto
whose ring the chart moves itself (Setup.bind).  The calibration is solved
in its inverse form S^T phi^T S = Omega, Omega = omega^-1: each cell reads
two columns of S against one small entry of Omega, and no sum carries disc.

Slot layout rule (independent slots, row-major, skipping the index reserved
for the second base coordinate): (i, j) with j <= i, (i, j) != (1, 1), and
i + j <= n + 2 for odd n, i + j <= n + 1 for even n.  For even n the middle
diagonal slot holds one extra bound coordinate whose square the pairing fixes.
The rule reproduces the displayed layouts for n <= 5 and extrapolates beyond;
charts with n >= 6 are flagged."""

from __future__ import annotations

import functools
from fractions import Fraction

from .closedforms import matched_c
from .errors import DworkError, EliminationStuck
from .geometry import Setup, family_dims, frame_connection, pairing_form, \
    pairing_matrix
from .linalg import MatF, congruence_lower, solve_right_lower
from .ratfn import RatFn, dot, ratfn_string


def slot_layout(n):
    """(indep, pivot_slot, pivot_var): slot -> variable name assignments."""
    d, m, ncoords = family_dims(n)
    bound = n + 2 if n % 2 else n + 1
    indep = {}
    nxt = 2
    for i in range(2, n + 2):
        for j in range(1, i + 1):
            if i + j <= bound:
                if nxt == n + 2:
                    nxt += 1  # reserved for the second base coordinate
                indep[(i, j)] = f"t{nxt}"
                nxt += 1
    if n % 2:
        return indep, None, None
    used = {1, n + 2} | {int(v[1:]) for v in indep.values()}
    free = [k for k in range(1, ncoords + 1) if k not in used]
    if len(free) != 1:
        raise DworkError(f"layout miscount for n={n}: {free}")
    return indep, (m + 1, m + 1), f"t{free[0]}"


class Chart(Setup):
    """A Setup with its frame solved; built by build_chart and immutable
    afterwards by convention, except for memo, the one store of results
    computed from the chart, which each function wrapped by per_chart fills
    on first use.  The kept fields keep their Jacobians too
    (VecField.jacobian), so each is derived once per chart.  known maps the
    independent slots, then the pivot slot, to their coordinates."""

    __slots__ = ("S", "omega", "phi", "conn_base", "known", "pivot_var",
                 "dep_exprs", "kappa", "rule_extrapolated", "coords", "memo")

    def relation_string(self):
        if self.pivot_var is None:
            return None
        rel = self.kappa * self.disc
        return f"{self.pivot_var}^2 = {ratfn_string(rel)}"


def _frame(ring, slots):
    """The known entries of S: 1 at (1, 1) and a coordinate per slot."""
    entries = {(1, 1): RatFn.of(ring, 1)}
    entries.update((s, RatFn.var(ring, v)) for s, v in slots.items())
    return entries


def _inverse_pairing(omega):
    """Omega = omega^-1 by one right triangular solve: omega has zeros above
    its antidiagonal, so omega J (J the anti-identity) is lower triangular
    and Omega solves X (omega J) = J.  EliminationStuck if an antidiagonal
    entry of omega, and with it its determinant, is zero."""
    size = omega.nrows
    J = MatF.zeros(omega.ring, size)
    for i in range(1, size + 1):
        if omega.get1(i, size + 1 - i).is_zero:
            raise EliminationStuck(f"pairing matrix is singular: zero "
                                   f"antidiagonal entry ({i},{size + 1 - i})")
        J.set1(i, size + 1 - i, 1)
    (Omega,) = solve_right_lower([J], omega @ J)
    return Omega


def _cell_equation(ring, eps, entries, i, j):
    """Cell (i, j), i <= j, of S^T phi^T S = Omega, as
    sum_{k=i}^{n+2-j} eps_k S_ki S_{n+2-k,j} with eps_k = phi_{n+2-k,k}:
    the one unsolved slot it involves (None if every factor is known) and
    its constant and linear coefficients in that slot's value, each one
    ratfn.dot.  EliminationStuck if it involves two unsolved slots, or one
    slot as both factors of a product."""
    size = len(eps)
    known, coef, slots = [], [], set()
    for k in range(i, size + 2 - j):
        e, pa, pb = eps[k], (k, i), (size + 1 - k, j)
        a, b = entries.get(pa), entries.get(pb)
        if a is not None and b is not None:
            known.append((e * a, b))
            continue
        if pa == pb:
            raise EliminationStuck(f"equation ({i},{j}) is quadratic in "
                                   f"slot {pa}")
        if a is None:
            slots.add(pa)
            coef.append((e, b))
        if b is None:
            slots.add(pb)
            coef.append((e, a))
    if len(slots) > 1:
        raise EliminationStuck(
            f"equation ({i},{j}) involves {len(slots)} unsolved slots")
    return next(iter(slots), None), dot(ring, known), dot(ring, coef)


def _check_calibration(S, phi, omega, Omega):
    """Omega omega = I on every cell, and S^T phi^T S = Omega on the cells
    j <= i: together the calibration S omega S^T = phi, since phi^-1 =
    phi^T for the signed permutation phi.  Both sides of the second have
    omega's transpose type (omega^T = +-omega gives Omega^T = +-Omega, and
    phi^T = +-phi), so their cells above the diagonal mirror those below."""
    if Omega @ omega != MatF.identity(omega.ring, omega.nrows):
        raise EliminationStuck("inverse pairing check failed")
    if congruence_lower(S, phi.transpose()) != Omega.lower():
        raise EliminationStuck("final calibration identity failed")


def build_chart(n, c_value=None):
    """Solve every dependent slot of S from the pairing calibration
    S omega S^T = phi, read as S^T phi^T S = Omega with Omega = omega^-1
    (_inverse_pairing), which depends on t1, t_{n+2} and c alone and
    carries no disc in its denominators.

    Cell (i, j), i <= j and i + j <= n + 2, gives one equation
    (_cell_equation); off the diagonal its first factors S_ki lie in the
    independent part of S, and its second factors run down column j.  Taken
    by i + j, then i,
    descending, each equation meets at most one unsolved slot, (n+2-i, j),
    and must be linear in it (EliminationStuck otherwise); an equation with
    every factor known must hold as it stands.  For even n the middle cell
    reads S_cc^2 = Omega_cc (phi is all ones): that is the chart relation.
    Omega_cc = 1/omega_cc (omega J is lower triangular) and the t1
    recurrence makes omega_cc = (-1)^(n/2) scale / disc (Setup), so the
    relation comes from c alone: its ring is set first, everything is built
    once on it, and the middle cell checks it against Omega.  At c = 0 there
    is none, and _inverse_pairing refuses the singular pairing.  The
    calibration is re-checked at the end (_check_calibration)."""
    ch = Chart(n, c_value)
    size = n + 1
    indep, pivot_slot, pivot_var = slot_layout(n)
    known = dict(indep)
    kappa = None
    if pivot_slot is not None and not ch.c.is_zero:
        kappa = ch.scale.inverse() * (-1) ** (n // 2)
        rhs = kappa * ch.disc
        ch.bind(ch.ring.with_relation(pivot_var, rhs.num, rhs.den))
        kappa = kappa.lift(ch.ring)
        known[pivot_slot] = pivot_var
    conn = frame_connection(ch)
    omega = pairing_matrix(ch, conn)
    Omega = _inverse_pairing(omega)
    ring = ch.ring
    phi = pairing_form(ring, n)
    eps = {k: phi.get1(size + 1 - k, k) for k in range(1, size + 1)}
    entries = _frame(ring, known)
    dep_exprs = {}
    cells = sorted(((i, j) for j in range(1, size + 1)
                    for i in range(1, min(j, size + 1 - j) + 1)),
                   key=lambda p: (p[0] + p[1], p[0]), reverse=True)
    for (i, j) in cells:
        slot, c0, lin = _cell_equation(ring, eps, entries, i, j)
        if slot is None:
            if c0 != Omega.get1(i, j):
                raise EliminationStuck(
                    f"consistency failure at calibration cell ({i},{j})")
            continue
        if lin.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) does not see slot {slot}")
        entries[slot] = dep_exprs[slot] = (Omega.get1(i, j) - c0) / lin

    missing = [(i, j) for i in range(1, size + 1) for j in range(1, i + 1)
               if (i, j) not in entries]
    if missing:
        raise EliminationStuck(f"slots left unsolved: {missing}")
    S = MatF.zeros(ring, size)
    for (i, j), v in entries.items():
        S.set1(i, j, v)
    _check_calibration(S, phi, omega, Omega)

    ch.S, ch.omega, ch.phi = S, omega, phi
    ch.conn_base = conn
    ch.known, ch.pivot_var = known, pivot_var
    ch.dep_exprs = dep_exprs
    ch.kappa = kappa
    ch.rule_extrapolated = n >= 5
    ch.coords = tuple(f"t{i}" for i in range(1, ch.ncoords + 1))
    ch.memo = {}
    return ch


_CACHE = {}


def chart_of_ring(ring):
    """Chart whose coordinate ring is the given one.  Every chart comes out
    of the cache, so identity lookup is enough."""
    for ch in _CACHE.values():
        if ch.ring is ring:
            return ch
    raise DworkError("ring does not belong to any built chart")


def on_chart(ch, what, *values):
    """DworkError naming ch when one of the values, each a field, a
    connection, a RatFn or a plain number, lies on another ring than ch's."""
    if any(getattr(v, "ring", ch.ring) is not ch.ring for v in values):
        const = "c symbolic" if ch.c_value is None else f"c = {ch.c_value}"
        raise DworkError(f"{what} is not on the chart n = {ch.n}, {const}")


def resolve_chart(n, c=None):
    """Chart at a requested scaling constant, cached per (n, constant).  None
    picks the matched default, the string "sym" keeps the constant symbolic,
    anything else is coerced to Fraction(c), which keys the cache."""
    if c == "sym":
        c = None
    else:
        c = matched_c(n) if c is None else Fraction(c)
    if (n, c) not in _CACHE:
        _CACHE[n, c] = build_chart(n, c)
    return _CACHE[n, c]


def per_chart(fn):
    """fn(chart), computed once per chart and kept in chart.memo under fn's
    name; a call that raises keeps nothing.  The kept function takes the
    chart itself, or n and c as resolve_chart takes them."""
    name = fn.__name__

    def kept(n, c=None):
        ch = n if isinstance(n, Chart) else resolve_chart(n, c)
        if name not in ch.memo:
            ch.memo[name] = fn(ch)
        return ch.memo[name]

    functools.update_wrapper(kept, fn)
    del kept.__wrapped__  # kept's signature is (n, c), not fn's
    return kept
