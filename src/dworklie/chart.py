"""Enhanced moduli chart: the lower-triangular frame matrix S whose rows are
calibrated against the moving pairing, with its independent coordinates,
dependent-slot expressions, and (even n) the quadratic slot relation.

Slot layout rule (independent slots, row-major, skipping the index reserved
for the second base coordinate): (i, j) with j <= i, (i, j) != (1, 1), and
i + j <= n + 2 for odd n, i + j <= n + 1 for even n.  For even n the middle
diagonal slot holds one extra bound coordinate whose square the pairing fixes.
The rule reproduces the displayed layouts for n <= 5 and extrapolates beyond;
charts with n >= 6 are flagged."""

from __future__ import annotations

from .errors import DworkError, EliminationStuck
from .geometry import Setup, family_dims, frame_connection, pairing_form, \
    pairing_matrix
from .linalg import MatF
from .ratfn import RatFn, ratfn_string


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


class Chart:
    """Built by build_chart; immutable afterwards by convention, except for
    the memo slots, which full_connection and vf_from_target (memo_solver),
    full_connection (memo_conn), modular_vf, basis_vf and sl2_triple fill on
    first use."""

    __slots__ = ("n", "d", "m", "rho", "ncoords", "setup", "ring", "S",
                 "omega", "phi", "conn_base", "indep_slots", "pivot_slot",
                 "pivot_var", "dep_exprs", "kappa", "disc",
                 "rule_extrapolated", "coords", "memo_solver",
                 "memo_conn", "memo_modular", "memo_basis", "memo_sl2")

    def relation_string(self):
        if self.pivot_var is None:
            return None
        rel = self.kappa * self.disc
        return f"{self.pivot_var}^2 = {ratfn_string(rel)}"


def _equation(omega, entries, i, j):
    """(S omega S^T)_{ij} read once: the one unsolved slot it involves (None
    if every factor is known) and its (constant, linear, quadratic)
    coefficients in that slot's value.  Products with a zero factor are
    skipped; each other product is filed by how many of its two frame
    factors are the unsolved slot."""
    zero = RatFn.of(omega.ring, 0)
    coeffs = [zero, zero, zero]
    slots = set()
    for k in range(1, i + 1):
        a = entries.get((i, k))
        if a is not None and a.is_zero:
            continue
        for l in range(1, j + 1):
            w = omega.get1(k, l)
            b = entries.get((j, l))
            if w.is_zero or (b is not None and b.is_zero):
                continue
            slots.update(s for s, v in (((i, k), a), ((j, l), b))
                         if v is None)
            if len(slots) > 1:
                continue
            term = w if a is None else a * w
            if b is not None:
                term = term * b
            deg = (a is None) + (b is None)
            coeffs[deg] = coeffs[deg] + term
    if len(slots) > 1:
        raise EliminationStuck(
            f"equation ({i},{j}) involves {len(slots)} unsolved slots")
    return next(iter(slots), None), coeffs


def _row_image(omega, entries, j):
    """u_j = omega S_j^T, once row j of S is complete (None before): every
    equation (i, j) is then  sum_{k <= i} S_ik u_j[k], i products."""
    row = [(l, entries.get((j, l))) for l in range(1, j + 1)]
    if any(b is None for _, b in row):
        return None
    zero = RatFn.of(omega.ring, 0)
    u = []
    for k in range(1, omega.nrows + 1):
        acc = zero
        for l, b in row:
            w = omega.get1(k, l)
            if not (w.is_zero or b.is_zero):
                acc = acc + w * b
        u.append(acc)
    return u


def _row_equation(entries, u, i, j):
    """_equation for an equation (i, j) whose row j is complete, from its
    cached image u = u_j: the unsolved slot, if any, sits in row i and
    enters linearly with coefficient u[k]."""
    zero = RatFn.of(u[0].ring, 0)
    c0, lin = zero, zero
    slots = []
    for k in range(1, i + 1):
        w = u[k - 1]
        if w.is_zero:
            continue
        a = entries.get((i, k))
        if a is None:
            slots.append((i, k))
            lin = w
        elif not a.is_zero:
            c0 = c0 + a * w
    if len(slots) > 1:
        raise EliminationStuck(
            f"equation ({i},{j}) involves {len(slots)} unsolved slots")
    return next(iter(slots), None), (c0, lin, zero)


def _frame(ring, slots):
    """The known entries of S: 1 at (1, 1) and a coordinate per slot."""
    entries = {(1, 1): RatFn.of(ring, 1)}
    entries.update((s, RatFn.var(ring, v)) for s, v in slots.items())
    return entries


def build_chart(n, c_value=None):
    """Solve every dependent slot of S from the pairing calibration.

    Equations (S omega S^T)_{ij} = phi_{ij} are processed over j <= i,
    i + j >= n + 2, ordered by (i + j, i); each nontrivial equation must be
    linear in exactly one unsolved slot (EliminationStuck otherwise).  For
    even n the first equation is the middle slot's, quadratic in its own
    bound coordinate: it becomes the chart relation, and the rest is solved
    in the relation ring."""
    setup = Setup(n, c_value)
    conn = frame_connection(setup)
    omega = pairing_matrix(setup, conn)
    indep, pivot_slot, pivot_var = slot_layout(n)
    eqs = sorted(((i, j) for i in range(1, n + 2) for j in range(1, i + 1)
                  if i + j >= n + 2), key=lambda p: (p[0] + p[1], p[0]))
    known = dict(indep)
    kappa = None
    if pivot_slot is not None:
        if eqs[0] != pivot_slot:
            raise EliminationStuck(
                f"first calibration equation {eqs[0]} is not the middle slot")
        eqs = eqs[1:]
        slot, (c0, lin, quad) = _equation(omega, _frame(setup.ring, indep),
                                          *pivot_slot)
        if slot != pivot_slot or quad.is_zero or not lin.is_zero \
                or not c0.is_zero:
            raise EliminationStuck("middle slot equation is not purely quadratic")
        # x^2 * omega_cc = phi_cc = 1 defines the slot relation
        rhs = 1 / quad
        kappa = rhs / setup.disc
        bad = [nm for nm in kappa.support() if nm != "c"]
        if bad:
            raise EliminationStuck(f"relation scale depends on {bad}")
        setup = setup.rebind(setup.ring.with_relation(pivot_var, rhs.num,
                                                      rhs.den))
        conn = frame_connection(setup)
        kappa = kappa.lift(setup.ring)
        omega = MatF(setup.ring,
                     [[f.lift(setup.ring) for f in r] for r in omega.rows])
        known[pivot_slot] = pivot_var
    ring = setup.ring
    phi = pairing_form(ring, n)
    entries = _frame(ring, known)
    dep_exprs = {}
    images = {}  # j -> u_j, for the rows of S already complete

    for (i, j) in eqs:
        if j not in images:
            u = _row_image(omega, entries, j)
            if u is not None:
                images[j] = u
        if j in images:
            slot, (c0, lin, quad) = _row_equation(entries, images[j], i, j)
        else:
            slot, (c0, lin, quad) = _equation(omega, entries, i, j)
        if slot is None:
            if c0 != phi.get1(i, j):
                raise EliminationStuck(
                    f"consistency failure at calibration slot ({i},{j})")
            continue
        if not quad.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) is quadratic in slot {slot}")
        if lin.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) does not see slot {slot}")
        entries[slot] = dep_exprs[slot] = (phi.get1(i, j) - c0) / lin

    missing = [(i, j) for i in range(1, n + 2) for j in range(1, i + 1)
               if (i, j) not in entries]
    if missing:
        raise EliminationStuck(f"slots left unsolved: {missing}")

    S = MatF.zeros(ring, n + 1)
    for (i, j), v in entries.items():
        S.set1(i, j, v)

    # full calibration re-check: S omega S^T = S U^T, with row j of U = u_j
    U = MatF(ring, [images.get(j) or _row_image(omega, entries, j)
                    for j in range(1, n + 2)])
    if S @ U.transpose() != phi:
        raise EliminationStuck("final calibration identity failed")

    ch = Chart.__new__(Chart)
    ch.n, ch.d, ch.m, ch.rho = n, setup.d, setup.m, setup.rho
    ch.ncoords = setup.ncoords
    ch.setup, ch.ring = setup, ring
    ch.S, ch.omega, ch.phi = S, omega, phi
    ch.conn_base = conn
    ch.indep_slots = indep
    ch.pivot_slot, ch.pivot_var = pivot_slot, pivot_var
    ch.dep_exprs = dep_exprs
    ch.kappa = kappa
    ch.disc = setup.disc
    ch.rule_extrapolated = n >= 5
    ch.coords = tuple(f"t{i}" for i in range(1, setup.ncoords + 1))
    ch.memo_solver = ch.memo_conn = None
    ch.memo_modular = ch.memo_basis = ch.memo_sl2 = None
    return ch


_CACHE = {}


def chart_for(n, c_value=None):
    """Cached chart per (n, pinned constant)."""
    key = (n, c_value if c_value is None else str(c_value))
    if key not in _CACHE:
        _CACHE[key] = build_chart(n, c_value)
    return _CACHE[key]


def chart_of_ring(ring):
    """Chart whose coordinate ring is the given one.  Every chart comes out
    of the cache, so identity lookup is enough."""
    for ch in _CACHE.values():
        if ch.ring is ring:
            return ch
    raise DworkError("ring does not belong to any built chart")


def resolve_chart(n, c=None):
    """Chart at a requested scaling constant.  None picks the matched
    default, the string "sym" keeps the constant symbolic, anything else is
    coerced to a rational value."""
    from .closedforms import matched_c
    if c == "sym":
        return chart_for(n, None)
    if c is None:
        c = matched_c(n)
    return chart_for(n, c)
