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
    the memo slots, which full_connection, modular_vf, basis_vf and
    sl2_triple fill on first use."""

    __slots__ = ("n", "d", "m", "rho", "ncoords", "setup", "ring", "S",
                 "omega", "phi", "conn_base", "indep_slots", "pivot_slot",
                 "pivot_var", "dep_exprs", "kappa", "disc",
                 "rule_extrapolated", "coords",
                 "memo_conn", "memo_modular", "memo_basis", "memo_sl2")

    def relation_string(self):
        if self.pivot_var is None:
            return None
        rel = self.kappa * self.disc
        return f"{self.pivot_var}^2 = {ratfn_string(rel)}"


def _entry_coeffs(omega, entries, i, j, unknown):
    """(S omega S^T)_{ij} as a polynomial in the value of the unknown slot:
    its (constant, linear, quadratic) coefficients.  Each product is filed
    by how many of its two frame factors are the unknown slot."""
    zero = RatFn.of(omega.ring, 0)
    coeffs = [zero, zero, zero]
    for k in range(1, i + 1):
        ka = (i, k) == unknown
        a = entries.get((i, k))
        if not ka and (a is None or a.is_zero):
            continue
        for l in range(1, j + 1):
            w = omega.get1(k, l)
            if w.is_zero:
                continue
            kb = (j, l) == unknown
            b = entries.get((j, l))
            if not kb and (b is None or b.is_zero):
                continue
            term = w if ka else a * w
            if not kb:
                term = term * b
            coeffs[ka + kb] = coeffs[ka + kb] + term
    return coeffs


def build_chart(n, c_value=None):
    """Solve every dependent slot of S from the pairing calibration.

    Equations (S omega S^T)_{ij} = phi_{ij} are processed over j <= i,
    i + j >= n + 2, ordered by (i + j, i); each nontrivial equation must be
    linear in exactly one unsolved slot (EliminationStuck otherwise).  The even
    middle-slot equation is quadratic in its own bound coordinate and becomes
    the chart relation."""
    setup = Setup(n, c_value)
    omega = pairing_matrix(setup)
    ring = setup.ring
    phi = pairing_form(ring, n)
    indep, pivot_slot, pivot_var = slot_layout(n)

    t1 = RatFn.var(ring, "t1")
    tb = RatFn.var(ring, setup.base2)
    disc = t1 ** (n + 2) - tb

    entries = {(1, 1): RatFn.of(ring, 1)}
    for slot, var in indep.items():
        entries[slot] = RatFn.var(ring, var)

    unsolved = set()
    for i in range(1, n + 2):
        for j in range(1, i + 1):
            if (i, j) not in entries and (i, j) != pivot_slot:
                unsolved.add((i, j))

    eqs = sorted(((i, j) for i in range(1, n + 2) for j in range(1, i + 1)
                  if i + j >= n + 2), key=lambda p: (p[0] + p[1], p[0]))

    kappa = None
    dep_exprs = {}

    for (i, j) in eqs:
        if (i, j) == pivot_slot:
            # middle equation: x^2 * omega_cc = 1 defines the slot relation
            c0, lin, quad = _entry_coeffs(omega, entries, i, j, (i, j))
            if quad.is_zero or not lin.is_zero or not c0.is_zero:
                raise EliminationStuck("middle slot equation is not purely quadratic")
            rhs = phi.get1(i, j) / quad
            kappa = rhs / disc
            bad = [nm for nm in kappa.support() if nm != "c"]
            if bad:
                raise EliminationStuck(f"relation scale depends on {bad}")
            ring2 = ring.with_relation(pivot_var, rhs.num, rhs.den)
            # migrate everything built so far
            entries = {s: v.lift(ring2) for s, v in entries.items()}
            dep_exprs = {s: v.lift(ring2) for s, v in dep_exprs.items()}
            omega = MatF(ring2, [[f.lift(ring2) for f in r] for r in omega.rows])
            phi = MatF(ring2, [[f.lift(ring2) for f in r] for r in phi.rows])
            setup = setup.rebind(ring2)
            ring = ring2
            t1 = RatFn.var(ring, "t1")
            tb = RatFn.var(ring, setup.base2)
            disc = t1 ** (n + 2) - tb
            kappa = kappa.lift(ring2)
            entries[pivot_slot] = RatFn.var(ring, pivot_var)
            continue

        occ = set()
        for k in range(1, i + 1):
            for l in range(1, j + 1):
                if omega.get1(k, l).is_zero:
                    continue
                a, b = (i, k), (j, l)
                av, bv = entries.get(a), entries.get(b)
                if (av is not None and av.is_zero) or \
                   (bv is not None and bv.is_zero):
                    continue
                if av is None:
                    occ.add(a)
                if bv is None:
                    occ.add(b)
        present = sorted(occ)
        if not present:
            val = _entry_coeffs(omega, entries, i, j, None)[0]
            if val != phi.get1(i, j):
                raise EliminationStuck(
                    f"consistency failure at calibration slot ({i},{j})")
            continue
        if len(present) > 1:
            raise EliminationStuck(
                f"equation ({i},{j}) involves {len(present)} unsolved slots")
        slot = present[0]
        c0, lin, quad = _entry_coeffs(omega, entries, i, j, slot)
        if not quad.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) is quadratic in slot {slot}")
        if lin.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) does not see slot {slot}")
        val = (phi.get1(i, j) - c0) / lin
        entries[slot] = val
        dep_exprs[slot] = val
        unsolved.discard(slot)

    if unsolved:
        raise EliminationStuck(f"slots left unsolved: {sorted(unsolved)}")

    S = MatF.zeros(ring, n + 1)
    for (i, j), v in entries.items():
        S.set1(i, j, v)

    # full calibration re-check
    if S @ omega @ S.transpose() != phi:
        raise EliminationStuck("final calibration identity failed")

    ch = Chart.__new__(Chart)
    ch.n, ch.d, ch.m, ch.rho = n, setup.d, setup.m, setup.rho
    ch.ncoords = setup.ncoords
    ch.setup, ch.ring = setup, ring
    ch.S, ch.omega, ch.phi = S, omega, phi
    ch.conn_base = frame_connection(setup)
    ch.indep_slots = indep
    ch.pivot_slot, ch.pivot_var = pivot_slot, pivot_var
    ch.dep_exprs = dep_exprs
    ch.kappa = kappa
    ch.disc = disc
    ch.rule_extrapolated = n >= 5
    ch.coords = tuple(f"t{i}" for i in range(1, setup.ncoords + 1))
    ch.memo_conn = ch.memo_modular = ch.memo_basis = ch.memo_sl2 = None
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
