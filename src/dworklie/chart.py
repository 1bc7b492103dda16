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


def _row_image(omega, size, entries, j):
    """The image (u, y) of row j of S against the size x size omega, given
    as the dict of its stored entries: u = omega s^T over the known entries
    s of the row, and y the column of the row's one unsolved slot (None once
    the row is complete).  EliminationStuck if more than one is unsolved."""
    row = [(l, entries.get((j, l))) for l in range(1, j + 1)]
    unsolved = [l for l, b in row if b is None]
    if len(unsolved) > 1:
        raise EliminationStuck(f"row {j} has {len(unsolved)} unsolved slots")
    known = [(l, b) for l, b in row if not (b is None or b.is_zero)]
    zero = RatFn.of(entries[1, 1].ring, 0)  # S_11 = 1 is always known
    u = []
    for k in range(1, size + 1):
        acc = zero
        for l, b in known:
            w = omega.get((k, l))
            if w is not None:
                acc = acc + w * b
        u.append(acc)
    return u, next(iter(unsolved), None)


def _equation(omega, sign, entries, image, i, j):
    """(S omega S^T)_{ij} = sum_k S_ik u[k] from the image (u, y) of row j:
    the one unsolved slot it involves (None if every factor is known) and
    its (constant, linear, quadratic) coefficients in that slot's value.
    An unsolved slot of row i enters linearly with coefficient u[k].  Only
    a diagonal equation may read an incomplete row: there the slot y also
    enters through omega^T = sign omega, adding sign u[y] to the linear and
    omega_yy to the quadratic coefficient."""
    u, y = image
    if y is not None and i != j:
        raise EliminationStuck(
            f"equation ({i},{j}) reads row {j} before slot ({j},{y}) is solved")
    zero = RatFn.of(u[0].ring, 0)
    c0, lin, quad = zero, zero, zero
    slots = set()
    for k in range(1, i + 1):
        w = u[k - 1]
        if w.is_zero:
            continue
        a = entries.get((i, k))
        if a is None:
            slots.add((i, k))
            lin = w
        elif not a.is_zero:
            c0 = c0 + a * w
    if y is not None:
        slots.add((i, y))
        lin = lin + sign * u[y - 1]
        quad = omega.get((y, y), zero)
    if len(slots) > 1:
        raise EliminationStuck(
            f"equation ({i},{j}) involves {len(slots)} unsolved slots")
    return next(iter(slots), None), (c0, lin, quad)


def _frame(ring, slots):
    """The known entries of S: 1 at (1, 1) and a coordinate per slot."""
    entries = {(1, 1): RatFn.of(ring, 1)}
    entries.update((s, RatFn.var(ring, v)) for s, v in slots.items())
    return entries


def build_chart(n, c_value=None):
    """Solve every dependent slot of S from the pairing calibration.

    Equations (S omega S^T)_{ij} = phi_{ij} are processed over j <= i,
    i + j >= n + 2, ordered by (i + j, i), each read through the image of
    row j (_row_image, cached per row); each nontrivial equation must be
    linear in exactly one unsolved slot (EliminationStuck otherwise).  A
    diagonal equation may solve the last slot of its own row, whose cached
    image is then completed in place.  For even n the first equation is the
    middle slot's, quadratic in its own bound coordinate: it becomes the
    chart relation, and the rest is solved in the relation ring.

    The identity S omega S^T = phi is re-checked at the end on every cell
    j <= i, with fresh images of the rows completed in place.  That is the
    whole identity: pairing_matrix checks omega^T = +-omega exactly, so
    (S omega S^T)^T = S omega^T S^T = +-S omega S^T, and phi has the same
    transpose type; the difference of the two sides has it too, and its
    cells above the diagonal mirror those below."""
    setup = Setup(n, c_value)
    conn = frame_connection(setup)
    omega = pairing_matrix(setup, conn)
    sign = -1 if setup.rho else 1  # omega^T = sign omega
    size = n + 1
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
        om = dict(omega.entries())
        entries = _frame(setup.ring, indep)
        image = _row_image(om, size, entries, pivot_slot[0])
        slot, (c0, lin, quad) = _equation(om, sign, entries, image,
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
        setup.bind(setup.ring.with_relation(pivot_var, rhs.num, rhs.den))
        conn = frame_connection(setup)
        kappa = kappa.lift(setup.ring)
        omega = omega.lift(setup.ring)
        known[pivot_slot] = pivot_var
    ring = setup.ring
    phi = pairing_form(ring, n)
    entries = _frame(ring, known)
    dep_exprs = {}
    images = {}  # j -> the image (u, y) of row j, once an equation reads it
    completed = set()  # rows whose cached image was completed in place
    om = dict(omega.entries())

    for (i, j) in eqs:
        if j not in images:
            images[j] = _row_image(om, size, entries, j)
        slot, (c0, lin, quad) = _equation(om, sign, entries, images[j], i, j)
        if slot is None:
            if c0 != phi.get1(i, j):
                raise EliminationStuck(
                    f"consistency failure at calibration slot ({i},{j})")
            continue
        if not quad.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) is quadratic in slot {slot}")
        if lin.is_zero:
            raise EliminationStuck(f"equation ({i},{j}) does not see slot {slot}")
        x = entries[slot] = dep_exprs[slot] = (phi.get1(i, j) - c0) / lin
        u, l = images[j]
        if l is not None:  # the diagonal solved the last slot of row j
            for k in range(1, size + 1):
                w = om.get((k, l))
                if w is not None:
                    u[k - 1] = u[k - 1] + x * w
            images[j] = (u, None)
            completed.add(j)

    missing = [(i, j) for i in range(1, n + 2) for j in range(1, i + 1)
               if (i, j) not in entries]
    if missing:
        raise EliminationStuck(f"slots left unsolved: {missing}")

    S = MatF.zeros(ring, size)
    for (i, j), v in entries.items():
        S.set1(i, j, v)

    # calibration re-check: S omega S^T = S U^T, with row j of U the image
    # u_j; rows completed in place are imaged afresh.  Both sides have the
    # transpose type of omega, so the cells j <= i carry the identity
    U = MatF(ring, [(_row_image(om, size, entries, j) if j in completed
                     else images[j])[0] for j in range(1, size + 1)])
    if S.lower_product(U.transpose()) != phi.lower():
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


def chart_of_ring(ring):
    """Chart whose coordinate ring is the given one.  Every chart comes out
    of the cache, so identity lookup is enough."""
    for ch in _CACHE.values():
        if ch.ring is ring:
            return ch
    raise DworkError("ring does not belong to any built chart")


def resolve_chart(n, c=None):
    """Chart at a requested scaling constant, cached per (n, constant).  None
    picks the matched default, the string "sym" keeps the constant symbolic,
    anything else is coerced to a rational value."""
    if c == "sym":
        c = None
    elif c is None:
        from .closedforms import matched_c
        c = matched_c(n)
    key = (n, c if c is None else str(c))
    if key not in _CACHE:
        _CACHE[key] = build_chart(n, c)
    return _CACHE[key]
