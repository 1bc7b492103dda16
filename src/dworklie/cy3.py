"""Block-matrix model of the symmetry algebra attached to a threefold with
h independent deformation directions.

Everything lives at the level of frame matrices: the pairing has block shape
1 + h + h + 1, the algebra consists of block upper triangular matrices
antisymmetric for the pairing, and the h modular directions carry symmetric
coupling symbols Y_cij as formal variables.  The bracket table is verified
row by row; rows whose check needs the derived action of a field on the
coupling symbols are labeled "coupling", and the purely matrix rows are
labeled "constant".
"""

from __future__ import annotations

from functools import cache

from .errors import DworkError
from .liealg import BracketReport, Row
from .linalg import MatF
from .ratfn import RatFn
from .ring import Ring


def cy3_dims(h):
    """(frame size, algebra dimension, moduli dimension)."""
    if h < 1:
        raise DworkError("need at least one deformation direction")
    dim_g = (3 * h * h + 5 * h + 4) // 2
    return 2 * h + 2, dim_g, h + dim_g


def _indices(h, *idx):
    """The one naming rule for indices: run together while every index is
    one digit (h <= 9), joined by "_" from h = 10 on, so names stay unique."""
    return ("" if h <= 9 else "_").join(map(str, idx))


def ysym_name(h, a, b, c):
    """Name of the symmetric coupling symbol Y_abc."""
    return "Y" + _indices(h, *sorted((a, b, c)))


@cache
def _yring(h):
    """The coupling-symbol ring for h, one per process: the derived actions
    of verify_cy3_table are reused by cy3_sl2."""
    return Ring([ysym_name(h, a, b, c)
                 for a in range(1, h + 1)
                 for b in range(a, h + 1)
                 for c in range(b, h + 1)])


def ysym(h, ring, a, b, c):
    return RatFn.var(ring, ysym_name(h, a, b, c))


def cy3_phi(h, ring):
    N = 2 * h + 2
    phi = MatF.zeros(ring, N)
    one = RatFn.of(ring, 1)
    phi.set1(1, N, -one)
    phi.set1(N, 1, one)
    for i in range(1, h + 1):
        phi.set1(1 + i, h + 1 + i, one)
        phi.set1(h + 1 + i, 1 + i, -one)
    return phi


def basis_keys(h):
    """Canonical generator keys, grouped the way the table lists them."""
    keys = [("g0",)]
    keys += [("g", a, b) for a in range(1, h + 1) for b in range(1, h + 1)]
    keys += [("t2", a, b) for a in range(1, h + 1) for b in range(a, h + 1)]
    keys += [("t1", a) for a in range(1, h + 1)]
    keys += [("t0",)]
    keys += [("k", a) for a in range(1, h + 1)]
    return keys


def table_keys(h):
    """The basis keys followed by the h modular keys."""
    return basis_keys(h) + [("R", k) for k in range(1, h + 1)]


def key_name(h, key):
    kind = key[0]
    if kind == "g":
        return f"g{key[1]}_{key[2]}"
    if kind == "t2":
        return "t" + _indices(h, key[1], key[2])
    if kind == "t1":
        return f"t{key[1]}"
    if kind == "k":
        return f"k{key[1]}"
    if kind == "R":
        return f"R{key[1]}"
    return kind


def _disp(h, ring, key):
    """Frame matrix of the basis field named by key (the algebra element is
    its transpose)."""
    N = 2 * h + 2
    M = MatF.zeros(ring, N)
    one = RatFn.of(ring, 1)
    half = RatFn.of(ring, 1) / 2
    kind = key[0]
    if kind == "g0":
        M.set1(1, 1, -one)
        M.set1(N, N, one)
    elif kind == "g":
        a, b = key[1], key[2]
        M.set1(1 + a, 1 + b, -one)
        M.set1(h + 1 + b, h + 1 + a, one)
    elif kind == "t2":
        a, b = key[1], key[2]
        M.set1(h + 1 + a, 1 + b, M.get1(h + 1 + a, 1 + b) + half)
        M.set1(h + 1 + b, 1 + a, M.get1(h + 1 + b, 1 + a) + half)
    elif kind == "t1":
        a = key[1]
        M.set1(h + 1 + a, 1, -one)
        M.set1(N, 1 + a, one)
    elif kind == "t0":
        M.set1(N, 1, -one)
    elif kind == "k":
        a = key[1]
        M.set1(1 + a, 1, one)
        M.set1(N, h + 1 + a, one)
    else:
        raise DworkError(f"unknown generator key {key}")
    return M


def gm_modular(h, ring, k):
    """Frame matrix of the k-th modular field, carrying coupling symbols."""
    N = 2 * h + 2
    M = MatF.zeros(ring, N)
    one = RatFn.of(ring, 1)
    M.set1(1, 1 + k, one)
    M.set1(h + 1 + k, N, one)
    for i in range(1, h + 1):
        for j in range(1, h + 1):
            M.set1(1 + i, h + 1 + j, ysym(h, ring, k, i, j))
    return M


def _block_of(h, idx):
    if idx == 1:
        return 0
    if idx <= h + 1:
        return 1
    if idx <= 2 * h + 1:
        return 2
    return 3


def cy3_basis(h, ring=None):
    """Canonical algebra elements keyed by generator; construction checks
    the block triangularity, the pairing antisymmetry, and the dimension
    count."""
    ring = ring if ring is not None else _yring(h)
    phi = cy3_phi(h, ring)
    out = {}
    for key in basis_keys(h):
        g = _disp(h, ring, key).transpose()
        if any(_block_of(h, i) > _block_of(h, j) for (i, j), _ in g.entries()):
            raise DworkError(f"{key_name(h, key)} not block triangular")
        if not (g.transpose() @ phi + phi @ g).is_zero:
            raise DworkError(f"{key_name(h, key)} breaks the pairing")
        out[key] = g
    if len(out) != cy3_dims(h)[1]:
        raise DworkError("generator count mismatch")
    if not (phi @ phi + MatF.identity(ring, 2 * h + 2)).is_zero:
        raise DworkError("pairing does not square to minus one")
    return out


def bracket_claim(h, ring, v, w):
    """Table entry [V, W] as {generator key: coefficient}."""
    out = {}

    def add(key, coef):
        if key[0] == "t2" and key[1] > key[2]:
            key = ("t2", key[2], key[1])
        cur = out.get(key, RatFn.of(ring, 0))
        cur = cur + coef
        if cur.is_zero:
            out.pop(key, None)
        else:
            out[key] = cur

    one = RatFn.of(ring, 1)
    half = one / 2
    kv, kw = v[0], w[0]
    if kv == "g0":
        if kw == "t1":
            add(w, -one)
        elif kw == "t0":
            add(w, -2 * one)
        elif kw == "k":
            add(w, -one)
        elif kw == "R":
            add(w, one)
    elif kv == "g":
        a, b = v[1], v[2]
        if kw == "g":
            # the table prints 0 here; the commutator of the frame matrices
            # is nonzero whenever exactly one index pair matches
            d, c = w[1], w[2]
            if a == c:
                add(("g", d, b), -one)
            if b == d:
                add(("g", a, c), one)
        elif kw == "t2":
            c, d = w[1], w[2]
            if a == c:
                add(("t2", b, d), -one)
            if a == d:
                add(("t2", b, c), -one)
        elif kw == "t1":
            if a == w[1]:
                add(("t1", b), -one)
        elif kw == "k":
            if b == w[1]:
                add(("k", a), one)
        elif kw == "R":
            if a == w[1]:
                add(("R", b), -one)
    elif kv == "t2":
        a, b = v[1], v[2]
        if kw == "g":
            d, c = w[1], w[2]
            if a == d:
                add(("t2", b, c), one)
            if b == d:
                add(("t2", a, c), one)
        elif kw == "k":
            if a == w[1]:
                add(("t1", b), half)
            if b == w[1]:
                add(("t1", a), half)
        elif kw == "R":
            c = w[1]
            for d in range(1, h + 1):
                add(("g", d, a), -half * ysym(h, ring, c, b, d))
                add(("g", d, b), -half * ysym(h, ring, a, c, d))
    elif kv == "t1":
        a = v[1]
        if kw == "g0":
            add(v, one)
        elif kw == "g":
            if a == w[1]:
                add(("t1", w[2]), one)
        elif kw == "k":
            if a == w[1]:
                add(("t0",), 2 * one)
        elif kw == "R":
            c = w[1]
            add(("t2", a, c), 2 * one)
            for d in range(1, h + 1):
                add(("k", d), -ysym(h, ring, a, c, d))
    elif kv == "t0":
        if kw == "g0":
            add(v, 2 * one)
        elif kw == "R":
            add(("t1", w[1]), one)
    elif kv == "k":
        a = v[1]
        if kw == "g0":
            add(v, one)
        elif kw == "g":
            d, c = w[1], w[2]
            if a == c:
                add(("k", d), -one)
        elif kw == "t2":
            c, d = w[1], w[2]
            if a == c:
                add(("t1", d), -half)
            if a == d:
                add(("t1", c), -half)
        elif kw == "t1":
            if a == w[1]:
                add(("t0",), -2 * one)
        elif kw == "R":
            c = w[1]
            if a == c:
                add(("g0",), -one)
            add(("g", a, c), one)
    elif kv == "R":
        a = v[1]
        if kw == "g0":
            add(v, -one)
        elif kw == "g":
            d, c = w[1], w[2]
            if a == d:
                add(("R", c), one)
        elif kw == "t2":
            c, d = w[1], w[2]
            for e in range(1, h + 1):
                add(("g", e, c), half * ysym(h, ring, a, d, e))
                add(("g", e, d), half * ysym(h, ring, a, c, e))
        elif kw == "t1":
            c = w[1]
            add(("t2", a, c), -2 * one)
            for e in range(1, h + 1):
                add(("k", e), ysym(h, ring, a, c, e))
        elif kw == "t0":
            add(("t1", a), -one)
        elif kw == "k":
            c = w[1]
            if a == c:
                add(("g0",), one)
            add(("g", c, a), -one)
    return out


def _frames(h, ring):
    """Frame matrix of every table key."""
    gms = {key: g.transpose() for key, g in cy3_basis(h, ring).items()}
    for k in range(1, h + 1):
        gms[("R", k)] = gm_modular(h, ring, k)
    return gms


def _gm_of_combo(h, ring, gms, combo):
    return sum((gms[key].scale(coef) for key, coef in combo.items()),
               MatF.zeros(ring, 2 * h + 2))


def _pair_name(h, v, w):
    return f"[{key_name(h, v)}, {key_name(h, w)}]"


def verify_cy3_table(h):
    """Check every ordered pair of the bracket table at the frame-matrix
    level.  Constant pairs are exact commutator checks; pairs with one
    modular field determine the action of the other field on the coupling
    symbols, checked for support and cross-row consistency; modular pairs
    reduce to symmetry of the derivative tensor and only their matrix part
    is checked.  Each unordered pair takes one commutator: the reversed row
    checks its own claim against the negated matrix."""
    ring = _yring(h)
    gms = _frames(h, ring)
    keys = table_keys(h)
    first, table = [], {}
    actions = {}

    def claimed(v, w):
        return _gm_of_combo(h, ring, gms, bracket_claim(h, ring, v, w))

    # a basis field against a modular field fixes the action; all of it
    # that the reversed row reads is fixed by the same row
    for v in basis_keys(h):
        for k in range(1, h + 1):
            w = ("R", k)
            comm = gms[w].commutator(gms[v])
            why = _absorb_action(h, ring, actions, v, k, claimed(v, w) - comm)
            first.append(Row(_pair_name(h, v, w), not why, why, "coupling"))
            lhs = -_act_mat(h, ring, actions, v, gms[w]) - comm
            table[w, v] = Row(_pair_name(h, w, v), claimed(w, v) == lhs,
                              kind="coupling")
    for i, v in enumerate(keys):
        for w in keys[i:]:
            if (v[0] == "R") != (w[0] == "R"):
                continue  # the loop above covered it
            comm = gms[w].commutator(gms[v])
            sides = [(v, w, comm)] if v == w else \
                [(v, w, comm), (w, v, -comm)]
            for a, b, c in sides:
                if a[0] == "R":
                    # the matrix part vanishes by coupling symmetry; the
                    # rest is symmetry of the derivative tensor
                    table[a, b] = Row(
                        _pair_name(h, a, b),
                        c.is_zero and not bracket_claim(h, ring, a, b),
                        kind="integrability")
                else:
                    table[a, b] = Row(_pair_name(h, a, b),
                                      claimed(a, b) == c, kind="constant")
    rows = first + [table[v, w] for v in keys for w in keys
                    if (v, w) in table]
    return BracketReport(rows, actions)


def _absorb_action(h, ring, actions, v, k, resid):
    """Read the action of v on the coupling symbols off the residual matrix;
    outside the coupling block the residual must vanish, and revisited
    symbols must agree with what earlier rows fixed.  Returns the lines
    that show why the row fails, none when it holds."""
    why = []
    for (i, j), val in resid.entries():
        if not (2 <= i <= h + 1 and h + 2 <= j <= 2 * h + 1):
            return [f"residual off the coupling block at {(i, j)}"]
        yname = ysym_name(h, k, i - 1, j - h - 1)
        prev = actions.get((v, yname))
        if prev is None:
            actions[(v, yname)] = val
        elif prev != val:
            why.append(f"inconsistent action on {yname}")
    # symbols not touched by any cell act as zero; record explicitly so the
    # consistency check sees them on later rows
    for i in range(1, h + 1):
        for j in range(i, h + 1):
            yname = ysym_name(h, k, i, j)
            prev = actions.get((v, yname))
            if prev is None:
                actions[(v, yname)] = RatFn.of(ring, 0)
    return why


def _act_mat(h, ring, actions, vkey, M):
    """Entrywise action of the basis field vkey on a frame matrix through
    the derived coupling-symbol actions."""
    def act(entry):
        out = RatFn.of(ring, 0)
        if entry.is_const:
            return out
        for yname in entry.support():
            out = out + entry.derive(yname) * actions[(vkey, yname)]
        return out
    return M.map(act)


def cy3_sl2(h, report=None):
    """The h matrix-level triples: grading element g0 - g_kk, lowering
    element k_k, raising element the k-th modular field."""
    rep = report if report is not None else verify_cy3_table(h)
    if not rep.all_ok:
        raise DworkError("bracket table must verify before the triples")
    ring = _yring(h)
    gms = _frames(h, ring)
    rows = []
    for k in range(1, h + 1):
        Hc = {("g0",): RatFn.of(ring, 1), ("g", k, k): RatFn.of(ring, -1)}
        Ec = {("R", k): RatFn.of(ring, 1)}
        Fc = {("k", k): RatFn.of(ring, 1)}
        for name, V, W, target, scale_, kind in (
                (f"[H_{k}, F_{k}] = -2 F_{k}", Hc, Fc, Fc, -2, "constant"),
                (f"[H_{k}, E_{k}] = 2 E_{k}", Hc, Ec, Ec, 2, "coupling"),
                (f"[E_{k}, F_{k}] = H_{k}", Ec, Fc, Hc, 1, "coupling")):
            lhs = _rule_combo(h, ring, rep.actions, gms, V, W)
            rhs = _gm_of_combo(h, ring, gms, target).scale(
                RatFn.of(ring, scale_))
            rows.append(Row(name, lhs == rhs, kind=kind))
    return BracketReport(rows, rep.actions)


def _rule_combo(h, ring, actions, gms, V, W):
    """Frame matrix of [V, W] by the connection rule, for combinations of
    generators with constant coefficients."""
    gmV = _gm_of_combo(h, ring, gms, V)
    gmW = _gm_of_combo(h, ring, gms, W)
    vW = MatF.zeros(ring, 2 * h + 2)
    wV = MatF.zeros(ring, 2 * h + 2)
    for key, coef in V.items():
        if key[0] != "R":
            vW = vW + _act_mat(h, ring, actions, key, gmW).scale(coef)
    for key, coef in W.items():
        if key[0] != "R":
            wV = wV + _act_mat(h, ring, actions, key, gmV).scale(coef)
    return vW - wV + gmW.commutator(gmV)
