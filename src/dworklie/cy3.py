"""Block-matrix model of the symmetry algebra attached to a threefold with
h independent deformation directions: the algebra of Alim, Movasati,
Scheidegger and Yau (Gauss-Manin connection in disguise: Calabi-Yau
threefolds, Comm. Math. Phys. 344, 2016).

Everything lives at the level of frame matrices: the pairing has block shape
1 + h + h + 1, the algebra consists of block upper triangular matrices
antisymmetric for the pairing, and the h modular directions carry symmetric
coupling symbols Y_cij as formal variables.  One rule, frame_cells, says
which cell of which frame holds what; _frames sets every frame from it once
per h, and cy3_basis gives the algebra elements as their transposes.  The
bracket table is verified row by row; rows whose check needs the derived
action of a field on the coupling symbols are labeled "coupling", and the
purely matrix rows are labeled "constant".
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache

from .errors import DworkError
from .liealg import BracketReport, Row
from .linalg import MatF, VecField, combination, pairing_defect
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


# generator kinds in table order; bracket_claim writes one order of each pair
KINDS = ("g0", "g", "t2", "t1", "t0", "k", "R")


def basis_keys(h):
    """Canonical generator keys, grouped by kind in KINDS order."""
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


def frame_cells(h, key):
    """The frame of a table key as cells ((i, j), x), x a number or, in a
    modular frame's coupling block, the ysym_name of the symbol in that
    cell.  The one place a threefold frame is spelled: _frames sets every
    frame from it.  A basis key's algebra element is its frame's transpose."""
    N = 2 * h + 2
    kind = key[0]
    if kind == "g0":
        return (((1, 1), -1), ((N, N), 1))
    if kind == "g":
        a, b = key[1], key[2]
        return (((1 + a, 1 + b), -1), ((h + 1 + b, h + 1 + a), 1))
    if kind == "t2":
        a, b = key[1], key[2]
        if a == b:
            return (((h + 1 + a, 1 + a), 1),)
        half = Fraction(1, 2)
        return (((h + 1 + a, 1 + b), half), ((h + 1 + b, 1 + a), half))
    if kind == "t1":
        a = key[1]
        return (((h + 1 + a, 1), -1), ((N, 1 + a), 1))
    if kind == "t0":
        return (((N, 1), -1),)
    if kind == "k":
        a = key[1]
        return (((1 + a, 1), 1), ((N, h + 1 + a), 1))
    if kind == "R":
        k = key[1]
        return (((1, 1 + k), 1), ((h + 1 + k, N), 1)) + _coupling_cells(h, k)
    raise DworkError(f"unknown generator key {key}")


def _coupling_cells(h, k):
    """The coupling block of R_k's frame as cells ((i, j), name): the
    symbol Y_kab at (1 + a, h + 1 + b), a and b in 1..h."""
    return tuple(((1 + a, h + 1 + b), ysym_name(h, k, a, b))
                 for a in range(1, h + 1) for b in range(1, h + 1))


@cache
def _frames(h):
    """Frame matrix of every table key, set from frame_cells once per h,
    over the coupling ring _yring(h).  Construction checks that phi squares
    to minus one, that every basis frame is block lower triangular and
    antisymmetric for the pairing, and the generator count."""
    ring = _yring(h)
    N = 2 * h + 2
    phi = cy3_phi(h, ring)
    if not (phi @ phi + MatF.identity(ring, N)).is_zero:
        raise DworkError("pairing does not square to minus one")
    # bisect_left(ends, i) is the block of index i: 0, 1, 2, 3 for the
    # 1 + h + h + 1 block shape
    ends = (1, h + 1, 2 * h + 1)
    frames = {}
    for key in table_keys(h):
        cells = frame_cells(h, key)
        M = frames[key] = MatF.zeros(ring, N)
        for (i, j), x in cells:
            M.set1(i, j, RatFn.var(ring, x) if isinstance(x, str) else x)
        if key[0] == "R":
            continue
        if any(bisect_left(ends, i) < bisect_left(ends, j)
               for (i, j), _ in cells):
            raise DworkError(f"{key_name(h, key)} not block triangular")
        if not pairing_defect(M, phi).is_zero:
            raise DworkError(f"{key_name(h, key)} breaks the pairing")
    if len(frames) != cy3_dims(h)[2]:
        raise DworkError("generator count mismatch")
    return frames


def cy3_basis(h):
    """Canonical algebra elements keyed by generator, over the coupling
    ring _yring(h): the transposed basis frames of _frames(h)."""
    return {key: M.transpose() for key, M in _frames(h).items()
            if key[0] != "R"}


def bracket_claim(h, ring, v, w):
    """Table entry [V, W] as {generator key: coefficient}.  The bracket is
    antisymmetric, so each entry is written once, for V's kind at or before
    W's in KINDS, and the other order is the negated entry.  The claim is
    still checked in both orders (see verify_cy3_table)."""
    if KINDS.index(v[0]) > KINDS.index(w[0]):
        return {key: -c for key, c in bracket_claim(h, ring, w, v).items()}
    out = {}

    def add(key, coef):
        if key[0] == "t2" and key[1] > key[2]:
            key = ("t2", key[2], key[1])
        cur = out.get(key)
        cur = coef if cur is None else cur + coef
        if cur.is_zero:
            out.pop(key, None)
        else:
            out[key] = cur

    one = RatFn.of(ring, 1)
    half = RatFn.of(ring, Fraction(1, 2))
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
        if kw == "k":
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
        if kw == "k":
            if a == w[1]:
                add(("t0",), 2 * one)
        elif kw == "R":
            c = w[1]
            add(("t2", a, c), 2 * one)
            for d in range(1, h + 1):
                add(("k", d), -ysym(h, ring, a, c, d))
    elif kv == "t0":
        if kw == "R":
            add(("t1", w[1]), one)
    elif kv == "k":
        if kw == "R":
            a, c = v[1], w[1]
            if a == c:
                add(("g0",), -one)
            add(("g", a, c), one)
    return out


def _gm_of_combo(h, ring, gms, combo):
    """Frame matrix of sum_key coef * generator over the combo."""
    return combination(ring, (2 * h + 2, 2 * h + 2),
                       ((coef, gms[key]) for key, coef in combo.items()))


def _pair_name(h, v, w):
    return f"[{key_name(h, v)}, {key_name(h, w)}]"


def verify_cy3_table(h):
    """Check every ordered pair of the bracket table at the frame-matrix
    level.  Constant pairs are exact commutator checks; pairs with one
    modular field determine the action of the other field on the coupling
    symbols, checked for support and cross-row consistency; modular pairs
    reduce to symmetry of the derivative tensor and only their matrix part
    is checked.  Each unordered pair takes one commutator: the reversed row
    checks its own claim against the negated matrix.  bracket_claim writes
    the table in one order and negates it for the other, yet every row is
    computed, so a wrong entry fails both its rows; a reversed coupling row
    [R_k, v] is the only check that the action absorbed from [v, R_k] gives
    that row's whole residual, as _absorb_action skips zero residual cells."""
    ring = _yring(h)
    gms = _frames(h)
    keys = table_keys(h)
    first, table = [], {}
    actions = {}

    def claimed(v, w):
        return _gm_of_combo(h, ring, gms, bracket_claim(h, ring, v, w))

    # a basis field against the modular fields fixes its action, which the
    # reversed rows then read
    for v in basis_keys(h):
        act, comms = {}, {}
        for k in range(1, h + 1):
            w = ("R", k)
            comm = comms[k] = gms[w].commutator(gms[v])
            why = _absorb_action(h, ring, act, k, claimed(v, w) - comm)
            first.append(Row(_pair_name(h, v, w), not why, why, "coupling"))
        actions[v] = VecField(ring, act)
        for k, comm in comms.items():
            w = ("R", k)
            lhs = -actions[v].apply_mat(gms[w]) - comm
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


def _absorb_action(h, ring, act, k, resid):
    """Read the action on the coupling symbols Y_k.. into act ({symbol:
    value}) off the residual matrix of the row against the k-th modular
    field; outside the coupling block, the cells of R_k's frame that hold
    a symbol (_coupling_cells, as frame_cells spells them), the residual
    must vanish, and revisited symbols must agree with what earlier rows
    fixed.  Returns the lines that show why the row fails, none when it
    holds."""
    block = dict(_coupling_cells(h, k))
    why = []
    for cell, val in resid.entries():
        if cell not in block:
            return [f"residual off the coupling block at {cell}"]
        prev = act.setdefault(block[cell], val)
        if prev != val:
            why.append(f"inconsistent action on {block[cell]}")
    # symbols not touched by any cell act as zero; record explicitly so the
    # consistency check sees them on later rows
    for yname in block.values():
        act.setdefault(yname, RatFn.of(ring, 0))
    return why


def cy3_sl2(h, report):
    """The h matrix-level triples: grading element g0 - g_kk, lowering
    element k_k, raising element the k-th modular field, read off the
    report of verify_cy3_table(h); DworkError for a report of another h."""
    if set(report.actions or ()) != set(basis_keys(h)):
        raise DworkError(f"the report was built for another h than h = {h}")
    if not report.all_ok:
        raise DworkError("bracket table must verify before the triples")
    ring = _yring(h)
    gms = _frames(h)
    rows = []
    for k in range(1, h + 1):
        Hc = {("g0",): RatFn.of(ring, 1), ("g", k, k): RatFn.of(ring, -1)}
        Ec = {("R", k): RatFn.of(ring, 1)}
        Fc = {("k", k): RatFn.of(ring, 1)}
        for name, V, W, target, scale_, kind in (
                (f"[H_{k}, F_{k}] = -2 F_{k}", Hc, Fc, Fc, -2, "constant"),
                (f"[H_{k}, E_{k}] = 2 E_{k}", Hc, Ec, Ec, 2, "coupling"),
                (f"[E_{k}, F_{k}] = H_{k}", Ec, Fc, Hc, 1, "coupling")):
            lhs = _rule_combo(h, ring, report.actions, gms, V, W)
            rhs = _gm_of_combo(h, ring, gms,
                               {key: c * scale_ for key, c in target.items()})
            rows.append(Row(name, lhs == rhs, kind=kind))
    return BracketReport(rows, report.actions)


def _rule_combo(h, ring, actions, gms, V, W):
    """Frame matrix of [V, W] by the connection rule, for combinations of
    generators with constant coefficients."""
    gmV = _gm_of_combo(h, ring, gms, V)
    gmW = _gm_of_combo(h, ring, gms, W)
    terms = [(1, gmW @ gmV), (-1, gmV @ gmW)]
    terms += [(coef, actions[key].apply_mat(gmW))
              for key, coef in V.items() if key[0] != "R"]
    terms += [(-coef, actions[key].apply_mat(gmV))
              for key, coef in W.items() if key[0] != "R"]
    return combination(ring, (2 * h + 2, 2 * h + 2), terms)
