"""References for the threefold table tests.  The bracket table is written
here in both orders, case by case, as it was before each unordered pair of
generator kinds kept one branch and the other order became the negated
entry; this is apart from the antisymmetry that cy3.bracket_claim rests on.
The frames are written cell by cell, as they were before cy3.frame_cells
became the one rule that spells them."""

from fractions import Fraction

from dworklie.cy3 import ysym
from dworklie.errors import DworkError
from dworklie.linalg import MatF
from dworklie.ratfn import RatFn


def disp(h, ring, key):
    """Frame matrix of the basis field named by key (the algebra element is
    its transpose)."""
    N = 2 * h + 2
    M = MatF.zeros(ring, N)
    one = RatFn.of(ring, 1)
    half = RatFn.of(ring, Fraction(1, 2))
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


def frame(h, ring, key):
    """Frame matrix of any table key."""
    return gm_modular(h, ring, key[1]) if key[0] == "R" else disp(h, ring, key)


def bracket_claim(h, ring, v, w):
    """Table entry [V, W] as {generator key: coefficient}."""
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
