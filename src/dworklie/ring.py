"""Exact multivariate polynomial arithmetic over Q, with an optional quadratic slot relation.

A polynomial is a dict mapping monomial keys to nonzero ints plus a positive integer
denominator, with gcd(content, denominator) == 1.  All heavy arithmetic stays in the
integers; rational coefficients enter only through that single denominator.

Monomial order: graded lex, ties broken by the exponent of the highest variable first.
Variables are ordered by their position in Ring.names (earlier = lower).

Packed monomials: in a ring of nv variables a monomial is one int made of
_W-bit fields, [total degree | e_(nv-1) | ... | e_1 | e_0], e_0 lowest.  So
integer order is the monomial order, a product is one addition, the constant
monomial is 0, and m divides m' when d = m' - m >= 0 and d & _G == 0 (_G
holds the top, guard bit of every field).  Every field, the degree too, stays
below 2^(_W - 1).  Each exponent is at most the degree, so one test of the
guard bits of a product's leading key checks all of its fields; a product
past the width raises KernelInvariant and never wraps.  _G reaches rings of
up to _MAXVARS variables.  The same guard bits make the monomial gcd SWAR
(one integer operation on every field at once): _mono_gcd takes the
fieldwise minimum of two keys with one subtraction and a mask, and rebuilds
the degree with one multiplication.  Poly.support jumps from one set field
to the next instead of testing every variable.

A ring may name one known irreducible factor F = x^r - x_v.  Ring.cancel then
finds the gcd with a denominator c * x^a * F^k by exact division by F, not by
a multivariate gcd (see Ring).  The triple (c, a, k), the split, is found
once per Poly and kept on it (Poly.known_split).  A one-term polynomial
c * x^a is split as (c, a, 0) in every ring, with a known factor or not, so
the constant and monomial denominators of any ring take the same route.
The kernel works on splits where it can: the gcd of two split denominators
comes from their exponents (Ring.split_gcd), the reduced denominator of a
cancel is a split again (Ring.cancel_split), and a product of splits is
built from the cached F^k by one shift (Ring.split_poly).  Kernel results
with no zero coefficient enter Poly through Poly._trusted, which skips the
zero filter and, over den 1, the content scan.

Boundary: only this module knows how a monomial is encoded and how monomials
are ordered.  Other modules name variables and use
  Ring: var, const, with_relation, extend, factor_pow, cancel, has_pivot (the
        pivot test) and rationalize (the conjugate step after reduce_terms);
        ratfn also uses the split methods split_terms, split_poly,
        split_gcd, cancel_split and derive_split (the logarithmic
        derivative over a split denominator);
  Poly: arithmetic, divmod (division with remainder), derive, eval, lift (also
        down to a prefix ring), support, weighted_degrees, coeffs (over
        one variable), items (the terms in order, each a coefficient and
        (name, power) pairs), is_zero, is_const, const_value and
        known_split.
ratfn alone also hands term dicts, as opaque values, to _tadd, _tmul, _tscale
and _primitive, and builds results with Poly._trusted, so that its Henrici
sums and products build no Poly per operation beyond their results.  Splits
are opaque to it too: it passes them between the Ring methods above and
tests only whether a Poly has one.  Exponent tuples enter only as
constructor input: the relation and the known factor of Ring(...), which
geometry and the tests spell out; items, weighted_degrees, eval and the
printer unpack.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm
from operator import mul as _imul

from .errors import DworkError, KernelInvariant


# ---------------------------------------------------------------------------
# packed monomials

_W = 16
_FM = (1 << _W) - 1
_HALF = 1 << (_W - 1)
_MAXVARS = 4095
# the guard bit of every field of the widest ring, degree field included
_G = int.from_bytes(_HALF.to_bytes(_W // 8, "little") * (_MAXVARS + 1), "little")


def _overflow():
    return KernelInvariant(f"monomial degree past the packed field limit {_HALF - 1}")


def _pack(e, nv):
    """The key of the exponent tuple e of a ring with nv variables."""
    if len(e) != nv or min(e, default=0) < 0:
        raise ValueError(f"not an exponent tuple of {nv} variables: {e!r}")
    m = sum(e)
    if m >= _HALF:
        raise _overflow()
    for x in reversed(e):
        m = m << _W | x
    return m


def _unpack(m, nv):
    return tuple(m >> (i * _W) & _FM for i in range(nv))


_ONE = {0: 1}  # the term dict of 1 in every ring


# ---------------------------------------------------------------------------
# term-dict helpers (dict[int, int], coefficients never zero)

def _tadd(A, B):
    out = dict(A)
    for e, c in B.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _tneg(A):
    return {e: -c for e, c in A.items()}


def _tscale(A, k):
    if k == 0:
        return {}
    return {e: c * k for e, c in A.items()}


def _tmul(A, B):
    if not A or not B:
        return {}
    if len(B) > len(A):
        A, B = B, A
    if len(B) == 1:
        ((eb, cb),) = B.items()
        if not eb:
            return {e: c * cb for e, c in A.items()}
        if (max(A) + eb) & _G:
            raise _overflow()
        return {e + eb: c * cb for e, c in A.items()}
    if (max(A) + max(B)) & _G:
        raise _overflow()
    out = {}
    get = out.get
    for eb, cb in B.items():
        for ea, ca in A.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _tpow(A, k):
    if k == 0:
        if not A:
            raise ValueError("0^0 of an empty term dict")
        return {0: 1}
    out = None
    base = A
    while k:
        if k & 1:
            out = base if out is None else _tmul(out, base)
        k >>= 1
        if k:
            base = _tmul(base, base)
    return out if out is not None else {}


def _content(A):
    g = 0
    for c in A.values():
        g = igcd(g, c)
        if g == 1:
            return 1
    return g


def _primitive(T):
    """(c, P) with T == c * P: P has content 1 and a positive leading
    coefficient, and c carries the sign.  (0, {}) for T empty."""
    c = _content(T)
    if T and T[max(T)] < 0:
        c = -c
    return c, (T if c == 1 else {e: x // c for e, x in T.items()})


def _tderive(T, s, unit):
    """Derivative in the variable whose field starts at bit s; unit is its key."""
    out = {}
    for e, c in T.items():
        k = e >> s & _FM
        if k:
            e -= unit
            t = out.get(e, 0) + c * k
            if t:
                out[e] = t
            else:
                del out[e]
    return out


def _teval(T, point):
    """Evaluate at a tuple of Fractions, one per variable."""
    total = Fraction(0)
    for e, c in T.items():
        v = Fraction(c)
        for x, k in zip(point, _unpack(e, len(point))):
            if k:
                v *= x ** k
        total += v
    return total


def _tdiv_exact(A, B):
    """Exact division of term dicts; returns the quotient or None if B does not divide A."""
    if not B:
        raise ZeroDivisionError("division by zero polynomial")
    if not A:
        return {}
    eB = max(B)
    cB = B[eB]
    Q = {}
    R = dict(A)
    while R:
        eR = max(R)
        diff = eR - eB
        if diff < 0 or diff & _G:
            return None
        q, rem = divmod(R[eR], cB)
        if rem:
            return None
        Q[diff] = q
        for e, c in B.items():
            e += diff
            s = R.get(e, 0) - q * c
            if s:
                R[e] = s
            else:
                del R[e]
    return Q


def _tdiv_strict(A, B):
    """Quotient of a division known to be exact; KernelInvariant if it is not."""
    Q = _tdiv_exact(A, B)
    if Q is None:
        raise KernelInvariant("division expected to be exact left a remainder")
    return Q


def _tdiv_known(T, known):
    """T / (x^r - x_v) for a monomial x^r free of x_v, or None when the division
    leaves a remainder; known is Ring._known, (R, E, s, limit) with R the key of
    x^r, E that of x_v, s the first bit of the x_v field.  The division is exact
    when T vanishes at x_v = x^r, tested in one pass over the images
    e + e_v (R - E); synthetic division in x_v then gives the quotient: for
    T = sum a_i x_v^i its coefficients run from the top as q_(i-1) = x^r q_i - a_i,
    and the division is exact when a_0 = x^r q_0.  The limit keeps every
    image, deg(T) |r| at most, inside the field width."""
    if len(T) < 2:
        return None
    R, E, s, limit = known
    if max(T) >= limit:
        raise _overflow()
    image = {}
    step = R - E
    for e, c in T.items():
        k = e + (e >> s & _FM) * step
        image[k] = image.get(k, 0) + c
    if any(image.values()):
        return None
    U = _uni_view(T, s, E)
    Q, q = {}, {}
    for i in range(max(U), 0, -1):
        q = {e + R: c for e, c in q.items()}
        for e, c in U.get(i, {}).items():
            t = q.get(e, 0) - c
            if t:
                q[e] = t
            else:
                del q[e]
        Q[i - 1] = q
    if {e + R: c for e, c in q.items()} != U.get(0, {}):
        return None
    return _uni_join(Q, E)


# ---------------------------------------------------------------------------
# multivariate gcd.  A constant operand leaves only the gcd of the integer
# contents.  Otherwise _tgcd strips the common monomial and the integer
# content, then tries, cheapest first:
#   * a monomial operand, equal operands, or one operand dividing the other;
#   * the support split: a common factor can only involve variables that occur
#     in both operands, so an operand that also carries other variables is
#     replaced by its coefficients over them, and the gcd is folded over all
#     those parts, smallest first, stopping at 1.  This keeps PRS below on the
#     shared variables only;
#   * primitive subresultant PRS in the shared variable of least degree.
# A one-term denominator, or one of the form c * x^a * F^k with F a ring's
# known factor, never comes here: Ring.cancel finds its gcd exactly (see Ring).

def _uni_view(T, s, unit):
    """Split T into dict deg_v -> coefficient term-dict (v-exponent zeroed),
    for the variable v whose field starts at bit s and whose key is unit."""
    out = {}
    for e, c in T.items():
        k = e >> s & _FM
        out.setdefault(k, {})[e - k * unit] = c
    return out


def _uni_join(U, unit):
    out = {}
    for k, coeff in U.items():
        for e, c in coeff.items():
            out[e + k * unit] = c
    return out


def _prem(A, B):
    """Pseudo-remainder in the main variable: lc(B)^(dA-dB+1) * A = Q*B + R."""
    dB = max(B)
    lB = B[dB]
    R = {d: dict(c) for d, c in A.items()}
    e = max(A) - dB + 1
    while R:
        dR = max(R)
        if dR < dB:
            break
        lR = R.pop(dR)
        e -= 1
        Rn = {d: _tmul(c, lB) for d, c in R.items()}
        for d, c in B.items():
            if d == dB:
                continue
            sh = d + dR - dB
            t = _tmul(c, lR)
            cur = Rn.get(sh)
            Rn[sh] = _tadd(cur, _tneg(t)) if cur is not None else _tneg(t)
        R = {d: c for d, c in Rn.items() if c}
    if e > 0 and R:
        m = _tpow(lB, e)
        R = {d: _tmul(c, m) for d, c in R.items()}
    return R


def _coeff_gcd(U, nv):
    """Recursive gcd of all coefficient dicts of a univariate view."""
    g = {}
    for coeff in U.values():
        g = _tgcd(g, coeff, nv)
        if g == _ONE:
            break
    return g


def _subres_prim_gcd(A, B):
    """Primitive gcd in the main variable of two primitive univariate views (or None for 1)."""
    if max(A) < max(B):
        A, B = B, A
    g, h = _ONE, _ONE
    while True:
        delta = max(A) - max(B)
        R = _prem(A, B)
        if not R:
            break
        if max(R) == 0:
            return None
        denom = _tmul(g, _tpow(h, delta))
        Rq = {d: _tdiv_strict(c, denom) for d, c in R.items()}
        A, B = B, Rq
        g = A[max(A)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _tdiv_strict(_tpow(g, delta), _tpow(h, delta - 1))
    return B


def _fields(T, nv):
    """Indices of the variables that occur in T, found by jumping from one set
    exponent field of the OR of the keys to the next."""
    o = 0
    for e in T:
        o |= e
    o &= (1 << (nv * _W)) - 1
    out, i = [], 0
    while o:
        skip = ((o & -o).bit_length() - 1) // _W
        i += skip
        out.append(i)
        i += 1
        o >>= (skip + 1) * _W
    return out


def _mono_gcd(A, B, nv):
    """Key of the largest monomial dividing every key of A and of B.  SWAR:
    with g the guard bits of the nv exponent fields, ((m | g) - e) & g has
    the guard of each field set where m's field is at least e's (no field
    borrows, each being below the guard), so one subtraction and a mask take
    the fieldwise minimum of m and e.  The degree field of e never reaches
    the mask, and one multiplication sums the fields into the degree."""
    low = (1 << (nv * _W)) - 1
    g = _G & low
    m = next(iter(A)) & low
    for T in (A, B):
        for e in T:
            if not m:
                return 0
            d = ((m | g) - e) & g
            m ^= (m ^ e) & (d - (d >> (_W - 1)))
    if not m:
        return 0
    return m | (m * (g >> (_W - 1)) >> ((nv - 1) * _W) & _FM) << (nv * _W)


def _tgcd(A, B, nv):
    """Gcd of integer term dicts, sign-normalized to positive leading coefficient."""
    if not A or not B:
        c, P = _primitive(A or B)
        return _tscale(P, abs(c))
    if len(A) == 1 and 0 in A or len(B) == 1 and 0 in B:
        return {0: igcd(_content(A), _content(B))}

    mono = _mono_gcd(A, B, nv)
    if mono:
        A = {e - mono: c for e, c in A.items()}
        B = {e - mono: c for e, c in B.items()}

    ca, A = _primitive(A)
    cb, B = _primitive(B)
    c = igcd(ca, cb)

    def done(prim):
        # prim is primitive here, so _primitive only fixes its sign
        prim = _primitive(prim)[1]
        return _tmul(prim, {mono: c}) if (mono or c != 1) else prim

    if len(A) == 1 or len(B) == 1:
        return done({_mono_gcd(A, B, nv): 1})
    if A == B or _tdiv_exact(A, B) is not None:
        return done(B)
    if _tdiv_exact(B, A) is not None:
        return done(A)

    sa, sb = _fields(A, nv), _fields(B, nv)
    shared = [i for i in sa if i in sb]
    if not shared:
        return done(_ONE)
    if len(sa) > len(shared) or len(sb) > len(shared):
        # The fold is already primitive and free of monomial factors: both
        # would divide A and B, whose common ones were stripped above.
        parts = sorted(_split_off(A, sa, shared, nv) + _split_off(B, sb, shared, nv),
                       key=len)
        g = parts[0]
        for part in parts[1:]:
            if g == _ONE:
                break
            g = _tgcd(g, part, nv)
        return done(g)
    v = min(shared, key=lambda i: max(e >> (i * _W) & _FM for e in A)
            + max(e >> (i * _W) & _FM for e in B))
    s, unit = v * _W, 1 << (v * _W) | 1 << (nv * _W)

    UA, UB = _uni_view(A, s, unit), _uni_view(B, s, unit)
    contA = _coeff_gcd(UA, nv)
    contB = _coeff_gcd(UB, nv)
    cont = _tgcd(contA, contB, nv)
    if contA != _ONE:
        UA = {d: _tdiv_strict(cf, contA) for d, cf in UA.items()}
    if contB != _ONE:
        UB = {d: _tdiv_strict(cf, contB) for d, cf in UB.items()}
    prim = _subres_prim_gcd(UA, UB)
    if prim is None:
        res = cont
    else:
        pc = _coeff_gcd(prim, nv)
        if pc != _ONE:
            prim = {d: _tdiv_strict(cf, pc) for d, cf in prim.items()}
        res = _tmul(cont, _uni_join(prim, unit))
    return done(res)


def _split_off(T, support, keep, nv):
    """Coefficients of T over its variables outside keep, as term dicts in the
    keep variables (support lists the variables occurring in T)."""
    drop = [i for i in support if i not in keep]
    if not drop:
        return [T]
    mask = sum(_FM << (i * _W) for i in drop)
    out = {}
    for e, c in T.items():
        d = e & mask
        deg = sum(d >> (i * _W) & _FM for i in drop)
        out.setdefault(d, {})[e - d - (deg << (nv * _W))] = c
    return list(out.values())


# ---------------------------------------------------------------------------

class Ring:
    """Ordered variable context.  May carry one relation pivot^2 = rel_num/rel_den
    (both sides free of the pivot) used to reduce pivot powers eagerly.

    May also carry one known factor F = x^r - x_v, given as factor=(r, v): an
    exponent tuple r free of x_v whose monomial leads F, and F free of the
    relation pivot.  F is irreducible, being linear in x_v with coprime
    coefficients x^r and -1, and it is prime to every monomial and integer.
    So for D = c * x^a * F^k,
    gcd(N, D) = igcd(content N, c) * x^min(a, ord N) * F^j, with j the largest
    power up to k that divides N, and cancel() finds it without _tgcd.  D is
    then given by its split (c, a, k); for two split polynomials the gcd is
    igcd(c1, c2) * x^min(a1, a2) * F^min(k1, k2), from the exponents alone
    (split_gcd), and derive_split differentiates P / D by the logarithmic
    derivative of x^a * F^k.  With k = 0 none of this needs F, so a one-term
    D = c * x^a is split as (c, a, 0) in a ring without a known factor too."""

    __slots__ = ("names", "index", "pivot", "rel_num", "rel_den", "_relpow",
                 "factor", "_fpow", "_known", "_units", "_pmask", "zero", "one")

    def __init__(self, names, pivot=None, rel_num=None, rel_den=None,
                 factor=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        nv = len(self.names)
        if nv > _MAXVARS:
            raise ValueError(f"more than {_MAXVARS} variables")
        self.index = {s: i for i, s in enumerate(self.names)}
        self._units = [1 << (i * _W) | 1 << (nv * _W) for i in range(nv)]
        self.pivot = pivot
        self._pmask = 0 if pivot is None else _FM << (pivot * _W)
        if pivot is not None:
            rel_num = {_pack(e, nv): c for e, c in rel_num.items()}
            rel_den = {_pack(e, nv): c for e, c in rel_den.items()}
        self.rel_num, self.rel_den = rel_num, rel_den
        self._relpow = {0: (_ONE, _ONE)}
        self.zero = Poly(self, {}, 1)
        self.one = Poly(self, _ONE, 1)
        self.factor = factor
        self._known = None
        if factor is not None:
            r, v = factor
            R, E = _pack(r, nv), self._units[v]
            if r[v] or R < E:
                raise ValueError("known factor: x^r must be free of x_v and lead")
            if self._pmask & (R | E):
                raise ValueError("known factor: F must be free of the pivot")
            limit = ((_HALF - 1) // sum(r) + 1) << (nv * _W)
            self._known = (R, E, v * _W, limit)
            self._fpow = [_ONE, {R: 1, E: -1}]

    @property
    def nvars(self):
        return len(self.names)

    def var(self, name):
        return Poly(self, {self._units[self.index[name]]: 1}, 1)

    def const(self, q):
        q = Fraction(q)
        if q == 0:
            return self.zero
        return Poly(self, {0: q.numerator}, q.denominator)

    def _exponents(self, T, pad=()):
        return {_unpack(e, self.nvars) + pad: c for e, c in T.items()}

    def with_relation(self, pivot_name, num, den):
        """New ring over the same variables where pivot^2 = num/den (Poly args)."""
        p = self.index[pivot_name]
        cn, RN = _primitive(_tscale(num.terms, den.den))
        cd, RD = _primitive(_tscale(den.terms, num.den))
        q = Fraction(cn, cd)
        RN, RD = _tscale(RN, q.numerator), _tscale(RD, q.denominator)
        pm = _FM << (p * _W)
        if any(e & pm for e in RN) or any(e & pm for e in RD):
            raise ValueError("relation touches the pivot")
        return Ring(self.names, pivot=p, rel_num=self._exponents(RN),
                    rel_den=self._exponents(RD), factor=self.factor)

    def extend(self, extra):
        """New ring with extra variables appended; relation and known factor
        carry over."""
        pad = (0,) * len(extra)
        rel = {}
        if self.pivot is not None:
            rel = dict(pivot=self.pivot,
                       rel_num=self._exponents(self.rel_num, pad),
                       rel_den=self._exponents(self.rel_den, pad))
        factor = self.factor and (self.factor[0] + pad, self.factor[1])
        return Ring(self.names + tuple(extra), factor=factor, **rel)

    def factor_pow(self, k):
        """Term dict of F^k for the known factor F, cached.  Its first term is
        x^(rk), with coefficient 1."""
        P = self._fpow
        R, E = self._known[:2]
        while len(P) <= k:
            # F^j = x^r F^(j-1) - x_v F^(j-1)
            Fj = {e + R: c for e, c in P[-1].items()}
            if next(iter(Fj)) & _G:
                raise _overflow()
            for e, c in P[-1].items():
                e += E
                Fj[e] = Fj.get(e, 0) - c
            P.append(Fj)
        return P[k]

    def _known_split(self, D):
        """(c, a, k) with D == c * x^a * F^k, or None when D is not of that
        form.  A one-term D is (c, a, 0) in every ring; a longer one needs the
        ring's known factor.  F^k has k + 1 terms, from x^(rk) down to x_v^k,
        so k = |D| - 1 and a comes from the lowest key; a D whose highest key
        also matches is compared term by term, in O(|D|)."""
        k = len(D) - 1
        if not k:
            ((a, c),) = D.items()
            return c, a, 0
        if self._known is None:
            return None
        R, E, s, _ = self._known
        low = min(D)
        if low >> s & _FM < k:
            return None
        a = low - k * E
        top = a + k * R
        if max(D) != top:
            return None
        c = D[top]
        if all(D.get(e + a) == c * f for e, f in self.factor_pow(k).items()):
            return c, a, k
        return None

    def split_terms(self, split):
        """Term dict of c * x^a * F^k for split = (c, a, k)."""
        c, a, k = split
        if not k:  # most denominators are monomials; factor_pow(0) is {0: 1}
            if a & _G:
                raise _overflow()
            return {a: c}
        Fk = self.factor_pow(k)
        if (next(iter(Fk)) + a) & _G:
            raise _overflow()
        return {e + a: c * f for e, f in Fk.items()}

    def split_poly(self, *splits):
        """The Poly c * x^a * F^k that is the product of the given splits,
        with its split kept."""
        c, a, k = 1, 0, 0
        for ci, ai, ki in splits:
            c, a, k = c * ci, a + ai, k + ki
        p = Poly._trusted(self, self.split_terms((c, a, k)))
        p._ks = (c, a, k)
        return p

    def split_gcd(self, s1, s2):
        """(g, s1/g, s2/g) as splits for g = gcd(B, D) of the polynomials B
        and D with splits s1 and s2: F is prime to every monomial and integer,
        so g = igcd(c1, c2) * x^min(a1, a2) * F^min(k1, k2), each minimum
        taken over the exponents."""
        (c1, a1, k1), (c2, a2, k2) = s1, s2
        cg = igcd(c1, c2)
        m = _mono_gcd((a1,), (a2,), self.nvars) if a1 and a2 else 0
        j = min(k1, k2)
        return (cg, m, j), (c1 // cg, a1 - m, k1 - j), (c2 // cg, a2 - m, k2 - j)

    def derive_split(self, P, split, var):
        """(N, s) with d/d var (P / D) == N / D' for the integer term dict P,
        D = c * x^a * F^k given by split, and D' given by s.  With
        q = x^a * F^k, q'/q = a_v/x_v + k F'/F, so
        (P/q)' = (x_v F P' - a_v F P - k x_v F' P) / (x^(a + e_v) F^(k+1));
        the factor x_v (or F) stays out where a_v (or k F') is 0, and when
        both are, q' = 0 and the result is P'/q.  N may share a factor with D'."""
        v = self.index[var]
        s, unit = v * _W, self._units[v]
        c, a, k = split
        dP = _tderive(P, s, unit)
        av = a >> s & _FM
        dF = _tderive(self._fpow[1], s, unit) if k else {}
        if not av and not dF:
            return dP, split
        x = {unit: 1} if av else _ONE
        F = self._fpow[1] if dF else _ONE
        N = _tmul(_tmul(x, F), dP)
        if av:
            N = _tadd(N, _tscale(_tmul(F, P), -av))
        if dF:
            N = _tadd(N, _tscale(_tmul(_tmul(x, dF), P), -k))
        return N, (c, a + unit if av else a, k + 1 if dF else k)

    def cancel(self, N, D, known=None):
        """(g, N/g, D/g) for g = gcd(N, D) of nonzero integer term dicts, g as
        _tgcd gives it; N and D come back as they are when g = 1.  A D of the
        form c * x^a * F^k takes the known-factor rule of the class docstring,
        any other D takes _tgcd and two exact divisions.  known is D's split
        when the caller has it, False when D is known not to be of the form;
        None leaves cancel to find it."""
        one = self.one.terms
        if D == one:
            return one, N, D
        if known is None:
            known = self._known_split(D)
        if not known:
            g = _tgcd(N, D, self.nvars)
            if g == one:
                return g, N, D
            return g, _tdiv_strict(N, g), _tdiv_strict(D, g)
        gs, N, rest = self.cancel_split(N, known)
        if gs == (1, 0, 0):
            return one, N, D
        return self.split_terms(gs), N, self.split_terms(rest)

    def cancel_split(self, N, split):
        """(g, N/g, D/g) as cancel gives them, for D = c * x^a * F^k given by
        split, with g and D/g as splits: the rule of the class docstring."""
        c, a, k = split
        cg = 1 if c in (1, -1) else igcd(_content(N), c)
        m = _mono_gcd((a,), N, self.nvars) if a else 0
        if cg > 1 or m:
            N = {e - m: x // cg for e, x in N.items()}
        j = 0
        while j < k:
            Q = _tdiv_known(N, self._known)
            if Q is None:
                break
            N, j = Q, j + 1
        return (cg, m, j), N, (c // cg, a - m, k - j)

    def _rel_pow(self, k):
        cache = self._relpow
        if k not in cache:
            n1, d1 = self._rel_pow(k - 1)
            cache[k] = (_tmul(n1, self.rel_num), _tmul(d1, self.rel_den))
        return cache[k]

    def reduce_terms(self, T):
        """Rewrite pivot^2 via the relation: returns (T', k) with T == T'/rel_den^k
        and pivot degree <= 1 in T'."""
        p = self.pivot
        if p is None or not T:
            return T, 0
        s, unit = p * _W, self._units[p]
        kmax = max(e >> s & _FM for e in T) // 2
        if kmax == 0:
            return T, 0
        out = {}
        for e, c in T.items():
            k = (e >> s & _FM) // 2
            base = e - 2 * k * unit
            numk, _ = self._rel_pow(k)
            _, denk = self._rel_pow(kmax - k)
            for ef, cf in _tmul(numk, denk).items():
                ef += base
                t = out.get(ef, 0) + c * cf
                if t:
                    out[ef] = t
                else:
                    del out[ef]
        if out and max(out) & _G:
            raise _overflow()
        return out, kmax

    def has_pivot(self, T):
        """Whether the relation pivot occurs in the term dict T."""
        pm = self._pmask
        return bool(pm) and any(e & pm for e in T)

    def rationalize(self, N, D):
        """(N', D') with N'/D' == N/D under the relation, for term dicts N and
        D: N' has pivot degree <= 1 (empty when N vanishes) and D' is free of
        the pivot, made so by multiplying with its conjugate."""
        N, kn = self.reduce_terms(N)
        D, kd = self.reduce_terms(D)
        if not N:
            return N, D
        if not D:
            raise ZeroDivisionError("denominator is zero under the slot relation")
        if self.has_pivot(D):
            pm = self._pmask
            conj = {e: (-c if e & pm else c) for e, c in D.items()}
            N, kn2 = self.reduce_terms(_tmul(N, conj))
            D, kd2 = self.reduce_terms(_tmul(D, conj))
            if not D or self.has_pivot(D):
                raise KernelInvariant("pivot survived rationalization")
            kn += kn2
            kd += kd2
        # N/D == (N'/rel_den^kn) / (D'/rel_den^kd)
        net = kd - kn
        if net > 0:
            N = _tmul(N, _tpow(self.rel_den, net))
        elif net < 0:
            D = _tmul(D, _tpow(self.rel_den, -net))
        return N, D

    def __repr__(self):
        rel = "" if self.pivot is None else f", {self.names[self.pivot]}^2 bound"
        return f"Ring({', '.join(self.names)}{rel})"


class Poly:
    """Immutable polynomial; see module docstring for the representation."""

    __slots__ = ("ring", "terms", "den", "_ks")

    def __init__(self, ring, terms, den=1):
        terms = {e: c for e, c in terms.items() if c}
        if den < 0:
            den = -den
            terms = _tneg(terms)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not terms:
            den = 1
        else:
            g = igcd(_content(terms), den)
            if g > 1:
                terms = {e: c // g for e, c in terms.items()}
                den //= g
        self.ring = ring
        self.terms = terms
        self.den = den

    @classmethod
    def _trusted(cls, ring, terms, den=1):
        """Poly(ring, terms, den) for kernel output: terms has no zero
        coefficient and den > 0, so only a den > 1 needs the content scan."""
        p = cls.__new__(cls)
        if den != 1:
            if not terms:
                den = 1
            else:
                g = igcd(_content(terms), den)
                if g > 1:
                    terms = {e: c // g for e, c in terms.items()}
                    den //= g
        p.ring, p.terms, p.den = ring, terms, den
        return p

    def known_split(self):
        """(c, a, k) with terms == c * x^a * F^k for the ring's known factor
        F, k = 0 for one term in any ring (see Ring._known_split); False when
        the terms are not of that form.  Found on first use, then kept."""
        try:
            return self._ks
        except AttributeError:
            ks = self._ks = self.ring._known_split(self.terms) or False
            return ks

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        T = self.terms
        return not T or (len(T) == 1 and 0 in T)

    def const_value(self):
        if not self.is_const:
            raise ValueError("not a constant")
        if not self.terms:
            return Fraction(0)
        return Fraction(next(iter(self.terms.values())), self.den)

    def support(self):
        """Names of the variables that occur, in ring order."""
        names = self.ring.names
        return [names[i] for i in _fields(self.terms, len(names))]

    def weighted_degrees(self, w):
        """Set of the weighted degrees of the terms; w maps names to integer
        weights, and a name missing from w weighs 0."""
        wt = [w.get(nm, 0) for nm in self.ring.names]
        return {sum(map(_imul, _unpack(e, len(wt)), wt)) for e in self.terms}

    def coeffs(self, var):
        """{k: coefficient of var^k}, each a Poly free of var; {} for zero."""
        v = self.ring.index[var]
        U = _uni_view(self.terms, v * _W, self.ring._units[v])
        return {k: Poly(self.ring, T, self.den) for k, T in U.items()}

    def items(self):
        """(coefficient, ((name, power), ...)) for each term in ascending
        graded-lex order, the powers nonzero and in ring order.  A coefficient
        is an int when den == 1, else a Fraction."""
        names, den = self.ring.names, self.den
        for e, c in sorted(self.terms.items()):
            yield (c if den == 1 else Fraction(c, den),
                   tuple((nm, k) for nm, k in zip(names, _unpack(e, len(names)))
                         if k))

    # -- arithmetic ---------------------------------------------------------
    def _chk(self, other):
        if self.ring is not other.ring:
            raise KernelInvariant("mixed rings")

    def __add__(self, other):
        self._chk(other)
        a, b = self, other
        T = _tadd(_tscale(a.terms, b.den), _tscale(b.terms, a.den))
        return Poly._trusted(self.ring, T, a.den * b.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.ring, p.terms, p.den = self.ring, _tneg(self.terms), self.den
        return p

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly._trusted(self.ring, _tscale(self.terms, q.numerator),
                                 self.den * q.denominator)
        self._chk(other)
        return Poly._trusted(self.ring, _tmul(self.terms, other.terms),
                             self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self == q * other + r, by repeated division of the
        leading term by the leading term of other, so that no term of r is
        divisible by the leading monomial of other."""
        self._chk(other)
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        d = {e: Fraction(c, other.den) for e, c in other.terms.items()}
        e0 = max(d)
        c0 = d.pop(e0)
        p = {e: Fraction(c, self.den) for e, c in self.terms.items()}
        q, r = {}, {}
        while p:
            e = max(p)
            cf = p.pop(e)
            qe = e - e0
            if qe < 0 or qe & _G:
                r[e] = cf
                continue
            qc = q[qe] = cf / c0
            for ed, cd in d.items():
                te = qe + ed
                s = p.get(te, 0) - qc * cd
                if s:
                    p[te] = s
                else:
                    del p[te]

        def poly(T):
            den = lcm(*(c.denominator for c in T.values()))
            return Poly(self.ring, {e: int(c * den) for e, c in T.items()}, den)

        return poly(q), poly(r)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return Poly._trusted(self.ring, _tpow(self.terms, k), self.den ** k)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ring is other.ring and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ring), self.den, frozenset(self.terms.items())))

    def derive(self, var):
        v = self.ring.index[var]
        T = _tderive(self.terms, v * _W, self.ring._units[v])
        return Poly._trusted(self.ring, T, self.den)

    def eval(self, point):
        """point: dict name -> Fraction, covering every variable that occurs;
        DworkError names the first one missing."""
        for nm in self.support():
            if nm not in point:
                raise DworkError(f"no value given for the variable {nm!r}")
        pt = tuple(Fraction(point.get(nm, 0)) for nm in self.ring.names)
        return _teval(self.terms, pt) / self.den

    def lift(self, ring):
        """The same polynomial in a ring whose names extend ours or are a
        prefix of them; DworkError when a dropped variable occurs.  The
        exponent fields stay, the degree field moves."""
        src, k = self.ring.names, ring.nvars
        if src[:k] != ring.names[:len(src)]:
            raise KernelInvariant("not a prefix extension")
        T = self.terms
        if k < len(src):
            for nm in self.support():
                if nm not in ring.index:
                    raise DworkError(f"cannot drop the variable {nm!r}: it occurs")
        if k != len(src):
            low, old, new = (1 << (min(k, len(src)) * _W)) - 1, len(src) * _W, k * _W
            T = {e & low | e >> old << new: c for e, c in T.items()}
        return Poly(ring, T, self.den)

    def __repr__(self):
        from .ratfn import poly_string  # local import to avoid a cycle
        s = poly_string(self * self.den)
        return s if self.den == 1 else f"({s})/{self.den}"
