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
the degree with one multiplication.  Every reader walks the set fields
(_powers): it takes the lowest set field, then clears it, so it touches only
the variables that occur.

A ring may name one known irreducible factor F = x^r - x_v.  A polynomial
c * x^a * F^k, or c * x^a in any ring, has the split (a, k), c being its
leading coefficient (Poly.known_split), and the kernel works on splits: the
gcd with a split denominator comes by exact division by F, not by a
multivariate gcd, and the reduced denominator is a split again
(Ring.cancel_split, see Ring); the gcd of two splits comes from their
exponents (Ring.split_gcd) and their product is their sum (Ring.split_mul).
There is no general gcd: ratfn refuses a denominator without a split, and a
relation's rel_num and rel_den must each have one.  Kernel results with no
zero coefficient skip the zero filter: _lowest divides a term dict and an
integer by their gcd, with no content scan over 1, and Poly._trusted builds
a Poly with it, as ratfn builds a RatFn.

Boundary: only this module knows how a monomial is encoded and how monomials
are ordered.  Other modules name variables and use
  Ring: var, const, with_relation, extend, factor_pow, has_pivot (the
        pivot test) and conjugate (the pivot's sign flipped);
        ratfn also uses reduce_split (the pivot reduction, with the power
        of rel_den it takes as an int and a split) and the split methods
        _known_split (a term dict's split), split_terms, split_mul,
        split_gcd, split_lcm (the lcm of products of splits, with each
        product's cofactor), cancel_split and derive_split (the
        logarithmic derivative over a split denominator);
  Poly: arithmetic, divmod (division with remainder), derive, eval, lift (also
        down to a prefix ring), support, weighted_degrees, coeffs (over
        one variable), items (the terms in order, each a coefficient and
        (name, power) pairs), is_zero, is_const, const_value and
        known_split.
ratfn alone also hands term dicts, as opaque values, to _tadd, _tsum, _tmul,
_tneg, _tscale, _primitive and _lowest: a RatFn keeps its numerator's term
dict and integer, so its sums and products build no Poly.  A constant is
the term dict {0: p}, or {} for 0, over an int q with the split _UNIT, so
ratfn reads and builds it as two ints.  Splits are opaque to it too: it
passes them between the Ring methods above and compares them with _UNIT.
Exponent tuples enter only as constructor input: the relation and the known
factor of Ring(...), which geometry and the tests spell out; items,
weighted_degrees, eval, support and the printer read keys through _powers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm

from .errors import DworkError, KernelInvariant


# ---------------------------------------------------------------------------
# packed monomials

_W = 16
_FM = (1 << _W) - 1
_HALF = 1 << (_W - 1)
DEGREE_LIMIT = _HALF - 1  # the largest degree a packed monomial holds
_MAXVARS = 4095
# the guard bit of every field of the widest ring, degree field included
_G = int.from_bytes(_HALF.to_bytes(_W // 8, "little") * (_MAXVARS + 1), "little")


def _overflow():
    return KernelInvariant("monomial degree past the packed field limit "
                           f"{DEGREE_LIMIT}")


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


def _powers(m, nv):
    """(i, e_i) for each nonzero exponent field of the key m of a ring with
    nv variables, in ring order: take the lowest set field, then clear it."""
    m &= (1 << (nv * _W)) - 1
    while m:
        i = ((m & -m).bit_length() - 1) // _W
        k = m >> (i * _W) & _FM
        yield i, k
        m ^= k << (i * _W)


_ONE = {0: 1}  # the term dict of 1 in every ring
_UNIT = (0, 0)  # the split of 1 in every ring


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


def _tsum(items):
    """Sum of k * T over the (T, k) pairs of term dicts and ints."""
    out = {}
    get = out.get
    for T, k in items:
        for e, c in T.items():
            out[e] = get(e, 0) + c * k
    # the accumulator itself when no coefficient cancelled
    return {e: c for e, c in out.items() if c} if 0 in out.values() else out


def _tneg(A):
    return {e: -c for e, c in A.items()}


def _tscale(A, k):
    if k == 1:  # term dicts are never written in place, so A is shared
        return A
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
            return _tscale(A, cb)
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
    # the accumulator itself when no coefficient cancelled
    return {e: c for e, c in out.items() if c} if 0 in out.values() else out


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


def _lowest(T, den):
    """(T/g, den/g) for g = gcd(content(T), den), T an integer term dict with
    no zero coefficient and den > 0; (T, 1) for T empty.  Only a den > 1
    needs the content scan."""
    if den != 1:
        if not T:
            return T, 1
        g = igcd(_content(T), den)
        if g > 1:
            return {e: c // g for e, c in T.items()}, den // g
    return T, den


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
    total, nv = Fraction(0), len(point)
    for e, c in T.items():
        v = Fraction(c)
        for i, k in _powers(e, nv):
            v *= point[i] ** k
        total += v
    return total


def _tdiv_known(T, known):
    """T / (x^r - x_v) for a monomial x^r free of x_v, or None when the division
    leaves a remainder; known is Ring._known, (R, E, s, limit) with R the key of
    x^r, E that of x_v, s the first bit of the x_v field.  The division is exact
    when T vanishes at x_v = x^r, tested in one pass over the images
    e + e_v (R - E), after a C-level sum of the coefficients, T(1, ..., 1),
    which must vanish with F(1, ..., 1) = 0 and rejects most other T;
    synthetic division in x_v then gives the quotient: for
    T = sum a_i x_v^i its coefficients run from the top as q_(i-1) = x^r q_i - a_i,
    and the division is exact when a_0 = x^r q_0.  The limit keeps every
    image, deg(T) |r| at most, inside the field width."""
    if len(T) < 2:
        return None
    R, E, s, limit = known
    if max(T) >= limit:
        raise _overflow()
    if sum(T.values()):
        return None
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


# ---------------------------------------------------------------------------

class Ring:
    """Ordered variable context.  May carry one relation pivot^2 = rel_num/rel_den
    (both sides free of the pivot) used to reduce pivot powers eagerly.

    May also carry one known factor F = x^r - x_v, given as factor=(r, v): an
    exponent tuple r free of x_v whose monomial leads F, and F free of the
    relation pivot.  F is irreducible, being linear in x_v with coprime
    coefficients x^r and -1, and it is prime to every monomial and integer.
    A split (a, k) stands for D = x^a * F^k, and gcd(N, D) =
    x^min(a, ord N) * F^j, j the largest power up to k that divides N
    (cancel_split).  For two splits the gcd is x^min(a1, a2) *
    F^min(k1, k2), from the exponents alone (split_gcd), and derive_split
    differentiates P / D by the logarithmic derivative of x^a * F^k.  With
    k = 0 none of this needs F, so a one-term c * x^a has the split (a, 0)
    in a ring without a known factor too.  The relation's rel_den must have
    a split, kept on the ring beside its leading coefficient, so that
    reducing a pivot power keeps a split denominator split (reduce_split),
    and so must its rel_num, so that the pivot has an inverse (1/pivot =
    pivot * rel_den/rel_num); ValueError otherwise."""

    __slots__ = ("names", "index", "pivot", "rel_num", "rel_den", "_relpow",
                 "_rsplit", "_rlead", "factor", "_fpow", "_known", "_units",
                 "_pmask", "zero", "one")

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
            limit = (DEGREE_LIMIT // sum(r) + 1) << (nv * _W)
            self._known = (R, E, v * _W, limit)
            self._fpow = [_ONE, {R: 1, E: -1}]
        if pivot is not None:
            self._rsplit = rel_den and self._known_split(rel_den)
            if not self._rsplit:
                raise ValueError("relation: rel_den has no split c * x^a * F^k")
            self._rlead = rel_den[max(rel_den)]
            if not (rel_num and self._known_split(rel_num)):
                raise ValueError("relation: rel_num has no split c * x^a * F^k")

    @property
    def nvars(self):
        return len(self.names)

    def var(self, name):
        return Poly(self, {self._units[self.index[name]]: 1}, 1)

    def const(self, q):
        q = q if type(q) in (int, Fraction) else Fraction(q)
        return Poly._trusted(self, {0: q.numerator} if q else {}, q.denominator)

    def _exponents(self, T, pad=()):
        """T as {exponent tuple + pad: coefficient}, the Ring input form."""
        out, nv = {}, self.nvars
        for m, c in T.items():
            e = [0] * nv
            for i, k in _powers(m, nv):
                e[i] = k
            out[tuple(e) + pad] = c
        return out

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
        """(a, k) with D == c * x^a * F^k, c the leading coefficient of D, or
        None when D is not of that form.  A one-term D is (a, 0) in every
        ring; a longer one needs the ring's known factor.  F^k has k + 1 terms, from x^(rk) down to x_v^k,
        so k = |D| - 1 and a comes from the lowest key; a D whose highest key
        also matches is compared term by term, in O(|D|)."""
        k = len(D) - 1
        if not k:
            return next(iter(D)), 0
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
            return a, k
        return None

    def split_terms(self, split):
        """Term dict of x^a * F^k for split = (a, k)."""
        a, k = split
        if not k:  # most denominators are monomials; factor_pow(0) is {0: 1}
            if a & _G:
                raise _overflow()
            return {a: 1}
        Fk = self.factor_pow(k)
        if (next(iter(Fk)) + a) & _G:
            raise _overflow()
        return {e + a: f for e, f in Fk.items()}

    def split_mul(self, *splits):
        """The split of the product of x^a * F^k over the given splits; each
        step adds two keys with fields below the guard bit (checked)."""
        a, k = 0, 0
        for ai, ki in splits:
            a, k = a + ai, k + ki
            if a & _G:
                raise _overflow()
        return a, k

    def split_lcm(self, groups):
        """(l, cofactors) for the lcm l of the products D of the groups of
        splits: l = x^max(a) * F^max(k), each maximum over the exponents,
        a + b - gcd(a, b) fieldwise for two monomials.  Each product's
        cofactor l / D comes as a term dict, None where it is 1."""
        prods = [self.split_mul(*g) for g in groups]
        if prods.count(prods[0]) == len(prods):
            return prods[0], [None] * len(prods)
        (al, kl), nv = prods[0], len(self.names)
        for a, k in prods:
            kl = max(kl, k)
            if a != al:
                al += a - _mono_gcd((al,), (a,), nv)
        L = (al, kl)
        return L, [None if s == L else self.split_terms((al - s[0], kl - s[1]))
                   for s in prods]

    def split_gcd(self, s1, s2):
        """(g, s1/g, s2/g) as splits for g = gcd(B, D) of B and D with splits
        s1 and s2: F is prime to every monomial, so
        g = x^min(a1, a2) * F^min(k1, k2), each minimum taken over the
        exponents."""
        (a1, k1), (a2, k2) = s1, s2
        m = _mono_gcd((a1,), (a2,), self.nvars) if a1 and a2 else 0
        j = min(k1, k2)
        return (m, j), (a1 - m, k1 - j), (a2 - m, k2 - j)

    def derive_split(self, P, split, var):
        """(N, s) with d/d var (P / D) == N / D' for the integer term dict P,
        D = x^a * F^k given by split, and D' given by s.  With
        q = x^a * F^k, q'/q = a_v/x_v + k F'/F, so
        (P/q)' = (x_v F P' - a_v F P - k x_v F' P) / (x^(a + e_v) F^(k+1));
        the factor x_v (or F) stays out where a_v (or k F') is 0, and when
        both are, q' = 0 and the result is P'/q.  N may share a factor with D'."""
        v = self.index[var]
        s, unit = v * _W, self._units[v]
        a, k = split
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
        return N, (a + unit if av else a, k + 1 if dF else k)

    def cancel_split(self, N, split):
        """(N/g, D/g) for g = gcd(N, D), N a nonzero integer term dict and
        D = x^a * F^k given by split, with D/g as a split: the rule of the
        class docstring."""
        a, k = split
        m = _mono_gcd((a,), N, self.nvars) if a else 0
        if m:
            N = {e - m: x for e, x in N.items()}
        j = 0
        while j < k:
            Q = _tdiv_known(N, self._known)
            if Q is None:
                break
            N, j = Q, j + 1
        return N, (a - m, k - j)

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

    def reduce_split(self, T):
        """(T', q, split) with T == T'/(q * x^a * F^k), q > 0 an int and
        pivot degree <= 1 in T': reduce_terms, its rel_den^j the j-th power
        of rel_den's leading coefficient c times j copies of the split of
        rel_den, both kept on the ring; q is |c|^j, the sign moved into T'."""
        T, j = self.reduce_terms(T)
        if not j:
            return T, 1, _UNIT
        q, split = self._rlead ** j, self.split_mul(*(self._rsplit,) * j)
        return (T, q, split) if q > 0 else (_tneg(T), -q, split)

    def has_pivot(self, T):
        """Whether the relation pivot occurs in the term dict T."""
        pm = self._pmask
        return bool(pm) and any(map(pm.__and__, T))

    def conjugate(self, T):
        """T, of pivot degree <= 1, with the sign of its pivot terms flipped."""
        return {e: (-c if e & self._pmask else c) for e, c in T.items()}

    def __repr__(self):
        rel = "" if self.pivot is None else f", {self.names[self.pivot]}^2 bound"
        return f"Ring({', '.join(self.names)}{rel})"


class Poly:
    """Immutable polynomial; see module docstring for the representation."""

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring, terms, den=1):
        if not den:
            raise ZeroDivisionError("zero denominator")
        terms = {e: c for e, c in terms.items() if c}
        if den < 0:
            den, terms = -den, _tneg(terms)
        p = Poly._trusted(ring, terms, den)
        self.ring, self.terms, self.den = ring, p.terms, p.den

    @classmethod
    def _trusted(cls, ring, terms, den=1):
        """Poly(ring, terms, den) for kernel output: terms has no zero
        coefficient and den > 0, reduced by _lowest."""
        p = cls.__new__(cls)
        p.ring = ring
        p.terms, p.den = _lowest(terms, den)
        return p

    def known_split(self):
        """(a, k) with terms == c * x^a * F^k, c the leading coefficient (see
        Ring._known_split); False when the terms are not of that form."""
        return self.ring._known_split(self.terms) or False

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
        names, o = self.ring.names, 0
        for e in self.terms:
            o |= e
        return [names[i] for i, _ in _powers(o, len(names))]

    def weighted_degrees(self, w):
        """Set of the weighted degrees of the terms; w maps names to integer
        weights, and a name missing from w weighs 0."""
        wt = [w.get(nm, 0) for nm in self.ring.names]
        return {sum(wt[i] * k for i, k in _powers(e, len(wt)))
                for e in self.terms}

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
                   tuple((names[i], k) for i, k in _powers(e, len(names))))

    # -- arithmetic ---------------------------------------------------------
    def _chk(self, other):
        if self.ring is not other.ring:
            raise KernelInvariant("mixed rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
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
        if not isinstance(other, Poly):
            return NotImplemented
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
        if isinstance(other, Poly):
            if self.ring is not other.ring:
                return False
            if self.den == other.den and self.terms == other.terms:
                return True
            # different terms are a different value unless either leaves a
            # pivot square unreduced
            red = self.ring.reduce_terms
            if not (red(self.terms)[1] or red(other.terms)[1]):
                return False
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        from .ratfn import RatFn  # by value, as __hash__ reads it
        return RatFn(self) == other

    def __hash__(self):
        # as the value it equals: a constant as its number, and a pivot
        # square, left unreduced here, as the RatFn that reduces it
        if self.is_const:
            return hash(self.const_value())
        if self.ring.reduce_terms(self.terms)[1]:
            from .ratfn import RatFn  # local import to avoid a cycle
            return hash(RatFn(self))
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
