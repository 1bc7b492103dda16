"""Exact multivariate polynomial arithmetic over Q, with an optional quadratic slot relation.

A polynomial is a dict mapping exponent tuples to nonzero ints plus a positive integer
denominator, with gcd(content, denominator) == 1.  All heavy arithmetic stays in the
integers; rational coefficients enter only through that single denominator.

Monomial order: graded lex, ties broken by the exponent of the highest variable first.
Variables are ordered by their position in Ring.names (earlier = lower).

A ring may name one known irreducible factor F = x^r - x_v.  Ring.cancel then
finds the gcd with a denominator c * x^a * F^k by exact division by F, not by
a multivariate gcd (see Ring).

Boundary: only this module knows that a monomial is an exponent tuple and how
monomials are ordered.  Other modules name variables and use
  Ring: var, const, with_relation, extend, factor_pow, cancel, has_pivot (the
        pivot test) and rationalize (the conjugate step after reduce_terms);
  Poly: arithmetic, divmod (division with remainder), derive, eval, lift (also
        down to a prefix ring), support, weighted_degrees, coeffs (over
        one variable), items (the terms in order, each a coefficient and
        (name, power) pairs), is_zero, is_const and const_value.
ratfn alone also hands term dicts, as opaque values, to _tadd, _tmul, _tscale
and _primitive, so that its Henrici sums and products build no Poly per
operation.  Exponent tuples enter only as constructor input: the relation and
the known factor of Ring(...), which geometry and the tests spell out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm
from operator import add as _iadd, mul as _imul, sub as _isub

from .errors import DworkError, KernelInvariant


# ---------------------------------------------------------------------------
# term-dict helpers (dict[tuple[int, ...], int], coefficients never zero)

def _ordkey(e):
    return (sum(e), e[::-1])


def _lead(T):
    """Exponent tuple of the largest monomial."""
    return max(T, key=_ordkey)


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
        if not any(eb):
            return {e: c * cb for e, c in A.items()}
        return {tuple(map(_iadd, e, eb)): c * cb for e, c in A.items()}
    out = {}
    get = out.get
    for eb, cb in B.items():
        for ea, ca in A.items():
            e = tuple(map(_iadd, ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _tpow(A, k):
    if k == 0:
        if not A:
            raise ValueError("0^0 of an empty term dict (width unknown)")
        return {(0,) * len(next(iter(A))): 1}
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
    if T and T[_lead(T)] < 0:
        c = -c
    return c, (T if c == 1 else {e: x // c for e, x in T.items()})


def _tderive(T, v):
    out = {}
    for e, c in T.items():
        k = e[v]
        if k:
            e2 = e[:v] + (k - 1,) + e[v + 1:]
            s = out.get(e2, 0) + c * k
            if s:
                out[e2] = s
            else:
                del out[e2]
    return out


def _teval(T, point):
    """Evaluate at a tuple of Fractions."""
    total = Fraction(0)
    for e, c in T.items():
        v = Fraction(c)
        for x, k in zip(point, e):
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
    eB = _lead(B)
    cB = B[eB]
    Q = {}
    R = dict(A)
    while R:
        eR = _lead(R)
        diff = tuple(x - y for x, y in zip(eR, eB))
        if any(x < 0 for x in diff):
            return None
        q, rem = divmod(R[eR], cB)
        if rem:
            return None
        Q[diff] = q
        for e, c in B.items():
            e2 = tuple(x + y for x, y in zip(e, diff))
            s = R.get(e2, 0) - q * c
            if s:
                R[e2] = s
            else:
                del R[e2]
    return Q


def _tdiv_strict(A, B):
    """Quotient of a division known to be exact; KernelInvariant if it is not."""
    Q = _tdiv_exact(A, B)
    if Q is None:
        raise KernelInvariant("division expected to be exact left a remainder")
    return Q


def _tdiv_known(T, r, v):
    """T / (x^r - x_v) for a monomial x^r free of x_v, or None when the division
    leaves a remainder.  Synthetic division in x_v: for T = sum a_i x_v^i, the
    quotient's coefficients run from the top as q_(i-1) = x^r q_i - a_i, and
    the division is exact when a_0 = x^r q_0.  Exact division needs T to
    vanish at x_v = x^r, so also under x_j -> t^(w_j), x_v -> t^(w.r) for any
    weights w; one pass over T tests that first and rejects most T."""
    w = [3 ** j for j in range(len(r))]
    w[v] = sum(map(_imul, w, r))
    image = {}
    for e, c in T.items():
        k = sum(map(_imul, e, w))
        image[k] = image.get(k, 0) + c
    if any(image.values()):
        return None
    U = _uni_view(T, v)
    Q, q = {}, {}
    for i in range(max(U), 0, -1):
        q = {tuple(map(_iadd, e, r)): c for e, c in q.items()}
        for e, c in U.get(i, {}).items():
            s = q.get(e, 0) - c
            if s:
                q[e] = s
            else:
                del q[e]
        Q[i - 1] = q
    if {tuple(map(_iadd, e, r)): c for e, c in q.items()} != U.get(0, {}):
        return None
    return _uni_join(Q, v)


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
# A denominator of the form c * x^a * F^k, F a ring's known factor, never
# comes here: Ring.cancel finds its gcd exactly (see Ring).

def _uni_view(T, v):
    """Split T into dict deg_v -> coefficient term-dict (v-exponent zeroed)."""
    out = {}
    for e, c in T.items():
        k = e[v]
        base = e[:v] + (0,) + e[v + 1:]
        out.setdefault(k, {})[base] = c
    return out


def _uni_join(U, v):
    out = {}
    for k, coeff in U.items():
        for e, c in coeff.items():
            out[e[:v] + (k,) + e[v + 1:]] = c
    return out


def _prem(A, B, nv):
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
        if g == {(0,) * nv: 1}:
            break
    return g


def _subres_prim_gcd(A, B, nv):
    """Primitive gcd in the main variable of two primitive univariate views (or None for 1)."""
    if max(A) < max(B):
        A, B = B, A
    one = {(0,) * nv: 1}
    g, h = one, one
    while True:
        delta = max(A) - max(B)
        R = _prem(A, B, nv)
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


def _mono_gcd(A, B):
    """Exponent tuple of the largest monomial dividing both A and B."""
    return tuple(map(min, map(min, zip(*A)), map(min, zip(*B))))


def _tgcd(A, B, nv):
    """Gcd of integer term dicts, sign-normalized to positive leading coefficient."""
    if not A or not B:
        c, P = _primitive(A or B)
        return _tscale(P, abs(c))
    zero = (0,) * nv
    if len(A) == 1 and zero in A or len(B) == 1 and zero in B:
        return {zero: igcd(_content(A), _content(B))}

    mono = _mono_gcd(A, B)
    if any(mono):
        A = {tuple(x - y for x, y in zip(e, mono)): c for e, c in A.items()}
        B = {tuple(x - y for x, y in zip(e, mono)): c for e, c in B.items()}

    ca, A = _primitive(A)
    cb, B = _primitive(B)
    c = igcd(ca, cb)

    def done(prim):
        # prim is primitive here, so _primitive only fixes its sign
        prim = _primitive(prim)[1]
        return _tmul(prim, {mono: c}) if (any(mono) or c != 1) else prim

    if len(A) == 1 or len(B) == 1:
        return done({_mono_gcd(A, B): 1})
    if A == B or _tdiv_exact(A, B) is not None:
        return done(B)
    if _tdiv_exact(B, A) is not None:
        return done(A)

    sa = [i for i, col in enumerate(zip(*A)) if any(col)]
    sb = [i for i, col in enumerate(zip(*B)) if any(col)]
    shared = [i for i in sa if i in sb]
    if not shared:
        return done({zero: 1})
    if len(sa) > len(shared) or len(sb) > len(shared):
        # The fold is already primitive and free of monomial factors: both
        # would divide A and B, whose common ones were stripped above.
        parts = sorted(_split_off(A, sa, shared) + _split_off(B, sb, shared),
                       key=len)
        g = parts[0]
        for part in parts[1:]:
            if g == {zero: 1}:
                break
            g = _tgcd(g, part, nv)
        return done(g)
    v = min(shared, key=lambda i: max(e[i] for e in A) + max(e[i] for e in B))

    UA, UB = _uni_view(A, v), _uni_view(B, v)
    contA = _coeff_gcd(UA, nv)
    contB = _coeff_gcd(UB, nv)
    cont = _tgcd(contA, contB, nv)
    if contA != {zero: 1}:
        UA = {d: _tdiv_strict(cf, contA) for d, cf in UA.items()}
    if contB != {zero: 1}:
        UB = {d: _tdiv_strict(cf, contB) for d, cf in UB.items()}
    prim = _subres_prim_gcd(UA, UB, nv)
    if prim is None:
        res = cont
    else:
        pc = _coeff_gcd(prim, nv)
        if pc != {zero: 1}:
            prim = {d: _tdiv_strict(cf, pc) for d, cf in prim.items()}
        res = _tmul(cont, _uni_join(prim, v))
    return done(res)


def _split_off(T, support, keep):
    """Coefficients of T over its variables outside keep, as term dicts in the
    keep variables (support lists the variables occurring in T)."""
    drop = [i for i in support if i not in keep]
    if not drop:
        return [T]
    out = {}
    for e, c in T.items():
        base = list(e)
        for i in drop:
            base[i] = 0
        out.setdefault(tuple(e[i] for i in drop), {})[tuple(base)] = c
    return list(out.values())


# ---------------------------------------------------------------------------

class Ring:
    """Ordered variable context.  May carry one relation pivot^2 = rel_num/rel_den
    (both sides free of the pivot) used to reduce pivot powers eagerly.

    May also carry one known factor F = x^r - x_v, given as factor=(r, v): an
    exponent tuple r free of x_v whose monomial leads F.  F is irreducible,
    being linear in x_v with coprime coefficients x^r and -1, and it is prime
    to every monomial and integer.  So for D = c * x^a * F^k,
    gcd(N, D) = igcd(content N, c) * x^min(a, ord N) * F^j, with j the largest
    power up to k that divides N, and cancel() finds it without _tgcd."""

    __slots__ = ("names", "index", "pivot", "rel_num", "rel_den", "_relpow",
                 "factor", "_fpow", "zero", "one")

    def __init__(self, names, pivot=None, rel_num=None, rel_den=None,
                 factor=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.index = {s: i for i, s in enumerate(self.names)}
        self.pivot = pivot
        self.rel_num = rel_num
        self.rel_den = rel_den
        self._relpow = {0: ({(0,) * len(self.names): 1}, {(0,) * len(self.names): 1})}
        self.zero = Poly(self, {}, 1)
        self.one = Poly(self, {(0,) * len(self.names): 1}, 1)
        self.factor = factor
        if factor is not None:
            r, v = factor
            F = {r: 1, tuple(int(i == v) for i in range(len(r))): -1}
            if len(r) != len(self.names) or r[v] or _lead(F) != r:
                raise ValueError("known factor: x^r must be free of x_v and lead")
            self._fpow = [self.one.terms, F]

    @property
    def nvars(self):
        return len(self.names)

    def var(self, name):
        i = self.index[name]
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {e: 1}, 1)

    def const(self, q):
        q = Fraction(q)
        if q == 0:
            return self.zero
        return Poly(self, {(0,) * self.nvars: q.numerator}, q.denominator)

    def with_relation(self, pivot_name, num, den):
        """New ring over the same variables where pivot^2 = num/den (Poly args)."""
        p = self.index[pivot_name]
        cn, RN = _primitive(_tscale(num.terms, den.den))
        cd, RD = _primitive(_tscale(den.terms, num.den))
        q = Fraction(cn, cd)
        RN, RD = _tscale(RN, q.numerator), _tscale(RD, q.denominator)
        if any(e[p] for e in RN) or any(e[p] for e in RD):
            raise ValueError("relation touches the pivot")
        return Ring(self.names, pivot=p, rel_num=RN, rel_den=RD,
                    factor=self.factor)

    def extend(self, extra):
        """New ring with extra variables appended; relation and known factor
        carry over."""
        pad = (0,) * len(extra)
        rel = {}
        if self.pivot is not None:
            rel = dict(pivot=self.pivot,
                       rel_num={e + pad: c for e, c in self.rel_num.items()},
                       rel_den={e + pad: c for e, c in self.rel_den.items()})
        factor = self.factor and (self.factor[0] + pad, self.factor[1])
        return Ring(self.names + tuple(extra), factor=factor, **rel)

    def factor_pow(self, k):
        """Term dict of F^k for the known factor F, cached.  Its first term is
        x^(rk), with coefficient 1."""
        P = self._fpow
        r, xv = P[1]  # the exponents of F, x^r first
        while len(P) <= k:
            # F^j = x^r F^(j-1) - x_v F^(j-1)
            Fj = {tuple(map(_iadd, e, r)): c for e, c in P[-1].items()}
            for e, c in P[-1].items():
                e = tuple(map(_iadd, e, xv))
                Fj[e] = Fj.get(e, 0) - c
            P.append(Fj)
        return P[k]

    def _known_split(self, D):
        """(c, a, k) with D == c * x^a * F^k, or None when the ring has no known
        factor or D is not of that form.  F^k has k + 1 terms and spans degree k
        in x_v, so a D that matches is compared term by term, in O(|D|)."""
        if self.factor is None:
            return None
        v = self.factor[1]
        cols = list(zip(*D))
        a = tuple(map(min, cols))
        k = max(cols[v]) - a[v]
        if len(D) != k + 1:
            return None
        Fk = self.factor_pow(k)
        keys = [tuple(map(_iadd, e, a)) for e in Fk] if any(a) else list(Fk)
        c = D.get(keys[0])
        if c is not None and all(D.get(e) == c * f
                                 for e, f in zip(keys, Fk.values())):
            return c, a, k
        return None

    def cancel(self, N, D):
        """(g, N/g, D/g) for g = gcd(N, D) of nonzero integer term dicts, g as
        _tgcd gives it; N and D come back as they are when g = 1.  A D of the
        form c * x^a * F^k takes the known-factor rule of the class docstring,
        any other D takes _tgcd and two exact divisions."""
        one = self.one.terms
        known = self._known_split(D)
        if known is None:
            g = _tgcd(N, D, self.nvars)
            if g == one:
                return g, N, D
            return g, _tdiv_strict(N, g), _tdiv_strict(D, g)
        c, a, k = known
        cg = 1 if c in (1, -1) else igcd(_content(N), c)
        m = tuple(map(min, a, map(min, zip(*N)))) if any(a) else a
        if cg > 1 or any(m):
            N = {tuple(map(_isub, e, m)): x // cg for e, x in N.items()}
        j = 0
        while j < k:
            Q = _tdiv_known(N, *self.factor)
            if Q is None:
                break
            N, j = Q, j + 1
        if cg == 1 and j == 0 and not any(m):
            return one, N, D
        g = {tuple(map(_iadd, e, m)): cg * f for e, f in self.factor_pow(j).items()}
        rest = tuple(map(_isub, a, m))
        D = {tuple(map(_iadd, e, rest)): c // cg * f
             for e, f in self.factor_pow(k - j).items()}
        return g, N, D

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
        kmax = 0
        for e in T:
            k = e[p] // 2
            if k > kmax:
                kmax = k
        if kmax == 0:
            return T, 0
        out = {}
        for e, c in T.items():
            k = e[p] // 2
            r = e[p] - 2 * k
            base = e[:p] + (r,) + e[p + 1:]
            numk, _ = self._rel_pow(k)
            _, denk = self._rel_pow(kmax - k)
            factor = _tmul(numk, denk)
            for ef, cf in factor.items():
                e2 = tuple(x + y for x, y in zip(ef, base))
                s = out.get(e2, 0) + c * cf
                if s:
                    out[e2] = s
                else:
                    del out[e2]
        return out, kmax

    def has_pivot(self, T):
        """Whether the relation pivot occurs in the term dict T."""
        p = self.pivot
        return p is not None and any(e[p] for e in T)

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
            p = self.pivot
            conj = {e: (-c if e[p] else c) for e, c in D.items()}
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

    __slots__ = ("ring", "terms", "den")

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

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        T = self.terms
        return not T or (len(T) == 1 and not any(next(iter(T))))

    def const_value(self):
        if not self.is_const:
            raise ValueError("not a constant")
        if not self.terms:
            return Fraction(0)
        return Fraction(next(iter(self.terms.values())), self.den)

    def support(self):
        """Names of the variables that occur, in ring order."""
        return [nm for nm, col in zip(self.ring.names, zip(*self.terms))
                if any(col)]

    def weighted_degrees(self, w):
        """Set of the weighted degrees of the terms; w maps names to integer
        weights, and a name missing from w weighs 0."""
        wt = [w.get(nm, 0) for nm in self.ring.names]
        return {sum(map(_imul, e, wt)) for e in self.terms}

    def coeffs(self, var):
        """{k: coefficient of var^k}, each a Poly free of var; {} for zero."""
        U = _uni_view(self.terms, self.ring.index[var])
        return {k: Poly(self.ring, T, self.den) for k, T in U.items()}

    def items(self):
        """(coefficient, ((name, power), ...)) for each term in ascending
        graded-lex order, the powers nonzero and in ring order.  A coefficient
        is an int when den == 1, else a Fraction."""
        names, den = self.ring.names, self.den
        for e, c in sorted(self.terms.items(), key=lambda t: _ordkey(t[0])):
            yield (c if den == 1 else Fraction(c, den),
                   tuple((nm, k) for nm, k in zip(names, e) if k))

    # -- arithmetic ---------------------------------------------------------
    def _chk(self, other):
        if self.ring is not other.ring:
            raise KernelInvariant("mixed rings")

    def __add__(self, other):
        self._chk(other)
        a, b = self, other
        T = _tadd(_tscale(a.terms, b.den), _tscale(b.terms, a.den))
        return Poly(self.ring, T, a.den * b.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        p = Poly.__new__(Poly)
        p.ring, p.terms, p.den = self.ring, _tneg(self.terms), self.den
        return p

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly(self.ring, _tscale(self.terms, q.numerator),
                        self.den * q.denominator)
        self._chk(other)
        return Poly(self.ring, _tmul(self.terms, other.terms), self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """(q, r) with self == q * other + r, by repeated division of the
        leading term by the leading term of other, so that no term of r is
        divisible by the leading monomial of other."""
        self._chk(other)
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        d = {e: Fraction(c, other.den) for e, c in other.terms.items()}
        e0 = _lead(d)
        c0 = d.pop(e0)
        p = {e: Fraction(c, self.den) for e, c in self.terms.items()}
        q, r = {}, {}
        while p:
            e = _lead(p)
            cf = p.pop(e)
            qe = tuple(map(_isub, e, e0))
            if any(x < 0 for x in qe):
                r[e] = cf
                continue
            qc = q[qe] = cf / c0
            for ed, cd in d.items():
                te = tuple(map(_iadd, qe, ed))
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
        return Poly(self.ring, _tpow(self.terms, k), self.den ** k)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ring is other.ring and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ring), self.den, frozenset(self.terms.items())))

    def derive(self, var):
        v = self.ring.index[var]
        p = Poly.__new__(Poly)
        p.ring, p.terms, p.den = self.ring, _tderive(self.terms, v), self.den
        return p if p.terms else self.ring.zero

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
        prefix of them; DworkError when a dropped variable occurs."""
        src, k = self.ring.names, ring.nvars
        if src[:k] != ring.names[:len(src)]:
            raise KernelInvariant("not a prefix extension")
        T = self.terms
        if k > len(src):
            T = {e + (0,) * (k - len(src)): c for e, c in T.items()}
        elif k < len(src):
            for nm in self.support():
                if nm not in ring.index:
                    raise DworkError(f"cannot drop the variable {nm!r}: it occurs")
            T = {e[:k]: c for e, c in T.items()}
        return Poly(ring, T, self.den)

    def __repr__(self):
        from .ratfn import poly_string  # local import to avoid a cycle
        s = poly_string(self * self.den)
        return s if self.den == 1 else f"({s})/{self.den}"
