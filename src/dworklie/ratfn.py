"""Rational functions over a Ring, kept in a canonical normal form.

A canonical fraction is T / (c * x^a * F^k), F a ring's known factor (a
chart ring's disc), T an integer term dict and c > 0 an int prime to T's
content.  A RatFn is one object whose slots hold the ring, T (terms), c and
the split (a, k) of x^a * F^k (Ring), so each result is one allocation.
Invariants after every operation: the denominator shares no factor with the
numerator, and in a ring with a slot relation it is free of the pivot and
the numerator has pivot degree <= 1; zero is no terms over 1 with the unit
split.  Equality of canonical forms is therefore equality of (terms, c,
split).  RatFn is the one value type: a polynomial is a RatFn over the
unit split, and RatFn.num, T / c, and RatFn.den, x^a * F^k, are such
polynomials, canonical values built on each read.  The polynomial readers
items, weighted_degrees and divmod raise ValueError on any other value.
The operators and RatFn.of take RatFns, ints and Fractions.  One route
evaluates: subs puts values for variables through ring._teval, over the
terms and over x^a * F^k, and eval is subs at a full point.

One route reduces a fraction.  The one constructor, RatFn(ring, terms,
den), builds a polynomial: its pivot squares are rewritten by
Ring.reduce_split, and it takes one cancel against the power of rel_den
that brings.  A quotient is a division: a divisor must have a split, c *
x^a * F^k, c its leading coefficient, which moves into the numerator
(Ring._known_split).  Ring.cancel_split cancels against x^a * F^k from the
exponents, since only the monomial and a power of the irreducible F can
cancel, and leaves a split.  An inverse whose divisor has no split raises
UnsplitDenominator, whatever the numerator, zero included; the kernel has
no general gcd.

Sums over split denominators follow Henrici (J. ACM 3, 1956): for canonical
a/b and c/d with g = gcd(b, d), taken from the exponents (Ring.split_gcd),
the sum is t/(b*(d/g)) with t = a*(d/g) + c*(b/g), and only gcd(t, g) can
cancel, since t is coprime to both b/g and d/g.  The denominator stays
pivot-free, and t keeps pivot degree <= 1, because b and d are pivot-free.

Constants take integer arithmetic: a constant p/q is the terms {0: p} (none
for 0) over c = q with the unit split, read as the two ints p and c, and a
sum, product or dot of constants is one integer cross-multiplication and
one gcd (_const).  The inverse of N/D with N = c * x^a * F^k free of the
pivot is (D/c)/(x^a * F^k), since x^a * F^k is prime to D; a constant's
inverse swaps its ints.  A numerator N that carries the pivot is inverted
through its conjugate (Ring.conjugate): 1/N = conj(N)/(N * conj(N)), where
the norm N * conj(N) is free of the pivot once Ring.reduce_split rewrites
its pivot square.  The norm must have a split, and the result takes one
cancel against it.

Products follow Henrici's rule too.  A constant factor is a unit: it scales
the other numerator and takes no gcd, and a factor 1 returns the other
operand.  Otherwise, with g1 = gcd(a, d) and g2 = gcd(c, b), the product
(a/g1)(c/g2) / ((b/g2)(d/g1)) is canonical: each numerator factor is
coprime to both denominator factors, and the denominator's split is the
sum of theirs (Ring.split_mul).  Where both numerators carry a relation
pivot, the product has pivot degree 2: Ring.reduce_split rewrites the pivot
square, which divides by a power of the relation's rel_den, a split too
(Ring), and the reduced product takes one cancel against (b/g2)(d/g1)
times that split.

dot(ring, pairs) sums the products a*b over one common denominator: the
numerators multiply with no cross gcd (a pivot square reduced as in a
product, its power of rel_den one more split of that product; a constant
factor joins the integer weight instead), each is scaled by its cofactor in
the lcm x^max(a) * F^max(k) of the products' splits (Ring.split_lcm),
and the sum takes one cancel against the lcm, where k sequential products
and sums take 3k - 1.  A single nonzero product is a * b, whose cross gcds
keep its operands small and whose constant factors are units.

The derivative by v of p/q with q = x^a * F^k split follows the logarithmic
derivative q'/q = a_v/x_v + k F'/F:

    (p/q)' = (x_v F p' - a_v F p - k x_v F' p) / (x^(a + e_v) F^(k+1)),

where x_v (or F) stays out of both sides when a_v (or k F') is 0, and when
both are 0 the result is p'/q.  The denominator is split again, so one
cancel against it reduces the result.  A relation pivot is an independent
slot here, and q and F are pivot-free, so the derivative by the pivot is
p'/q, and the numerator keeps pivot degree <= 1.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd as igcd, lcm, log10

from .errors import DworkError, KernelInvariant, UnsplitDenominator
from .ring import _UNIT, DEGREE_LIMIT, _lowest, _primitive, _tadd, \
    _tdivmod, _teval, _titems, _tmul, _tneg, _tscale, _tsum, _tsupport, \
    _tweighted


class RatFn:
    __slots__ = ("ring", "terms", "c", "split")

    def __init__(self, ring, terms, den=1):
        """The polynomial terms / den over ring, for an integer term dict
        terms and a nonzero int den, its pivot squares rewritten."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        terms = {e: c for e, c in terms.items() if c}
        if den < 0:
            den, terms = -den, _tneg(terms)
        T, q, split = ring.reduce_split(terms)
        r = _over_split(ring, T, den * q, split)
        self.ring, self.terms, self.c, self.split = ring, r.terms, r.c, r.split

    @property
    def num(self):
        """The numerator terms / c, a polynomial."""
        return _raw(self.ring, self.terms, self.c, _UNIT)

    @property
    def den(self):
        """The denominator x^a * F^k, a polynomial."""
        return _raw(self.ring, self.ring.split_terms(self.split), 1, _UNIT)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        T = self.terms
        return self.split == _UNIT and (not T or len(T) == 1 and 0 in T)

    def const_value(self):
        if not self.is_const:
            raise ValueError("not a constant")
        return Fraction(self.terms.get(0, 0), self.c)

    def support(self):
        """Names of the variables in the numerator or the denominator, in
        ring order; empty for a constant."""
        ring = self.ring
        keys = {**self.terms, **ring.split_terms(self.split)}
        return _tsupport(keys, ring.names)

    # -- polynomial readers -------------------------------------------------
    def _polynomial(self):
        if self.split != _UNIT:
            raise ValueError(f"not a polynomial: {self!r}")

    def items(self):
        """The terms of a polynomial in ascending order (ring._titems)."""
        self._polynomial()
        return _titems(self.terms, self.c, self.ring.names)

    def weighted_degrees(self, w):
        """The weighted degrees of a polynomial's terms (ring._tweighted)."""
        self._polynomial()
        return _tweighted(self.terms, w, self.ring.names)

    def __divmod__(self, other):
        """(q, r) with self == q * other + r for polynomials, by the division
        of ring._tdivmod, each of q and r then normalised; ValueError where
        the relation makes q or r a fraction (the division ignores it)."""
        if self.ring is not other.ring:
            raise KernelInvariant("mixed rings")
        self._polynomial()
        other._polynomial()
        ring = self.ring
        (Q, q), (R, r) = _tdivmod(self.terms, self.c, other.terms, other.c)
        out = RatFn(ring, Q, q), RatFn(ring, R, r)
        for v in out:
            v._polynomial()
        return out

    # -- constructors -------------------------------------------------------
    @staticmethod
    def of(ring, value):
        """Lift an int or a Fraction to a RatFn; a RatFn is returned as it
        is, and any other value raises TypeError."""
        if isinstance(value, RatFn):
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"not an int, a Fraction or a RatFn: {value!r}")
        return _raw(ring, {0: value.numerator} if value else {},
                    value.denominator, _UNIT)

    @staticmethod
    def var(ring, name):
        return _raw(ring, ring.var(name), 1, _UNIT)

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, (RatFn, int, Fraction)):
            return RatFn.of(self.ring, other)
        return None

    def __add__(self, other):
        b = other if type(other) is RatFn else self._coerce(other)
        if b is None:
            return NotImplemented
        a, ring = self, self.ring
        if b.ring is not ring:
            raise KernelInvariant("mixed rings")
        A, B = a.terms, b.terms
        if not A:
            return b
        if not B:
            return a
        if (0 in A and 0 in B and len(A) == len(B) == 1
                and a.split == _UNIT == b.split):
            return _const(ring, A[0] * b.c + B[0] * a.c, a.c * b.c)
        # Henrici addition, see the module docstring
        gs, sb, sd = ring.split_gcd(a.split, b.split)
        T = _tadd(_tscale(_tmul(A, ring.split_terms(sd)), b.c),
                  _tscale(_tmul(B, ring.split_terms(sb)), a.c))
        if not T:
            return _raw(ring, T, 1, _UNIT)
        # b*(d/g)/h with h = gcd(T, g) is (b/g)*(d/g)*(g/h)
        T, gs = ring.cancel_split(T, gs)
        return _lowest_raw(ring, T, a.c * b.c, ring.split_mul(sb, sd, gs))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is RatFn else self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        if not self.terms:
            return self
        return _raw(self.ring, _tneg(self.terms), self.c, self.split)

    def __mul__(self, other):
        b = other if type(other) is RatFn else self._coerce(other)
        if b is None:
            return NotImplemented
        a, ring = self, self.ring
        if b.ring is not ring:
            raise KernelInvariant("mixed rings")
        A, C = a.terms, b.terms
        if not A or not C:
            return _raw(ring, {}, 1, _UNIT)
        ka = 0 in A and len(A) == 1 and a.split == _UNIT
        kc = 0 in C and len(C) == 1 and b.split == _UNIT
        if ka and kc:
            return _const(ring, A[0] * C[0], a.c * b.c)
        # product rule, see the module docstring
        if ka:
            a, b, A, C = b, a, C, A
        if ka or kc:
            if C[0] == 1 == b.c:
                return a
            return _lowest_raw(ring, _tscale(A, C[0]), a.c * b.c, a.split)
        A, sd = ring.cancel_split(A, b.split)
        C, sb = ring.cancel_split(C, a.split)
        nd = a.c * b.c
        if ring.has_pivot(A) and ring.has_pivot(C):
            T, q, sr = ring.reduce_split(_tmul(A, C))
            return _over_split(ring, T, nd * q, ring.split_mul(sb, sd, sr))
        return _lowest_raw(ring, _tmul(A, C), nd, ring.split_mul(sb, sd))

    __rmul__ = __mul__

    def inverse(self):
        if not self.terms:
            raise ZeroDivisionError("inverse of zero")
        ring, P = self.ring, self.terms
        if 0 in P and len(P) == 1 and self.split == _UNIT:
            p = P[0]
            return _const(ring, self.c if p > 0 else -self.c, abs(p))
        D = ring.split_terms(self.split)
        if not ring.has_pivot(P):
            c, split = _split(ring, P)
            q = self.c if c > 0 else -self.c
            return _lowest_raw(ring, _tscale(D, q), abs(c), split)
        C = ring.conjugate(P)
        N, q, sr = ring.reduce_split(_tmul(P, C))
        if not N:
            raise ZeroDivisionError("inverse of a zero divisor")
        c, split = _split(ring, N)
        q = self.c * q if c > 0 else -self.c * q
        M = _tmul(_tmul(D, C), ring.split_terms(sr))
        return _over_split(ring, _tscale(M, q), abs(c), split)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = RatFn.of(self.ring, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if other is self:
            return True
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.ring is o.ring and self.c == o.c
                and self.split == o.split and self.terms == o.terms)

    def __hash__(self):
        # a constant as the Fraction it equals
        if self.is_const:
            return hash(Fraction(self.terms.get(0, 0), self.c))
        return hash((frozenset(self.terms.items()), self.c, self.split))

    # -- calculus / evaluation ---------------------------------------------
    def derive(self, var):
        """Formal partial derivative; a relation pivot counts as an independent
        slot.  See the module docstring for the rule."""
        ring = self.ring
        N, split = ring.derive_split(self.terms, self.split, var)
        return _over_split(ring, N, self.c, split)

    def subs(self, mapping):
        """The value with mapping's values (ints, Fractions or RatFns) put
        for its variables, the others staying: terms / c over x^a * F^k,
        each evaluated by ring._teval.  KeyError for a name outside the
        ring, TypeError (RatFn.of) for any other value."""
        ring = self.ring
        for name in mapping:
            if name not in ring.index:
                raise KeyError(name)
        point = tuple(RatFn.of(ring, mapping[nm]) if nm in mapping
                      else RatFn.var(ring, nm) for nm in ring.names)
        return RatFn.of(ring, _teval(self.terms, point)) / (
            self.c * _teval(ring.split_terms(self.split), point))

    def eval(self, point):
        """The Fraction subs gives at point, a dict name -> value covering
        every variable that occurs; DworkError names the first one missing.
        ZeroDivisionError where the denominator vanishes."""
        for nm in self.support():
            if nm not in point:
                raise DworkError(f"no value given for the variable {nm!r}")
        return self.subs(point).const_value()

    def lift(self, ring):
        lift = self.ring.lift_terms
        D = lift(self.ring.split_terms(self.split), ring)
        return RatFn(ring, lift(self.terms, ring), self.c) / RatFn(ring, D)

    def __repr__(self):
        return ratfn_string(self)


# ---------------------------------------------------------------------------
# normalization

def _raw(ring, T, c, split):
    """The RatFn T / (c * x^a * F^k) in canonical form: T an integer term
    dict, c > 0 an int prime to its content, and split = (a, k)."""
    r = RatFn.__new__(RatFn)
    r.ring, r.terms, r.c, r.split = ring, T, c, split
    return r


def _lowest_raw(ring, T, nd, split):
    """_raw for T and an int nd > 0 that may share a factor with T's
    content."""
    T, c = _lowest(T, nd)
    return _raw(ring, T, c, split)


def _const(ring, p, q):
    """The constant p/q for ints p and q > 0, reduced by one gcd."""
    g = igcd(p, q)
    return _raw(ring, {0: p // g} if p else {}, q // g, _UNIT)


def _split(ring, T):
    """(c, split) for the pivot-free term dict T = c * x^a * F^k, c its
    leading coefficient; UnsplitDenominator if it has none."""
    s = ring._known_split(T)
    if not s:
        D = poly_string(ring, _primitive(T)[1])
        raise UnsplitDenominator(f"denominator {D} has no split c * x^a * F^k")
    return T[max(T)], s


def _over_split(ring, T, nd, split):
    """The canonical RatFn T / (nd * D), D given by split, for the integer
    term dict T of pivot degree <= 1 and the int nd > 0: one cancel."""
    if not T:
        return _raw(ring, T, 1, _UNIT)
    T, split = ring.cancel_split(T, split)
    return _lowest_raw(ring, T, nd, split)


def dot(ring, pairs):
    """Sum of a * b over the (a, b) pairs of RatFns in ring, over one
    common denominator; see the module docstring."""
    p, q, rest = 0, 1, []
    for a, b in pairs:
        if a.ring is not ring or b.ring is not ring:
            raise KernelInvariant("mixed rings")
        A, B = a.terms, b.terms
        ka = 0 in A and len(A) == 1 and a.split == _UNIT
        kb = 0 in B and len(B) == 1 and b.split == _UNIT
        if ka and kb:
            d = a.c * b.c
            p, q = p * d + A[0] * B[0] * q, q * d
        elif A and B:
            rest.append((b, a, True) if ka else (a, b, kb))
    if not rest:
        return _const(ring, p, q)
    if len(rest) == 1 and not p:
        return rest[0][0] * rest[0][1]
    fused = [({0: p}, q, (), 1)] if p else []
    for a, b, k in rest:
        A, C, nd = a.terms, b.terms, a.c * b.c
        if k:  # b is a constant: its integer joins the weight
            fused.append((A, nd, (a.split,), C[0]))
            continue
        T, r, splits = _tmul(A, C), 1, (a.split, b.split)
        if ring.has_pivot(A) and ring.has_pivot(C):
            T, r, sr = ring.reduce_split(T)
            splits += (sr,)
        fused.append((T, nd * r, splits, 1))
    L, cofs = ring.split_lcm([s for _, _, s, _ in fused])
    nd = lcm(*(d for _, d, _, _ in fused))
    T = _tsum((N if cof is None else _tmul(N, cof), k * (nd // d))
              for (N, d, _, k), cof in zip(fused, cofs))
    return _over_split(ring, T, nd, L)


# ---------------------------------------------------------------------------
# canonical serialization

def _text_frac(ns, ds):
    # terms are joined by " + " or " - ", a power or product shows "^" or "*";
    # what has none of them is one term: an integer or a bare variable
    if " " in ns:
        ns = f"({ns})"
    if any(ch in ds for ch in " *^"):
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _latex_var(nm):
    head = nm.rstrip("0123456789")
    tail = nm[len(head):]
    return f"{head}_{{{tail}}}" if tail else head


# How the one printer spells a variable, a power (format string over the
# spelled variable and the exponent), the product separator, and a fraction
# (from the two spelled polynomials).
Spelling = namedtuple("Spelling", "var power sep frac")
TEXT = Spelling(str, "{}^{}", "*", _text_frac)
LATEX = Spelling(_latex_var, "{}^{{{}}}", " ",
                 lambda ns, ds: "\\frac{%s}{%s}" % (ns, ds))


def _mono_string(c, powers, sp):
    parts = [sp.var(nm) if k == 1 else sp.power.format(sp.var(nm), k)
             for nm, k in powers]
    ac = abs(c)
    if ac != 1 or not parts:
        parts.insert(0, str(ac))
    return sp.sep.join(parts)


def poly_string(ring, T, spelling=TEXT):
    """Listing of the integer term dict T of ring in ascending graded-lex
    order."""
    out = []
    for c, powers in _titems(T, 1, ring.names):
        m = _mono_string(c, powers, spelling)
        if not out:
            out.append(f"-{m}" if c < 0 else m)
        else:
            out.append(f" - {m}" if c < 0 else f" + {m}")
    return "".join(out) or "0"


def ratfn_string(r, spelling=TEXT):
    """Canonical string of r: the plain text form by default, or the TeX
    form with spelling=LATEX; both list terms in the same order.  The
    numerator's denominator moves into the denominator."""
    ring = r.ring
    ns = poly_string(ring, r.terms, spelling)
    if r.c == 1 and r.split == _UNIT:
        return ns
    D = _tscale(ring.split_terms(r.split), r.c)
    return spelling.frac(ns, poly_string(ring, D, spelling))


# ---------------------------------------------------------------------------
# parsing (accepts everything the serializer emits, plus whitespace freedom)

class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/^()])|(\S))")


def _tokenize(s):
    """Integers (decimal digits only), names (letters, decimal digits and
    "_"), operators, then an end token; any other character, a superscript
    digit included, is refused, inside a name too."""
    toks = []
    for m in _TOKEN.finditer(s):
        num, name, op, _ = m.groups()
        cut = next((k for k, ch in enumerate(name or "") if not (
            ch.isalpha() or ch.isdecimal() or ch == "_")), None)
        if num:
            try:
                toks.append(("int", int(num)))
            except ValueError:  # past the interpreter's int-string limit
                raise ParseError(
                    f"too long an integer: {len(num)} digits") from None
        elif name and cut is None:
            toks.append(("name", name))
        elif op:
            toks.append((op, op))
        else:
            i = m.start(m.lastindex) + (cut or 0)
            raise ParseError(f"bad character {s[i]!r} at {i}")
    toks.append(("end", ""))
    return toks


def parse_ratfn(ring, s):
    """The RatFn over ring that s spells; ParseError for a malformed s,
    including one nested too deeply, with too long an integer literal, with
    an exponent past the packed degree limit, or with a power of a base free
    of the pivot whose top coefficient has more digits than the interpreter
    prints (refused before it is formed)."""
    toks = _tokenize(s)
    pos = [0]

    def peek():
        return toks[pos[0]][0]

    def take(kind=None):
        k, v = toks[pos[0]]
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, got {k} ({v!r})")
        pos[0] += 1
        return v

    def atom():
        k = peek()
        if k == "int":
            return RatFn.of(ring, take())
        if k == "name":
            nm = take()
            if nm not in ring.index:
                raise ParseError(f"unknown variable {nm!r}")
            return RatFn.var(ring, nm)
        if k == "(":
            take()
            v = expr()
            take(")")
            return v
        raise ParseError(f"unexpected token {k}")

    def primary():
        v = atom()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            k = take("int")
            if k > DEGREE_LIMIT:
                raise ParseError(f"exponent {k} past the packed field limit "
                                 f"{DEGREE_LIMIT}")
            # for v free of the pivot, v^k's printed top coefficients are the
            # k-th powers of v's, its denominator led by 1; m^k prints under
            # 10^limit; only e = log10(m^k) within 1 of it takes the exact test
            N = v.terms
            m = max(abs(N[max(N)]), v.c) \
                if N and not ring.has_pivot(N) else 1
            e, limit = k * log10(m), getattr(sys, "get_int_max_str_digits",
                                             int)()
            if limit and e > limit - 1 and (e > limit + 1
                                            or m ** k >= 10 ** limit):
                what = "constant power" if v.is_const else "power coefficient"
                raise ParseError(f"{what} past the printable {limit} digits")
            v = v ** (-k if neg else k)
        return v

    def unary():
        if peek() == "-":
            take()
            return -unary()
        if peek() == "+":
            take()
            return unary()
        return primary()

    def term():
        v = unary()
        while peek() in ("*", "/"):
            op = take()
            w = unary()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            w = term()
            v = v + w if op == "+" else v - w
        return v

    try:
        v = expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if peek() != "end":
        raise ParseError("trailing input")
    return v


# ---------------------------------------------------------------------------
# randomized-evaluation equality oracle (second route, independent of the
# canonical-form equality)

def eq_by_random_eval(f, g, rng, trials=5):
    """Compare f and g at random rational points, skipping a point where a
    denominator vanishes.  A relation pivot is drawn as one more
    coordinate: canonical f and g have numerators of pivot degree <= 1 over
    pivot-free denominators, so f - g = (a + pivot * b)/D with a, b and D
    free of the pivot, and a freely drawn pivot tests a = b = 0."""
    ring = f.ring
    if g.ring is not ring:
        raise KernelInvariant("mixed rings")
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts >= 200:
            raise ValueError("no admissible sample points: the denominators "
                             "vanish at every point drawn")
        pt = {nm: Fraction(rng.randint(-19, 19), rng.randint(1, 7))
              for nm in ring.names}
        try:
            if f.eval(pt) != g.eval(pt):
                return False
        except ZeroDivisionError:
            continue
        done += 1
    return True
