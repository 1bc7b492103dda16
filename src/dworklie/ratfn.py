"""Rational functions over a Ring, kept in a canonical normal form.

A canonical fraction is num / (x^a * F^k), F a ring's known factor (a
chart ring's disc), kept as the Poly num and the split (a, k) of its
denominator (Ring); its integer part is num.den.  Invariants after every
operation: the denominator shares no factor with the numerator, and in a
ring with a slot relation it is free of the pivot and the numerator has
pivot degree <= 1.  Equality of canonical forms is therefore equality of
(num, split).  RatFn.den, the denominator as a Poly, is built on each read.

One route reduces a fraction.  A denominator Poly must have a split: it is
c * x^a * F^k, c its leading coefficient, which moves into the numerator
(Poly.known_split).  Ring.cancel_split cancels against x^a * F^k from the
exponents, since only the monomial and a power of the irreducible F can
cancel, and leaves a split.  The constructor RatFn(num, den) is built from
the rules below: each Poly has its pivot squares rewritten by
Ring.reduce_split and takes one cancel against the power of rel_den that
brings, and den is then inverted and multiplied in.  An inverse whose
divisor has no split raises UnsplitDenominator, whatever the numerator,
zero included; the kernel has no general gcd.

Sums over split denominators follow Henrici (J. ACM 3, 1956): for canonical
a/b and c/d with g = gcd(b, d), taken from the exponents (Ring.split_gcd),
the sum is t/(b*(d/g)) with t = a*(d/g) + c*(b/g), and only gcd(t, g) can
cancel, since t is coprime to both b/g and d/g.  The denominator stays
pivot-free, and t keeps pivot degree <= 1, because b and d are pivot-free.

Constants take integer arithmetic: a sum, product or dot of constants p/q
(ring._qpair) is one integer cross-multiplication and one gcd
(ring._qpoly).  The inverse of N/D with N = c * x^a * F^k free of the pivot
is (D/c)/(x^a * F^k), since x^a * F^k is prime to D; a constant's inverse
swaps its ints.  A numerator N that carries the pivot is inverted through
its conjugate (Ring.conjugate): 1/N = conj(N)/(N * conj(N)), where the norm
N * conj(N) is free of the pivot once Ring.reduce_split rewrites its pivot
square.  The norm must have a split, and the result takes one cancel
against it.

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
from math import lcm, log10

from .errors import KernelInvariant, UnsplitDenominator
from .ring import _UNIT, DEGREE_LIMIT, Poly, _primitive, _qpair, _qpoly, \
    _tadd, _tmul, _tscale, _tsum


class RatFn:
    __slots__ = ("num", "split")

    def __init__(self, num, den=None):
        r = _reduced(num)
        if den is not None:
            r = r * _reduced(den).inverse()
        self.num, self.split = r.num, r.split

    @property
    def ring(self):
        return self.num.ring

    @property
    def den(self):
        """The denominator x^a * F^k as a Poly, built on each read."""
        return Poly._trusted(self.ring, self.ring.split_terms(self.split))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_const(self):
        return self.num.is_const and self.split == _UNIT

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    def support(self):
        """Names of the variables in the numerator or the denominator, in
        ring order; empty for a constant."""
        return Poly._trusted(self.ring, {**self.num.terms,
                                         **self.den.terms}).support()

    # -- constructors -------------------------------------------------------
    @staticmethod
    def of(ring, value):
        """Lift an int/Fraction/Poly to a RatFn."""
        if isinstance(value, RatFn):
            return value
        if isinstance(value, Poly):
            return RatFn(value)
        return _raw(ring.const(value), _UNIT)

    @staticmethod
    def var(ring, name):
        return _raw(ring.var(name), _UNIT)

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, (RatFn, Poly, int, Fraction)):
            return RatFn.of(self.ring, other)
        return None

    def __add__(self, other):
        b = other if type(other) is RatFn else self._coerce(other)
        if b is None:
            return NotImplemented
        a, ring = self, self.ring
        a.num._chk(b.num)
        ka, kb = _qpair(a.num, a.split), _qpair(b.num, b.split)
        if ka and kb:
            return _raw(_qpoly(ring, ka[0] * kb[1] + kb[0] * ka[1],
                               ka[1] * kb[1]), _UNIT)
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        # Henrici addition, see the module docstring
        gs, sb, sd = ring.split_gcd(a.split, b.split)
        T = _tadd(_tscale(_tmul(a.num.terms, ring.split_terms(sd)), b.num.den),
                  _tscale(_tmul(b.num.terms, ring.split_terms(sb)), a.num.den))
        if not T:
            return _raw(ring.zero, _UNIT)
        # b*(d/g)/h with h = gcd(T, g) is (b/g)*(d/g)*(g/h)
        T, gs = ring.cancel_split(T, gs)
        return _raw(Poly._trusted(ring, T, a.num.den * b.num.den),
                    ring.split_mul(sb, sd, gs))

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
        return self if self.is_zero else _raw(-self.num, self.split)

    def __mul__(self, other):
        b = other if type(other) is RatFn else self._coerce(other)
        if b is None:
            return NotImplemented
        a, ring = self, self.ring
        a.num._chk(b.num)
        ka, kb = _qpair(a.num, a.split), _qpair(b.num, b.split)
        if ka and kb:
            return _raw(_qpoly(ring, ka[0] * kb[0], ka[1] * kb[1]), _UNIT)
        if (0, 1) in (ka, kb):
            return _raw(ring.zero, _UNIT)
        # product rule, see the module docstring
        if ka:
            a, b, kb = b, a, ka
        if kb:
            if kb == (1, 1):
                return a
            return _raw(Poly._trusted(ring, _tscale(a.num.terms, kb[0]),
                                      a.num.den * kb[1]), a.split)
        A, sd = ring.cancel_split(a.num.terms, b.split)
        C, sb = ring.cancel_split(b.num.terms, a.split)
        nd = a.num.den * b.num.den
        if ring.has_pivot(A) and ring.has_pivot(C):
            T, q, sr = ring.reduce_split(_tmul(A, C))
            return _over_split(ring, T, nd * q, ring.split_mul(sb, sd, sr))
        return _raw(Poly._trusted(ring, _tmul(A, C), nd), ring.split_mul(sb, sd))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        ring, p = self.ring, self.num
        k = _qpair(p, self.split)
        if k:
            return _raw(_qpoly(ring, k[1] if k[0] > 0 else -k[1], abs(k[0])),
                        _UNIT)
        D = ring.split_terms(self.split)
        if not ring.has_pivot(p.terms):
            c, split = _split(p)
            q = p.den if c > 0 else -p.den
            return _raw(Poly._trusted(ring, _tscale(D, q), abs(c)), split)
        C = ring.conjugate(p.terms)
        N, q, sr = ring.reduce_split(_tmul(p.terms, C))
        if not N:
            raise ZeroDivisionError("inverse of a zero divisor")
        c, split = _split(Poly._trusted(ring, N))
        q = p.den * q if c > 0 else -p.den * q
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
        return self.num == o.num and self.split == o.split

    def __hash__(self):
        # over a denominator of one, as the numerator it equals
        return hash(self.num if self.split == _UNIT else (self.num, self.split))

    # -- calculus / evaluation ---------------------------------------------
    def derive(self, var):
        """Formal partial derivative; a relation pivot counts as an independent
        slot.  See the module docstring for the rule."""
        p, ring = self.num, self.ring
        N, split = ring.derive_split(p.terms, self.split, var)
        return _over_split(ring, N, p.den, split)

    def subs(self, mapping):
        """Substitute RatFn values for variables (others stay)."""
        ring = self.ring
        vals = {}
        for name, v in mapping.items():
            if name not in ring.index:
                raise KeyError(name)
            vals[name] = RatFn.of(ring, v)
        return _subs_poly(self.num, vals) / _subs_poly(self.den, vals)

    def eval(self, point):
        return self.num.eval(point) / self.den.eval(point)

    def lift(self, ring):
        return RatFn(self.num.lift(ring), self.den.lift(ring))

    def __repr__(self):
        return ratfn_string(self)


def _subs_poly(p, vals):
    ring = p.ring
    out = RatFn.of(ring, 0)
    for c, powers in p.items():
        term = RatFn.of(ring, c)
        for nm, k in powers:
            if nm in vals:
                term = term * vals[nm] ** k
            else:
                term = term * RatFn(ring.var(nm) ** k)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# normalization

def _raw(num, split):
    """A RatFn from a numerator and a denominator split in canonical form."""
    r = RatFn.__new__(RatFn)
    r.num, r.split = num, split
    return r


def _reduced(p):
    """The canonical RatFn of the Poly p, its pivot squares rewritten."""
    T, q, split = p.ring.reduce_split(p.terms)
    return _over_split(p.ring, T, p.den * q, split)


def _split(p):
    """(c, split) for the pivot-free Poly p = c * x^a * F^k, c its leading
    coefficient; UnsplitDenominator if it has none."""
    s = p.known_split()
    if not s:
        D = Poly._trusted(p.ring, _primitive(p.terms)[1])
        raise UnsplitDenominator(f"denominator {poly_string(D)} has no split "
                                 "c * x^a * F^k")
    return p.terms[max(p.terms)], s


def _over_split(ring, T, nd, split):
    """The canonical RatFn T / (nd * D), D given by split, for the integer
    term dict T of pivot degree <= 1 and the int nd > 0: one cancel."""
    if not T:
        return _raw(ring.zero, _UNIT)
    T, split = ring.cancel_split(T, split)
    return _raw(Poly._trusted(ring, T, nd), split)


def dot(ring, pairs):
    """Sum of a * b over the (a, b) pairs of RatFns in ring, over one
    common denominator; see the module docstring."""
    p, q, rest = 0, 1, []
    for a, b in pairs:
        x, y = a.num, b.num
        if x.ring is not ring or y.ring is not ring:
            raise KernelInvariant("mixed rings")
        A, B = x.terms, y.terms
        ka = 0 in A and len(A) == 1 and a.split == _UNIT
        kb = 0 in B and len(B) == 1 and b.split == _UNIT
        if ka and kb:
            d = x.den * y.den
            p, q = p * d + A[0] * B[0] * q, q * d
        elif A and B:
            rest.append((b, a, True) if ka else (a, b, kb))
    if not rest:
        return _raw(_qpoly(ring, p, q), _UNIT)
    if len(rest) == 1 and not p:
        return rest[0][0] * rest[0][1]
    fused = [({0: p}, q, (), 1)] if p else []
    for a, b, k in rest:
        A, C, nd = a.num.terms, b.num.terms, a.num.den * b.num.den
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


def poly_string(p, spelling=TEXT):
    """Listing of the Poly p in ascending graded-lex order."""
    out = []
    for c, powers in p.items():
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
    N, D = r.num, r.den
    if N.den != 1:
        N, D = N * N.den, D * N.den
    ns = poly_string(N, spelling)
    if D == r.ring.one:
        return ns
    return spelling.frac(ns, poly_string(D, spelling))


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
            N = v.num.terms
            m = max(abs(N[max(N)]), v.num.den) \
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

def _split_pivot(p):
    """(even, odd) parts of the Poly p in the relation pivot."""
    ring = p.ring
    if ring.pivot is None:
        return p, ring.zero
    parts = p.coeffs(ring.names[ring.pivot])
    if set(parts) - {0, 1}:
        raise KernelInvariant("unreduced pivot power")
    return parts.get(0, ring.zero), parts.get(1, ring.zero)


def eq_by_random_eval(f, g, rng, trials=5):
    """Compare f and g at random rational points (pivot handled componentwise)."""
    ring = f.ring
    f.num._chk(g.num)
    fa, fb = _split_pivot(f.num)
    ga, gb = _split_pivot(g.num)
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts >= 200:
            raise ValueError("no admissible sample points: the denominators "
                             "vanish at every point drawn")
        pt = {nm: Fraction(rng.randint(-19, 19), rng.randint(1, 7))
              for nm in ring.names}
        dfv, dgv = f.den.eval(pt), g.den.eval(pt)
        if dfv == 0 or dgv == 0:
            continue
        if (fa.eval(pt) * dgv != ga.eval(pt) * dfv
                or fb.eval(pt) * dgv != gb.eval(pt) * dfv):
            return False
        done += 1
    return True
