"""Rational functions over a Ring, kept in a canonical normal form.

Invariants after every operation:
  * denominator has integer coefficients (scalar 1), content 1, positive leading
    coefficient, and shares no polynomial factor with the numerator;
  * in a ring with a slot relation the denominator is free of the pivot and the
    numerator has pivot degree <= 1.
Equality of canonical forms is therefore structural equality.

Addition keeps these without a full normalisation (Henrici, J. ACM 3, 1956):
for canonical a/b and c/d with g = gcd(b, d), the sum is t/(b*(d/g)) with
t = a*(d/g) + c*(b/g), and only gcd(t, g) can cancel, since t is coprime to
both b/g and d/g.  So the one numerator gcd is taken against g, and skipped
when g = 1.  The denominator stays primitive, positive and pivot-free, and t
keeps pivot degree <= 1, because b and d are pivot-free.

Products follow Henrici's rule too.  A constant factor is a unit: it scales
the other numerator and takes no gcd.  Otherwise, with g1 = gcd(a, d) and
g2 = gcd(c, b), the product (a/g1)(c/g2) / ((b/g2)(d/g1)) is already
canonical: each numerator factor is coprime to both denominator factors, by
the choice of the cross gcds and because a/b and c/d are reduced; and the
denominator is primitive with a positive lead by Gauss's lemma, since graded
lex order is multiplicative.  A cross gcd of 1 divides nothing.  The one
exception is a slot relation where both numerators carry the pivot: their
product has pivot degree 2, so it goes through _normalize.

The derivative by v of p/q with q = x^a * F^k, F a ring's known factor (a
chart ring, F = disc), or k = 0 in any ring, follows the logarithmic
derivative q'/q = a_v/x_v + k F'/F:

    (p/q)' = (x_v F p' - a_v F p - k x_v F' p) / (x^(a + e_v) F^(k+1)),

where x_v (or F) stays out of both sides when a_v (or k F') is 0.  The
denominator is again of the known form, so one cancel against it reduces
the result, where the quotient rule would cancel against q^2 and try up to
2k divisions by F.  When both are 0, q' = 0 and the result is p'/q with the
one gcd against q.  Any other q takes the quotient rule (p'q - pq')/q^2,
normalised.  A relation pivot is an independent slot here, and q and F are
pivot-free, so the derivative by the pivot is always p'/q, and the numerator
keeps pivot degree <= 1.  Every other operation goes through _normalize.

Each of these gcds, and the one in _normalize, is taken by Ring.cancel
against a denominator-side operand.  When that operand is c * x^a * F^k, in
a ring with a known factor F, or c * x^a, in any ring, its gcd with N is
exact without a multivariate gcd: F is irreducible, so only the integer
content, the monomial and the power of F that divides N can cancel (see
ring.Ring).  Any other operand takes the general gcd.  Each denominator
keeps its split (c, a, k) once found (Poly.known_split).  When both
denominators of a sum or a product are split, the sum takes g = gcd(b, d)
from the exponents (Ring.split_gcd), the cancels return the reduced
denominators as splits (Ring.cancel_split), and the result's denominator is
built from its split, which it keeps.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import KernelInvariant
from .ring import Poly, _primitive, _tadd, _tmul, _tscale


class RatFn:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.ring.one
        self.num, self.den = _normalize(num, den)

    @property
    def ring(self):
        return self.num.ring

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_const(self):
        return self.num.is_const and self.den.is_const

    def const_value(self):
        return self.num.const_value() / self.den.const_value()

    def support(self):
        """Names of the variables in the numerator or the denominator, in
        ring order; empty for a constant."""
        num, den = self.num.support(), self.den.support()
        if not den:
            return num
        return sorted(set(num).union(den), key=self.ring.index.__getitem__)

    # -- constructors -------------------------------------------------------
    @staticmethod
    def of(ring, value):
        """Lift an int/Fraction/Poly to a RatFn."""
        if isinstance(value, RatFn):
            return value
        if isinstance(value, Poly):
            return RatFn(value)
        return _raw(ring.const(value), ring.one)

    @staticmethod
    def var(ring, name):
        return RatFn(ring.var(name))

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFn.of(self.ring, other)
        if isinstance(other, Poly):
            return RatFn(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        a.num._chk(b.num)
        # Henrici addition, see the module docstring
        ring = a.ring
        sb, sd = a.den.known_split(), b.den.known_split()
        split = sb and sd
        if split:
            gs, sb, sd = ring.split_gcd(sb, sd)
            bg, dg = ring.split_terms(sb), ring.split_terms(sd)
        else:
            g, bg, dg = ring.cancel(a.den.terms, b.den.terms, sd)
        T = _tadd(_tscale(_tmul(a.num.terms, dg), b.num.den),
                  _tscale(_tmul(b.num.terms, bg), a.num.den))
        if not T:
            return _raw(ring.zero, ring.one)
        nd = a.num.den * b.num.den
        # b*(d/g)/h with h = gcd(T, g) is (b/g)*(d/g)*(g/h)
        if split:
            _, T, gs = ring.cancel_split(T, gs)
            return _raw(Poly._trusted(ring, T, nd), ring.split_poly(sb, sd, gs))
        _, T, g = ring.cancel(T, g)
        return _raw(Poly._trusted(ring, T, nd),
                    Poly._trusted(ring, _tmul(_tmul(bg, dg), g)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self if o.is_zero else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return self if self.is_zero else _raw(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if a.is_zero:
            return a
        if b.is_zero:
            return b
        ring = a.ring
        a.num._chk(b.num)
        # product rule, see the module docstring
        if a.is_const:
            a, b = b, a
        if b.is_const:
            (k,) = b.num.terms.values()
            return _raw(Poly._trusted(ring, _tscale(a.num.terms, k),
                                      a.num.den * b.num.den), a.den)
        A, B, C, D = a.num.terms, a.den.terms, b.num.terms, b.den.terms
        sb, sd = a.den.known_split(), b.den.known_split()
        if sb and sd:
            _, A, sd = ring.cancel_split(A, sd)
            _, C, sb = ring.cancel_split(C, sb)
            den = ring.split_poly(sb, sd)
        else:
            _, A, D = ring.cancel(A, D, sd)
            _, C, B = ring.cancel(C, B, sb)
            den = Poly._trusted(ring, _tmul(B, D))
        num = Poly._trusted(ring, _tmul(A, C), a.num.den * b.num.den)
        if ring.has_pivot(A) and ring.has_pivot(C):
            return RatFn(num, den)
        return _raw(num, den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return RatFn(self.den, self.num)

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
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus / evaluation ---------------------------------------------
    def derive(self, var):
        """Formal partial derivative; a relation pivot counts as an independent
        slot.  See the module docstring for the two routes."""
        p, q = self.num, self.den
        ring = self.ring
        known = q.known_split()
        if known:
            N, known = ring.derive_split(p.terms, known, var)
            if not N:
                return _raw(ring.zero, ring.one)
            _, N, known = ring.cancel_split(N, known)
            return _raw(Poly._trusted(ring, N, p.den), ring.split_poly(known))
        return RatFn(p.derive(var) * q - p * q.derive(var), q * q)

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
        nv = self.num.eval(point)
        dv = self.den.eval(point)
        return nv / dv

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

def _raw(num, den):
    """A RatFn from a pair already in canonical form."""
    r = RatFn.__new__(RatFn)
    r.num, r.den = num, den
    return r


def _normalize(num, den):
    ring = num.ring
    if den.ring is not ring:
        raise KernelInvariant("mixed rings")
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return ring.zero, ring.one

    N, D = ring.rationalize(num.terms, den.terms)
    if not N:
        return ring.zero, ring.one
    _, N, D = ring.cancel(N, D)
    # value = N * den.den / ((cd * D) * num.den), D primitive; the Poly
    # constructor cancels the integer content of N against q's denominator
    cd, D = _primitive(D)
    q = Fraction(den.den, num.den * cd)
    return Poly(ring, _tscale(N, q.numerator), q.denominator), Poly(ring, D, 1)


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


def _tokenize(s):
    toks = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(("int", s[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            toks.append(("name", s[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
            continue
        raise ParseError(f"bad character {ch!r} at {i}")
    toks.append(("end", ""))
    return toks


def parse_ratfn(ring, s):
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
            return RatFn.of(ring, int(take()))
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
            k = int(take("int"))
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

    v = expr()
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
        dfv = f.den.eval(pt)
        dgv = g.den.eval(pt)
        if dfv == 0 or dgv == 0:
            continue
        if (fa.eval(pt) * dgv != ga.eval(pt) * dfv
                or fb.eval(pt) * dgv != gb.eval(pt) * dfv):
            return False
        done += 1
    return True
