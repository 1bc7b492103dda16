"""References for the kernel tests, apart from the kernel's own code.

unpack(m, nv) reads every exponent field of a packed key, the dense reading
that the kernel's walk of the set fields (ring._powers) is tested against.
tpow(A, k) is the k-th power of a term dict by repeated squaring.

The polynomials the references build and read are plain carriers,
(ring, terms, den), not kernel values.  psum, pmul and pderive are their
sum, product and derivative, which the references and the tests build
operands with; like the references they apply no slot relation, so a pivot
square stays as it is.  Each also reads a polynomial RatFn, its terms over
its c, so a value's num and den enter as they are.

The reference normal form stands apart from the kernel's own
constructor and arithmetic.  A kernel quotient is built from the split
route it is tested against, so a reference written with it would compare
the kernel with itself.  full(num, den) takes a separate route: the
fraction is rationalised against the slot relation (the conjugate of a
denominator that carries the pivot, then the powers of rel_den
rebalanced), its denominator made primitive, and only then cancelled
against that denominator's split.

Evaluation has two references.  deval(p, point) evaluates a polynomial
at a dict of Fractions, every exponent field read (unpack), and
eval_reference divides the values of a RatFn's num and den.
subs_by_terms(f, vals) puts RatFn values for variables term by term
through RatFn arithmetic, forming each power again for every term; it
tests the walk of ring._teval, not the arithmetic."""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from dworklie import KernelInvariant, RatFn, UnsplitDenominator
from dworklie.ratfn import _over_split, _raw, poly_string
from dworklie.ring import _FM, _UNIT, _W, _pack, _primitive, _tmul, \
    _tscale, _tsum

Carrier = namedtuple("Carrier", "ring terms den")


def poly(ring, terms, den=1):
    """The carrier of terms / den over ring, in lowest terms: no zero
    coefficient, den > 0 and prime to the content of terms."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    terms = {e: c for e, c in terms.items() if c}
    if den < 0:
        den, terms = -den, {e: -c for e, c in terms.items()}
    g = gcd(den, *terms.values())
    return Carrier(ring, {e: c // g for e, c in terms.items()}, den // g)


def carrier(p):
    """p as a carrier: a carrier as it is, a polynomial RatFn as its terms
    over its c."""
    if isinstance(p, Carrier):
        return p
    if p.split != _UNIT:
        raise ValueError("not a polynomial")
    return Carrier(p.ring, p.terms, p.c)


def unpack(m, nv):
    """The exponent tuple (e_0, ..., e_(nv-1)) of the key m of a ring with nv
    variables, every field read."""
    return tuple(m >> (i * _W) & _FM for i in range(nv))


def tpow(A, k):
    """The term dict A**k; ValueError for 0^0."""
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


def psum(*ps):
    """The sum of the polynomials ps, one ring, at least one."""
    ps = [carrier(p) for p in ps]
    den = lcm(*(p.den for p in ps))
    return poly(ps[0].ring, _tsum((p.terms, den // p.den) for p in ps), den)


def pmul(ring, *factors):
    """The product over ring of the factors, each a polynomial of ring or
    a number; 1 for none."""
    T, den = {0: 1}, 1
    for f in factors:
        if isinstance(f, (Carrier, RatFn)):
            f = carrier(f)
            if f.ring is not ring:
                raise KernelInvariant("mixed rings")
            T, den = _tmul(T, f.terms), den * f.den
        else:
            q = Fraction(f)
            T, den = _tscale(T, q.numerator), den * q.denominator
    return poly(ring, T, den)


def pderive(p, var):
    """The derivative of the polynomial p by the variable var, every
    exponent field read (unpack)."""
    p = carrier(p)
    nv, i = p.ring.nvars, p.ring.index[var]
    T = {}
    for m, c in p.terms.items():
        e = list(unpack(m, nv))
        if e[i]:
            e[i] -= 1
            k = _pack(e, nv)
            T[k] = T.get(k, 0) + c * (e[i] + 1)
    return poly(p.ring, T, p.den)


def rationalize(ring, N, D):
    """(N', D') with N'/D' == N/D under the relation, for term dicts N and
    D: N' has pivot degree <= 1 (empty when N vanishes) and D' is free of
    the pivot, made so by multiplying with its conjugate."""
    N, kn = ring.reduce_terms(N)
    D, kd = ring.reduce_terms(D)
    if not D:
        raise ZeroDivisionError("denominator is zero under the slot relation")
    if ring.has_pivot(D):
        pm = ring._pmask
        conj = {e: (-c if e & pm else c) for e, c in D.items()}
        N, kn2 = ring.reduce_terms(_tmul(N, conj))
        D, kd2 = ring.reduce_terms(_tmul(D, conj))
        if not D or ring.has_pivot(D):
            raise KernelInvariant("pivot survived rationalization")
        kn += kn2
        kd += kd2
    # N/D == (N'/rel_den^kn) / (D'/rel_den^kd)
    net = kd - kn
    if net > 0:
        N = _tmul(N, tpow(ring.rel_den, net))
    elif net < 0:
        D = _tmul(D, tpow(ring.rel_den, -net))
    return N, D


def full(num, den=None):
    """The canonical RatFn num/den for polynomials num and den (1 when
    omitted), never through the RatFn constructor or arithmetic."""
    num = carrier(num)
    ring = num.ring
    den = poly(ring, {0: 1}) if den is None else carrier(den)
    if den.ring is not ring:
        raise KernelInvariant("mixed rings")
    if not den.terms:
        raise ZeroDivisionError("zero denominator")
    N, D = rationalize(ring, num.terms, den.terms)
    # value = N * den.den / ((cd * D) * num.den) with D primitive; the split
    # is required whatever the numerator, zero included
    cd, D = _primitive(D)
    split = ring._known_split(D)
    if not split:
        raise UnsplitDenominator(f"denominator {poly_string(ring, D)} "
                                 "has no split c * x^a * F^k")
    if not N:
        return _raw(ring, {}, 1, _UNIT)
    q = Fraction(den.den, num.den * cd)
    return _over_split(ring, _tscale(N, q.numerator), q.denominator, split)


def deval(p, point):
    """The polynomial p at point, a dict name -> Fraction covering every
    variable that occurs in p, every exponent field read (unpack)."""
    p = carrier(p)
    names = p.ring.names
    total = Fraction(0)
    for m, c in p.terms.items():
        v = Fraction(c, p.den)
        for nm, k in zip(names, unpack(m, len(names))):
            if k:
                v *= Fraction(point[nm]) ** k
        total += v
    return total


def eval_reference(f, point):
    """The RatFn f at point (deval); ZeroDivisionError at a pole."""
    return deval(f.num, point) / deval(f.den, point)


def subs_by_terms(f, vals):
    """f with the RatFn values vals put for their variables, each term of
    f.num and f.den a RatFn product of its coefficient and its powers."""
    def part(p):
        ring = p.ring
        p = carrier(p)
        out = RatFn.of(ring, 0)
        for m, c in p.terms.items():
            term = RatFn.of(ring, Fraction(c, p.den))
            for nm, k in zip(ring.names, unpack(m, ring.nvars)):
                if k:
                    term = term * vals.get(nm, RatFn.var(ring, nm)) ** k
            out = out + term
        return out

    return part(f.num) / part(f.den)
