"""References for the kernel tests, apart from the kernel's own code.

unpack(m, nv) reads every exponent field of a packed key, the dense reading
that the kernel's walk of the set fields (ring._powers) is tested against.

The reference normal form stands apart from the kernel's own
constructor.  RatFn(num, den) is built from the split route it is tested
against, so a reference written with it would compare the kernel with
itself.  full(num, den) takes a separate route: the fraction is
rationalised against the slot relation (the conjugate of a denominator that
carries the pivot, then the powers of rel_den rebalanced), its denominator
made primitive, and only then cancelled against that denominator's split."""

from fractions import Fraction

from dworklie import KernelInvariant, UnsplitDenominator
from dworklie.ratfn import _over_split, _raw, poly_string
from dworklie.ring import _FM, _UNIT, _W, Poly, _primitive, _tmul, _tpow, \
    _tscale


def unpack(m, nv):
    """The exponent tuple (e_0, ..., e_(nv-1)) of the key m of a ring with nv
    variables, every field read."""
    return tuple(m >> (i * _W) & _FM for i in range(nv))


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
        N = _tmul(N, _tpow(ring.rel_den, net))
    elif net < 0:
        D = _tmul(D, _tpow(ring.rel_den, -net))
    return N, D


def normalize(num, den):
    """The canonical numerator Poly and denominator split of num/den."""
    ring = num.ring
    if den.ring is not ring:
        raise KernelInvariant("mixed rings")
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    N, D = rationalize(ring, num.terms, den.terms)
    # value = N * den.den / ((cd * D) * num.den) with D primitive; the split
    # is required whatever the numerator, zero included
    cd, D = _primitive(D)
    D = Poly._trusted(ring, D)
    split = D.known_split()
    if not split:
        raise UnsplitDenominator(f"denominator {poly_string(D)} has no split "
                                 "c * x^a * F^k")
    if not N:
        return ring.zero, _UNIT
    q = Fraction(den.den, num.den * cd)
    r = _over_split(ring, _tscale(N, q.numerator), q.denominator, split)
    return r.num, r.split


def full(num, den=None):
    """The RatFn num/den for Polys num and den (1 when omitted), reduced by
    normalize and never through the RatFn constructor."""
    N, split = normalize(num, num.ring.one if den is None else den)
    return _raw(N.ring, N.terms, N.den, split)
