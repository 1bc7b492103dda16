"""The kernel gcd against sympy's, on operands whose variable supports differ,
so that the support split in ring._tgcd decides the answer."""

import pytest
from hypothesis import given, settings, strategies as st

from dworklie.ring import _lead, _tgcd, _tmul, _tpow

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z", "w")
GENS = sympy.symbols(NAMES)


def to_sympy(T):
    return sympy.Poly.from_dict(T, *GENS).as_expr()


def assert_matches_sympy(A, B):
    g = _tgcd(A, B, len(NAMES))
    assert g[_lead(g)] > 0
    ref = sympy.gcd(to_sympy(A), to_sympy(B))
    assert sympy.expand(to_sympy(g) - ref) == 0 or \
        sympy.expand(to_sympy(g) + ref) == 0


def terms_in(variables):
    """Small polynomials in the given variable positions only."""
    expo = st.tuples(*[st.integers(0, 2) if i in variables else st.just(0)
                       for i in range(len(NAMES))])
    return st.dictionaries(expo, st.integers(-4, 4).filter(bool),
                           min_size=1, max_size=3)


# common factor in x, y; cofactors that bring z (first operand) or w (second)
@given(terms_in({0, 1}), terms_in({0, 1, 2}), terms_in({0, 1, 3}))
@settings(max_examples=60, deadline=None)
def test_gcd_with_disjoint_extra_variables(f, ga, gb):
    assert_matches_sympy(_tmul(f, ga), _tmul(f, gb))


# only one operand carries an extra variable
@given(terms_in({0, 1}), terms_in({0, 1, 2}), terms_in({0, 1}))
@settings(max_examples=60, deadline=None)
def test_gcd_with_one_sided_extra_variable(f, ga, gb):
    assert_matches_sympy(_tmul(f, ga), _tmul(f, gb))


def test_gcd_of_disc_power_with_extra_variable_cofactor():
    # disc = x^7 - y (the n = 5 discriminant in t1, t_b); the other operand is
    # disc^2 times a cofactor in z and w that shares no factor with disc
    disc = {(7, 0, 0, 0): 1, (0, 1, 0, 0): -1}
    cof = {(0, 0, 2, 0): 3, (1, 0, 1, 1): -2, (0, 1, 0, 2): 5, (2, 1, 1, 0): 1,
           (0, 0, 0, 1): 7, (3, 0, 0, 0): -1}
    A = _tmul(_tpow(disc, 2), cof)
    B = _tpow(disc, 6)
    assert _tgcd(A, B, 4) == _tpow(disc, 2)
    assert_matches_sympy(A, B)
