"""Group layer: pairing preservation, factor decomposition, the right action
on the chart, and its derivatives at the identity."""

import random
from fractions import Fraction

import pytest

from dworklie import (DworkError, MatF, RatFn, act, basis_pairs, basis_vf,
                      compose, decompose_elem, group, group_elem,
                      infinitesimal, lie_gen, resolve_chart, symbolic_elem)
from dworklie.errors import ZeroScalar
from dworklie.geometry import family_dims, pairing_form
from dworklie.group import (factor_delta, gen_cells, param_pair,
                            subgroup_counts)

import group_reference as ref

# which signed basis field each one-parameter derivative lands on
INFINITESIMAL_SIGNS = {
    1: {1: ((1, 1), -1), 2: ((1, 2), 1)},
    2: {1: ((1, 1), -1), 2: ((1, 2), -1)},
    3: {1: ((1, 1), -1), 2: ((2, 2), -1), 3: ((1, 2), -1),
        4: ((1, 3), 1), 5: ((1, 4), 1), 6: ((2, 3), 1)},
    4: {1: ((1, 1), -1), 2: ((2, 2), -1), 3: ((1, 2), -1),
        4: ((1, 3), -1), 5: ((1, 4), -1), 6: ((2, 3), -1)},
}


def factor_matrix(n, i, gamma, ring):
    """The full matrix of the i-th one-parameter subgroup at gamma."""
    return MatF.identity(ring, n + 1) + factor_delta(n, i, gamma, ring)


def random_params(n, rng):
    mult, add = subgroup_counts(n)
    out = [Fraction(rng.choice([1, 2, 3, -1, -2, -3]), rng.randint(1, 4))
           for _ in range(mult)]
    out += [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(add)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_element_preserves_pairing(n):
    g = symbolic_elem(n)
    phi = pairing_form(g.ring, n)
    assert g.matrix.transpose() @ phi @ g.matrix == phi


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_decomposition_roundtrip(n):
    rng = random.Random(1000 + n)
    for _ in range(100):
        g = group_elem(n, random_params(n, rng))
        assert decompose_elem(n, g.matrix) == g.params


@pytest.mark.parametrize("n", range(1, 7))
def test_factors_are_the_identity_plus_a_small_delta(n):
    ring = resolve_chart(n).ring
    d, _, _ = family_dims(n)
    eye, phi = MatF.identity(ring, n + 1), pairing_form(ring, n)
    for i in range(1, d):
        for gamma in (Fraction(-3, 2), RatFn.var(ring, "t1")):
            D = factor_delta(n, i, gamma, ring)
            F = factor_matrix(n, i, gamma, ring)
            assert eye + D == F and 1 <= len(D.entries()) <= 3
            assert F.transpose() @ phi @ F == phi


@pytest.mark.parametrize("n", range(1, 7))
def test_round_trip_builds_no_full_factor(n, monkeypatch):
    """group_elem and decompose_elem apply each factor I + D in place from
    its delta D alone, of at most three cells: no full factor reaches
    apply_factor."""
    widths = []
    apply_factor = MatF.apply_factor

    def recording(self, D, left=False):
        widths.append(len(D.entries()))
        return apply_factor(self, D, left)

    monkeypatch.setattr(MatF, "apply_factor", recording)
    rng = random.Random(2000 + n)
    for _ in range(5):
        g = group_elem(n, random_params(n, rng))
        assert decompose_elem(n, g.matrix) == g.params
    assert widths and max(widths) <= 3


def random_frame(ring, size, rng, symbolic):
    """A seeded size x size matrix, about half its cells zero, of rational
    constants, times powers of t1 when symbolic."""
    t1 = RatFn.var(ring, "t1")
    return MatF(ring, [[RatFn.of(ring, Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 5)))
                        * (t1 ** rng.randint(0, 2) if symbolic else 1)
                        if rng.random() < 0.5 else RatFn.of(ring, 0)
                        for _ in range(size)] for _ in range(size)])


@pytest.mark.parametrize("n", range(1, 8))
def test_times_factor_is_the_full_product(n):
    # every factor, with a constant and a symbolic parameter, applied in
    # place to a copy W of seeded constant and symbolic matrices M; at even n
    # one factor has three cells, the third reading a line that the second
    # writes.  M itself stays as it was.
    ring = resolve_chart(n).ring
    d, _, _ = family_dims(n)
    rng = random.Random(4000 + n)
    t1 = RatFn.var(ring, "t1")
    widths = set()
    for symbolic in (False, True):
        for _ in range(2):
            M = random_frame(ring, n + 1, rng, symbolic)
            for i in range(1, d):
                for gamma in (Fraction(rng.choice([-3, -1, 2, 5]),
                                       rng.randint(1, 4)), t1 * -3):
                    D = factor_delta(n, i, gamma, ring)
                    widths.add(len(D.entries()))
                    before = M.entries()
                    for left, want in ((False, M + M @ D), (True, M + D @ M)):
                        W = M.map(lambda a: a)
                        W.apply_factor(D, left)
                        assert W == want and M.entries() == before
    assert max(widths) == (3 if n % 2 == 0 else 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_round_trip_forms_no_full_sum_or_factor_product(n, monkeypatch):
    """Each factor is one sparse column or row operation, and the pairing
    check is one congruence_lower: no full matrix sum and no matrix product
    is formed."""
    def refuse(self, other):
        raise AssertionError("a full matrix sum was formed")

    products = []
    product = MatF.product

    def counting(self, other, skip=()):
        products.append(1)
        return product(self, other, skip)

    monkeypatch.setattr(MatF, "__add__", refuse)
    monkeypatch.setattr(MatF, "product", counting)
    rng = random.Random(3000 + n)
    for _ in range(3):
        g = group_elem(n, random_params(n, rng))
        assert decompose_elem(n, g.matrix) == g.params
    assert not products


def factor_product(n, params, ring):
    """The product of the full factor matrices, in assembly order."""
    M = MatF.identity(ring, n + 1)
    for i, gamma in enumerate(params, start=1):
        M = M @ factor_matrix(n, i, gamma, ring)
    return M


@pytest.mark.parametrize("n", range(1, 8))
def test_group_elem_is_the_product_of_its_factors(n):
    # seeded draws, negative multiplicative parameters with every additive
    # one zero or every other one zero, and a fully symbolic element
    ring = resolve_chart(n).ring
    mult, add = subgroup_counts(n)
    rng = random.Random(6000 + n)
    draws = [random_params(n, rng) for _ in range(3)]
    negative = [Fraction(-k - 1, k + 2) for k in range(mult)]
    draws.append(negative + [Fraction(0)] * add)
    draws.append(negative + [Fraction(k, 3) if k % 2 else Fraction(0)
                             for k in range(add)])
    for params in draws:
        g = group_elem(n, params)
        assert g.matrix == factor_product(n, params, ring)
        assert decompose_elem(n, g.matrix) == g.params
    g = symbolic_elem(n)
    assert g.matrix == factor_product(n, g.params, g.ring)
    assert decompose_elem(n, g.matrix) == g.params


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_matches_matrix_product(n):
    rng = random.Random(77 + n)
    g = group_elem(n, random_params(n, rng))
    h = group_elem(n, random_params(n, rng))
    gh = compose(g, h)
    assert gh.matrix == g.matrix @ h.matrix


@pytest.mark.parametrize("n", range(1, 7))
def test_group_elem_refuses_a_factor_that_breaks_the_pairing(n, monkeypatch):
    # cell (1, 1) gains 1, first on the assembled diagonal, where then
    # M_11 * M_{n+1,n+1} = 1 + gamma_1, and then in the first additive
    # factor, which no longer preserves phi; either way M^T phi M moves at
    # (n + 1, 1), a cell that congruence_lower forms
    _, m, _ = family_dims(n)
    params = [p or Fraction(1) for p in random_params(n, random.Random(n))]
    group_elem(n, params)
    set1, factor = MatF.set1, group.factor_delta

    def bumped_diagonal(M, i, j, v):
        set1(M, i, j, v + 1 if (i, j) == (1, 1) else v)

    def bumped_factor(n, i, gamma, ring):
        D = factor(n, i, gamma, ring)
        if i == m + 1:
            D.set1(1, 1, D.get1(1, 1) + 1)
        return D

    for owner, name, broken in ((MatF, "set1", bumped_diagonal),
                                (group, "factor_delta", bumped_factor)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, broken)
            with pytest.raises(DworkError,
                               match="does not preserve the pairing"):
                group_elem(n, params)


def test_zero_scalar_rejected():
    with pytest.raises(ZeroScalar):
        group_elem(2, [Fraction(0), Fraction(1)])


def symbolic_pair(n):
    """Two independent symbolic elements, g and h, over one shared ring."""
    d, _, _ = family_dims(n)
    names = [f"{p}{i}" for p in "gh" for i in range(1, d)]
    ring = resolve_chart(n).ring.extend(tuple(names))
    return [group_elem(n, [RatFn.var(ring, f"{p}{i}") for i in range(1, d)],
                       ring=ring) for p in "gh"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_right_action_axiom_symbolic(n):
    # acting by g then h equals acting by the composite, with every
    # parameter kept symbolic
    g, h = symbolic_pair(n)
    moved = act(n, g=g)
    hg = act(n, g=h)
    via_two = {v: rf.subs(moved) for v, rf in hg.items()}
    via_one = act(n, g=compose(g, h))
    assert via_two == via_one


@pytest.mark.parametrize("n", [1, 2, 3])
def test_action_at_rational_points(n):
    # the action of a rational element at a rational point equals the kept
    # symbolic action with the element's parameters and the point put in
    ch = resolve_chart(n)
    rng = random.Random(5 + n)
    g = group_elem(n, random_params(n, rng))
    pt = {v: RatFn.of(ch.ring, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
          for v in ch.coords}
    sym = symbolic_elem(n)
    at = {v: x.lift(sym.ring) for v, x in pt.items()}
    at.update((f"g{i}", p.lift(sym.ring))
              for i, p in enumerate(g.params, start=1))
    got = {v: rf.subs(pt).lift(sym.ring) for v, rf in act(n, g=g).items()}
    assert got == {v: rf.subs(at) for v, rf in act(n).items()}


@pytest.mark.parametrize("n", sorted(INFINITESIMAL_SIGNS))
def test_infinitesimal_action_lands_on_signed_basis(n):
    d, m, _ = family_dims(n)
    B = basis_vf(n)
    table = INFINITESIMAL_SIGNS[n]
    for i in range(1, d):
        V = infinitesimal(n, i)
        hits = [(pair, s) for pair in basis_pairs(n) for s in (1, -1)
                if V == (B[pair] if s == 1 else -B[pair])]
        assert hits == [table[i]], f"parameter {i} of n={n}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_matrices_kill_the_pairing(n):
    ch = resolve_chart(n)
    phi = ch.phi
    for a, b in basis_pairs(n):
        g = lie_gen(n, a, b, ch.ring)
        assert (g.transpose() @ phi + phi @ g).is_zero


def test_basis_pair_count():
    for n in (1, 2, 3, 4, 5, 6):
        d, m, _ = family_dims(n)
        assert len(basis_pairs(n)) == m * (m + 1)
        for a, b in basis_pairs(n):
            assert 1 <= a <= m and a <= b <= 2 * m + 1 - a


def test_parameter_index_out_of_range_is_refused():
    d, _, _ = family_dims(3)
    ring = resolve_chart(3).ring
    for i in (0, d):
        with pytest.raises(IndexError, match="parameter index"):
            factor_delta(3, i, Fraction(2), ring)
        with pytest.raises(IndexError, match="parameter index"):
            infinitesimal(3, i)


@pytest.mark.parametrize("n", range(1, 11))
def test_factors_generators_and_order_match_the_reference(n):
    # the one cell rule gives the same group as the case-by-case reference
    ring = resolve_chart(n).ring
    d, _, _ = family_dims(n)
    for i in range(1, d):
        kind, idx = ref.param_slot(n, i)
        assert param_pair(n, i) == ((idx, idx) if kind == "mult" else idx)
        for gamma in (Fraction(-3, 2), Fraction(5), RatFn.var(ring, "t1")):
            assert (factor_delta(n, i, gamma, ring)
                    == ref.factor_delta(n, i, gamma, ring))
    for a, b in basis_pairs(n):
        assert lie_gen(n, a, b, ring) == ref.lie_gen(n, a, b, ring)


@pytest.mark.parametrize("n", range(1, 9))
def test_additive_factors_are_exponentials_of_their_generators(n):
    # X = gamma * g, scaled so that X's last cell is gamma: X^3 = 0, and the
    # factor is exp(X) = I + X + X^2 / 2
    ring = resolve_chart(n).ring
    d, m, _ = family_dims(n)
    eye = MatF.identity(ring, n + 1)
    for i in range(m + 1, d):
        a, b = param_pair(n, i)
        for gamma in (Fraction(-3, 2), RatFn.var(ring, "t1")):
            X = lie_gen(n, a, b, ring).scale(gamma * gen_cells(n, a, b)[-1][1])
            assert X.get1(*gen_cells(n, a, b)[-1][0]) == gamma
            X2 = X @ X
            assert (X2 @ X).is_zero
            assert factor_matrix(n, i, gamma, ring) == eye + X + X2.scale(
                Fraction(1, 2))
