"""The stored display tables against freshly computed objects.  Everything in
closedforms is data transcribed once; these tests are the only place the
transcriptions and the computations meet."""

import pytest

from dworklie import (DworkError, VecField, modular, modular_vf, resolve_chart,
                      sl2_triple, truncate_poly)
from dworklie.closedforms import (ACTION, REFERENCE, TRUNCATED,
                                  derive_matched_c, parse_field)
from dworklie.group import act, symbolic_elem


def as_field(ch, table):
    return VecField(ch.ring, parse_field(ch.ring, table))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_modular_display(n):
    ch = resolve_chart(n)
    R, _ = modular_vf(n)
    assert R == as_field(ch, REFERENCE[n]["modular"])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weight_display(n):
    ch = resolve_chart(n)
    assert sl2_triple(n).Hf == as_field(ch, REFERENCE[n]["weight"])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lowering_display(n):
    ch = resolve_chart(n)
    assert sl2_triple(n).F == as_field(ch, REFERENCE[n]["lowering"])


@pytest.mark.parametrize("n", [2, 4])
def test_relation_display(n):
    ch = resolve_chart(n)
    want = REFERENCE[n]["relation"]
    lhs, rhs = want.split(" = ")
    assert lhs == f"{ch.pivot_var}^2"
    from dworklie import parse_ratfn
    assert parse_ratfn(ch.ring, rhs) == ch.kappa * ch.disc


@pytest.mark.parametrize("n", [3, 4])
def test_truncation_display(n):
    ch = resolve_chart(n)
    R, _ = modular_vf(n)
    assert truncate_poly(R) == as_field(ch, TRUNCATED[n])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_action_display(n):
    g = symbolic_elem(n)
    formulas = act(n, g=g)
    want = parse_field(g.ring, ACTION[n])
    assert set(formulas) == set(want)
    for v, rf in want.items():
        assert formulas[v] == rf, f"moved coordinate {v} disagrees"


# derive_matched_c reads c off the displays above; a moved display must not
# yield a constant

def test_derivation_refuses_a_moved_odd_component(monkeypatch):
    monkeypatch.setitem(REFERENCE[3]["modular"], "t1", "t3 - 2*t1*t2")
    with pytest.raises(DworkError, match="fails on t1"):
        derive_matched_c(3)


def test_derivation_refuses_a_moved_relation(monkeypatch):
    monkeypatch.setitem(REFERENCE[2], "relation", "t3^2 = 5*(t1^4 - t4)")
    with pytest.raises(DworkError, match="not to one value"):
        derive_matched_c(2)


def test_derivation_refuses_displays_without_a_linear_condition(monkeypatch):
    # a c-free field matching the displays leaves nothing to pin c by
    sym = resolve_chart(1, "sym").ring
    monkeypatch.setattr(modular, "modular_vf",
                        lambda n, c=None: (modular_vf(n)[0].lift(sym), None))
    with pytest.raises(DworkError, match=r"pin c to \[\]"):
        derive_matched_c(1)


def test_derivation_needs_reference_data():
    with pytest.raises(DworkError, match="no reference data"):
        derive_matched_c(5)
