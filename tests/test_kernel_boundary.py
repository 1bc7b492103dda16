"""The kernel boundary: only ring.py knows that a monomial is an exponent
tuple and how monomials are ordered.  An ast scan of the package keeps the
order and the term-dict layout from leaking into other modules, so that a
change of the monomial representation stays inside ring.py.  Inside the
kernel, RatFn is the one arithmetic type and Poly a read view."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dworklie"
OUTSIDE = sorted(p.name for p in SRC.glob("*.py") if p.name != "ring.py")


def parse(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def ring_names(tree):
    """Names taken from the ring module: imported from it, or read as
    attributes of it when the module itself is imported."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "ring":
                names.update(a.name for a in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names
                               if a.name == "ring")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[-1] == "ring")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


# the names that encode monomials and their order: packing, field width,
# masks and the helpers that read exponent fields
ENCODING = {"_pack", "_powers", "_W", "_FM", "_G", "_mono_gcd", "_uni_view"}


def test_the_encoding_names_exist_in_ring():
    defined = set()
    for node in parse("ring.py").body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert ENCODING <= defined, ENCODING - defined


@pytest.mark.parametrize("name", OUTSIDE)
def test_no_module_but_ring_knows_the_monomial_order(name):
    assert not ring_names(parse(name)) & ENCODING


@pytest.mark.parametrize("name", OUTSIDE)
def test_only_ratfn_imports_ring_privates(name):
    private = {n for n in ring_names(parse(name)) if n.startswith("_")}
    assert name == "ratfn.py" or not private, private


@pytest.mark.parametrize("name", [n for n in OUTSIDE if n != "ratfn.py"])
def test_term_dicts_are_only_measured_outside_the_kernel(name):
    tree = parse(name)
    measured = {id(node.args[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len" and len(node.args) == 1}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "terms"
             and id(node) not in measured]
    assert not lines, f"{name} reads .terms at lines {lines}"


# RatFn is the one arithmetic type: a Poly is a read view of terms over an
# integer, with no operators, no value equality and no calculus, and a
# RatFn takes a Poly only through its constructor RatFn(num, den).
POLY_ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                   "__pow__", "__eq__", "__ne__", "__hash__", "derive",
                   "eval", "const_value", "known_split"}


def test_poly_holds_no_arithmetic():
    from dworklie import Poly
    assert not POLY_ARITHMETIC & set(vars(Poly))


def test_a_ratfn_takes_a_poly_only_through_its_constructor():
    from dworklie import RatFn, Ring
    ring = Ring(("x", "y"))
    f = RatFn.var(ring, "x") / RatFn.var(ring, "y")
    p = ring.var("x")
    for make in (lambda: f + p, lambda: p + f, lambda: f * p, lambda: p * f,
                 lambda: f - p, lambda: f / p, lambda: RatFn.of(ring, p)):
        with pytest.raises(TypeError):
            make()
    assert RatFn(p) == RatFn.var(ring, "x")
    assert RatFn(p, ring.var("y")) == f
