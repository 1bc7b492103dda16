"""The kernel boundary: only ring.py knows that a monomial is an exponent
tuple and how monomials are ordered.  An ast scan of the package keeps the
order and the term-dict layout from leaking into other modules, so that a
change of the monomial representation stays inside ring.py.  Inside the
kernel, RatFn is the one value type: ring.py defines no class but Ring,
and a polynomial is a RatFn over the unit split."""

import ast
import importlib
from fractions import Fraction
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


# RatFn is the one value type: no Poly is left in the package, ring.py
# holds the Ring and term-dict helpers only, and the numerator and the
# denominator read off a value are values with value equality.

def test_dworklie_has_no_poly():
    import dworklie
    modules = [importlib.import_module(f"dworklie.{p.stem}")
               for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    assert "Poly" not in dworklie.__all__
    assert [m.__name__ for m in [dworklie, *modules]
            if hasattr(m, "Poly")] == []


def test_ring_defines_only_the_ring_class():
    classes = [node.name for node in ast.walk(parse("ring.py"))
               if isinstance(node, ast.ClassDef)]
    assert classes == ["Ring"]


def test_the_parts_of_a_value_compare_by_value():
    from dworklie import RatFn, resolve_chart
    ring = resolve_chart(4).ring
    t1, u = RatFn.var(ring, "t1"), RatFn.var(ring, ring.names[ring.pivot])
    f = (u * t1 + 3) / (t1 ** 2 * 5)
    assert f.split != (0, 0)
    assert f.num == f.num and hash(f.num) == hash(f.num)
    assert f.num in [f.num] and f.den in [f.den]
    assert not f.num != f.num
    assert f.num / f.den == f
    assert f.num == (u * t1 + 3) / 5 and f.den == t1 ** 2


def test_polynomial_readers_refuse_a_fraction():
    from dworklie import RatFn, Ring
    ring = Ring(("x", "y"))
    x, y = RatFn.var(ring, "x"), RatFn.var(ring, "y")
    f = x / y
    for make in (lambda: list(f.items()), lambda: f.weighted_degrees({}),
                 lambda: divmod(f, x), lambda: divmod(x, f)):
        with pytest.raises(ValueError, match="not a polynomial"):
            make()
    assert list((x * 3 / 2).items()) == [(Fraction(3, 2), (("x", 1),))]


# One evaluator: ring._teval evaluates every term dict, and RatFn.subs,
# which eval calls at a full point, is its only caller.

def callers(name, node, path=()):
    """The qualified name of the function around each call of name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            yield ".".join(path)
        inner = path + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else path
        yield from callers(name, child, inner)


def test_teval_is_called_only_from_subs():
    found = {f"{p.name}:{q}" for p in SRC.glob("*.py")
             for q in callers("_teval", parse(p.name))}
    assert found == {"ratfn.py:RatFn.subs"}


def test_no_name_subs_poly_is_left():
    names = {getattr(node, field, None) for p in SRC.glob("*.py")
             for node in ast.walk(parse(p.name))
             for field in ("id", "attr", "name")}
    assert "_subs_poly" not in names
