"""The matrix boundary: only linalg.py knows that a MatF stores its nonzero
cells in a dict.  An ast scan keeps every other module on get1, set1 and
entries, so a change of the storage stays inside linalg.py."""

import ast
from pathlib import Path

import pytest

from dworklie import MatF, Ring

SRC = Path(__file__).resolve().parent.parent / "src" / "dworklie"
OUTSIDE = sorted(p.name for p in SRC.glob("*.py") if p.name != "linalg.py")


def storage_reads(name):
    """Lines reading .cells anywhere, or .rows on anything but self: a class
    may keep its own rows (liealg's reports do), a matrix has none."""
    tree = ast.parse((SRC / name).read_text(), filename=name)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (node.attr == "cells"
                 or node.attr == "rows" and not (
                     isinstance(node.value, ast.Name)
                     and node.value.id == "self"))]


@pytest.mark.parametrize("name", OUTSIDE)
def test_only_linalg_reads_matrix_storage(name):
    lines = storage_reads(name)
    assert not lines, f"{name} reads matrix storage at lines {lines}"


def test_a_matrix_has_no_dense_rows():
    assert not hasattr(MatF.identity(Ring(["x"]), 2), "rows")
