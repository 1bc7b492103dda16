"""The package runs on the oldest Python that pyproject.toml allows: every
module parses with the grammar of Python 3.10, whatever interpreter runs
the tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dworklie"
OLDEST = (3, 10)


def test_pyproject_names_the_oldest_python():
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    assert f'requires-python = ">={OLDEST[0]}.{OLDEST[1]}"' in text


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_with_the_oldest_grammar(path):
    ast.parse(path.read_text(), filename=path.name, feature_version=OLDEST)
