"""Every name that perfbench's tracer wraps still exists in the package.

The tracer patches its TRACED functions and methods by name, and a deleted
or renamed one fails only a traced benchmark run.  This reads
perfbench/tracer.py as it stands and resolves each name the way its
install() does: a function through getattr on its module, a "Class.method"
entry in the class's own __dict__."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
TRACED, MEMO = _tracer.TRACED, _tracer.MEMO


@pytest.mark.parametrize("metric, module, attr", TRACED,
                         ids=[name for name, _, _ in TRACED])
def test_traced_name_resolves(metric, module, attr):
    home = importlib.import_module(f"dworklie.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__.get(meth)), attr
    else:
        assert callable(getattr(home, attr, None)), attr


@pytest.mark.parametrize("name", MEMO)
def test_memo_name_is_a_traced_function(name):
    homes = [module for _, module, attr in TRACED if attr == name]
    assert len(homes) == 1, name
    assert callable(getattr(importlib.import_module(f"dworklie.{homes[0]}"),
                            name, None))
