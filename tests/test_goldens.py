"""CLI outputs compared byte for byte with the committed goldens.  The goldens
pin the canonical normal form and every output format (text, json and
latex); rewrite them only with tests/goldens/regen.py, for a deliberate
output change."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "goldens_regen", Path(__file__).parent / "goldens" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("cmd,n,fmt", regen.CASES,
                         ids=[regen.case_id(*case) for case in regen.CASES])
def test_output_matches_golden(cmd, n, fmt):
    code, out = regen.run(cmd, n, fmt)
    assert code == 0
    assert out.encode() == regen.golden_path(cmd, n, fmt).read_bytes()
