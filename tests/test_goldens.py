"""CLI outputs compared byte for byte with the committed goldens.  The goldens
pin the canonical normal form and every output format (text, json and
latex); rewrite them only with tests/goldens/regen.py, for a deliberate
output change.  Past n = 5 the exact objects are pinned by sha256 digests
instead, rewritten only with tests/goldens/chart_digests.py."""

import importlib.util
import json
from pathlib import Path

import pytest


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"goldens_{name}", Path(__file__).parent / "goldens" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load("regen")
chart_digests = _load("chart_digests")


@pytest.mark.parametrize("cmd,n,fmt", regen.CASES,
                         ids=[regen.case_id(*case) for case in regen.CASES])
def test_output_matches_golden(cmd, n, fmt):
    code, out = regen.run(cmd, n, fmt)
    assert code == 0
    assert out.encode() == regen.golden_path(cmd, n, fmt).read_bytes()


@pytest.mark.parametrize("n", [6, 7] + [pytest.param(n, marks=pytest.mark.slow)
                                        for n in (8, 9, 10)])
def test_stage_digests_match(n):
    want = json.loads(chart_digests.PATH.read_text())[str(n)]
    assert chart_digests.digests(n) == want
