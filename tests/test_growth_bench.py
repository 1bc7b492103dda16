"""bench/growth.py keeps working: its smoke run (n = 3, h = 1) writes a
record of the documented shape, with the load average each job started
under, and its summary reads the claim rule's verdict off fixed runs."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "bench", "growth.py")


def load_growth():
    spec = importlib.util.spec_from_file_location("growth", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_record_has_every_stage_of_every_job(tmp_path):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_growth.json").read_text())
    assert record["against"] is record["against_commit"] is None
    assert record["first_side"] == ["change"]
    stages = {
        "fields 3": {"chart", "modular_vf", "basis_vf"},
        "connection 3": {"chart", "full_connection"},
        "targets 3": {"chart", "modular_vf", "basis_vf",
                      "vf_from_target_all"},
        "ra 3": {"ra"},
        "decompose 3": {"decompose"},
        "cy3 1": {"verify_cy3_table", "cy3_sl2"},
    }
    assert record["plan"] == [[job.split()[0], int(job.split()[1])]
                              for job in stages]
    assert set(record["jobs"]) == set(stages)
    for job, want in stages.items():
        assert set(record["jobs"][job]) == want | {"peak_rss_mb",
                                                   "loadavg_1m"}
        for entry in record["jobs"][job].values():
            (x,) = entry["change"]
            assert x >= 0 and entry["change_best"] == x
            assert entry["change_summary"] == [x, x, x]
            assert "change_lower_pairs" not in entry
            assert "verdict" not in entry
    assert set(record["units"]) >= {"peak_rss_mb", "loadavg_1m"}
    loads = [record["jobs"][job]["loadavg_1m"]["change"][0] for job in stages]
    assert all(isinstance(x, float) for x in loads)


# basis_vf at n = 28 in the record of 5 pairs that first kept the load
# average: the change's median lies past the parent's quartile spread, but
# it read lower in 2 of 5 pairs and higher in 3
OVERLAP = ([0.10151250699999981, 0.09903094400000034, 0.09959382300000019,
            0.09709766400000008, 0.11239450299999998],
           [0.09919404499999995, 0.10357030800000011, 0.15342282699999998,
            0.09735404500000033, 0.10390465300000029])
WIN = ([1.00, 1.01, 1.02, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80, 0.82])


@pytest.mark.parametrize("parent, change, want", [
    (*OVERLAP, "unresolved"),
    (*WIN, "lower"),
    (WIN[1], WIN[0], "higher"),
    # every pair lower, but the gap inside the parent's quartile spread
    ([1.0, 1.2, 1.4, 1.6, 1.8], [0.95, 1.15, 1.35, 1.55, 1.75], "unresolved"),
])
def test_summary_gives_each_stage_the_claim_verdict(parent, change, want):
    growth = load_growth()
    runs = {side: {"fields 28": [{"basis_vf": x, "loadavg_1m": 0.5}
                                 for x in xs]}
            for side, xs in (("parent", parent), ("change", change))}
    entry = growth.summarise(runs, ["parent", "change"])["fields 28"]
    assert entry["basis_vf"]["verdict"] == want
    assert entry["basis_vf"]["change_lower_pairs"] == sum(
        c < p for p, c in zip(parent, change))
    assert "verdict" not in entry["loadavg_1m"]
