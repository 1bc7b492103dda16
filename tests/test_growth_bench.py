"""bench/growth.py keeps working: its smoke run (n = 3, h = 1) writes a
record of the documented shape, with the load average each job started
under."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_record_has_every_stage_of_every_job(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "growth.py"), "--smoke"],
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
    assert set(record["units"]) >= {"peak_rss_mb", "loadavg_1m"}
    loads = [record["jobs"][job]["loadavg_1m"]["change"][0] for job in stages]
    assert all(isinstance(x, float) for x in loads)
