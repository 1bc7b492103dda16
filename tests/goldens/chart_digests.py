"""Extend chart_digests.json: sha256 digests of the exact objects for
n = 6..20, where a byte-for-byte golden would run to megabytes.

Each digest covers the canonical strings of one stage: the chart
(``dep_exprs``, ``kappa``, ``S``), ``full_connection``, ``modular_vf`` and
``basis_vf``, at the matched scaling constant.  Past n = A_MAX the
``full_connection`` stage is left out: at n = 17 it alone takes about
550 MB.  tests/test_goldens.py compares them.  Regenerate only for a
deliberate output change, and say why in the change log:

    PYTHONPATH=src python tests/goldens/chart_digests.py [N ...]

With sizes given, only their entries are (re)written and every other entry
stays byte for byte as it was; without, every size in NS is.
"""

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "chart_digests.json"
NS = tuple(range(6, 21))
A_MAX = 16
STAGES = ("chart", "full_connection", "modular_vf", "basis_vf")


def _matrix_lines(tag, M):
    from dworklie.ratfn import ratfn_string
    for (i, j), f in M.entries():
        yield f"{tag} ({i},{j}) {ratfn_string(f)}"


def _field_lines(tag, H):
    from dworklie.ratfn import ratfn_string
    for v in H.vars():
        yield f"{tag} {v} {ratfn_string(H.get(v))}"


def stage_lines(n):
    """stage name -> the canonical lines it is digested from; no
    full_connection past n = A_MAX."""
    from dworklie import basis_vf, full_connection, modular_vf, resolve_chart
    from dworklie.ratfn import ratfn_string
    ch = resolve_chart(n)
    chart = [f"dep ({i},{j}) {ratfn_string(f)}"
             for (i, j), f in sorted(ch.dep_exprs.items())]
    if ch.kappa is not None:
        chart.append(f"kappa {ratfn_string(ch.kappa)}")
    chart += _matrix_lines("S", ch.S)
    conn = None
    if n <= A_MAX:
        A = full_connection(ch)
        conn = [line for v in A.vars() for line in _matrix_lines(v, A.get(v))]
    R, Y = modular_vf(n)
    modular = list(_field_lines("R", R)) + list(_matrix_lines("Y", Y.matrix()))
    basis = [line for (a, b), H in sorted(basis_vf(n).items())
             for line in _field_lines(f"({a},{b})", H)]
    return {stage: lines for stage, lines
            in zip(STAGES, (chart, conn, modular, basis)) if lines is not None}


def digests(n):
    return {stage: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for stage, lines in stage_lines(n).items()}


def regen(ns=NS):
    table = json.loads(PATH.read_text()) if PATH.exists() else {}
    table.update((str(n), digests(n)) for n in ns)
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH.name}: n = {', '.join(map(str, ns))}")


if __name__ == "__main__":
    import sys
    regen(tuple(int(a) for a in sys.argv[1:]) or NS)
