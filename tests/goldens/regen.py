"""Rewrite the CLI goldens in this directory from the current source.

Each golden is the exact stdout of one ``dworklie`` invocation, compared byte
for byte by tests/test_goldens.py.  Regenerate only for a deliberate output
change, and say why in the change log:

    PYTHONPATH=src python tests/goldens/regen.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

JSON_COMMANDS = ("build", "ra", "basis", "sl2", "weights", "brackets",
                 "action", "decompose")
LATEX_COMMANDS = ("ra", "basis", "sl2", "action")

CASES = ([(cmd, n, "json") for n in (1, 2, 3, 4) for cmd in JSON_COMMANDS]
         + [("ra", 5, "json")]
         + [(cmd, n, "latex") for n in (1, 2, 3, 4) for cmd in LATEX_COMMANDS])


def golden_path(cmd, n, fmt):
    return HERE / f"{cmd}_n{n}.{'json' if fmt == 'json' else 'tex'}"


def run(cmd, n, fmt):
    """(exit code, stdout) of one in-process CLI call."""
    from dworklie.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([cmd, "--n", str(n), "--format", fmt])
    return code, buf.getvalue()


def regen():
    for case in CASES:
        code, out = run(*case)
        if code != 0:
            sys.exit(f"{' '.join(map(str, case))}: exit code {code}")
        golden_path(*case).write_bytes(out.encode())
        print(f"wrote {golden_path(*case).name}")


if __name__ == "__main__":
    regen()
