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

CHART_COMMANDS = ("build", "ra", "basis", "sl2", "weights", "brackets",
                  "action", "decompose")
LATEX_COMMANDS = ("ra", "basis", "sl2", "action")
# these accept --format latex and print their text output
LATEX_AS_TEXT = ("build", "weights", "brackets", "decompose")
NS = (1, 2, 3, 4)

CASES = ([(cmd, n, "json") for n in NS for cmd in CHART_COMMANDS]
         + [("ra", 5, "json")]
         + [(cmd, n, "latex") for n in NS for cmd in LATEX_COMMANDS]
         + [(cmd, n, "text") for n in NS for cmd in CHART_COMMANDS]
         + [(cmd, n, "latex") for n in NS for cmd in LATEX_AS_TEXT]
         + [("verify", n, fmt) for n in NS for fmt in ("text", "json")]
         + [("cy3", h, fmt) for h in (1, 2, 3) for fmt in ("text", "json")])

EXT = {"json": "json", "latex": "tex", "text": "txt"}


def dim_flag(cmd):
    return "h" if cmd == "cy3" else "n"


def case_id(cmd, n, fmt):
    return f"{cmd}-{dim_flag(cmd)}{n}-{fmt}"


def golden_path(cmd, n, fmt):
    suffix = "_latex" if fmt == "latex" and cmd in LATEX_AS_TEXT else ""
    return HERE / f"{cmd}_{dim_flag(cmd)}{n}{suffix}.{EXT[fmt]}"


def run(cmd, n, fmt):
    """(exit code, stdout) of one in-process CLI call."""
    from dworklie.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([cmd, f"--{dim_flag(cmd)}", str(n), "--format", fmt])
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
