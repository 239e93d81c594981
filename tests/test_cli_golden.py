"""CLI outputs pinned byte for byte by sha256.

``fixtures/cli_golden.json`` maps each command line below to the sha256 of
its standard output or, for ``table --out``, of the written file.  To
regenerate it (only when an output is meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from witrees import cli

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "cli_golden.json")

COMMANDS = [
    *(f"count --k {k} --upto 300" for k in (2, 3, 4)),
    *(f"count --k {k} --upto {n}" for k in (2, 3) for n in (0, 1, 2)),
    "count --route funceq --upto 60",
    *(f"scaled --kind {kind} --upto 300 --digits {d}" for kind in ("b", "a") for d in (15, 30)),
    *(f"scaled --kind h --k {k} --upto 300 --digits {d}" for k in (3, 13) for d in (15, 30)),
    *(f"estimate alpha --k {k} --N 300" for k in (2, 3)),
    *(f"table --k {k} --upto 100 --out F" for k in (2, 3)),
]


def digest(command: str, workdir: str) -> str:
    """sha256 of the command's stdout, or of its output file ``F``."""
    argv = command.split()
    out = None
    if "F" in argv:
        out = os.path.join(workdir, "F")
        argv[argv.index("F")] = out
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([*argv, "--cache-dir", workdir])
    assert rc == 0, command
    if out is None:
        data = buf.getvalue().encode()
    else:
        with open(out, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_the_golden_file(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert list(golden) == COMMANDS
    for command in COMMANDS:
        assert digest(command, str(tmp_path)) == golden[command], command


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = {c: digest(c, work) for c in COMMANDS}
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
