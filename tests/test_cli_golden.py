"""CLI outputs pinned byte for byte by sha256.

``fixtures/cli_golden.json`` maps each command line below to the sha256 of
its standard output or, for ``table --out``, of the written file.  Running

    PYTHONPATH=src python tests/test_cli_golden.py

hashes only the commands missing from the file and appends them; it never
rewrites a digest already pinned.  To re-pin one entry on purpose (only
when its output is meant to change), delete it from the file by hand first.
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
    *(f"estimate eta --method integral --N 600 --digits {d}" for d in (15, 30)),
    "figure fig2 --out F",  # b_n at D = 30, N = 1000
    "figure fig3 --out F",  # h_n at D = 30, N = 1000, k = 3, 13, 49
    "estimate eta --N 1000 --digits 15",
    "estimate exponent --k 3 --N 2000 --digits 15",
    # large arities: the recurrence binomials mostly take the math.comb side
    "count --k 13 --upto 300",
    "count --k 1000 --upto 13000",
    "estimate alpha --k 13 --N 300",
    "table --k 1000 --upto 40 --out F",
    # scaled kernels and both eta routes beyond the sizes pinned above
    "scaled --kind h --k 1000000 --upto 300 --digits 30",
    "scaled --kind h --k 49 --upto 300 --digits 15",
    "scaled --kind a --upto 1000 --digits 15",
    "estimate eta --method integral --N 1200 --digits 15",
    "estimate eta --N 3000",
    # seeded samples beyond sample_golden.json's sizes; k = 1000 takes the
    # math.comb side of the recurrence binomials at every level
    "sample --n 600 --count 2 --seed 5 --format encoding",
    "sample --k 3 --n 401 --count 3 --seed 5 --format encoding",
    "sample --k 1000 --n 9991 --count 3 --format encoding",
    # the two rendered sample formats, each walking the whole tree
    "sample --n 64 --count 2 --seed 5 --format graph",
    "sample --n 64 --count 2 --seed 5 --format text",
    # label-stratified counts B_{m,n}
    "table --kind Bmn --upto 60 --out F",
    "table --kind Bmn --upto 200 --out F",
    # binary eta records at D = 15 and 30 and N = 1000, 3000, 5000, with the
    # two pinned above
    "estimate eta --N 1000",
    "estimate eta --N 3000 --digits 15",
    "estimate eta --N 5000 --digits 15",
    "estimate eta --N 5000",
    # the k-ary readings of the estimators and of the h kernel, k = 2 included
    "estimate eta --k 3 --N 1000 --digits 15",
    "estimate eta --k 13 --N 1000 --digits 15",
    "estimate exponent --k 2 --N 2000 --digits 15",
    "scaled --kind h --k 2 --upto 300 --digits 30",
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
    with open(GOLDEN) as fh:
        table = json.load(fh)
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS:
            if command not in table:
                table[command] = digest(command, work)
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
