"""Property: every well-typed command line ends in exit 0 or one error line.

Command lines are drawn from the parser's grammar with adversarial values:
negative, zero, off-lattice and just-over-limit sizes, arities that do not
fit the kind, and cache files that are truncated, have a bad header or have
one digit changed.  ``--fetch`` is left out (it needs the network).  For
runtime only, the sizes that pass every check stay small: brute-force sizes
are at most 7, estimates run at their smallest admissible N, and the example
count is capped.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witrees import cli

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

#: a sentinel size, replaced by one more than the limit the guard reports
OVER = "over"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    valid = root / "valid.txt"
    assert cli.main(["table", "--k", "3", "--upto", "12", "--out", str(valid)]) == 0
    text = valid.read_text()
    (root / "truncated.txt").write_text(text[: len(text) // 2])
    (root / "bad-header.txt").write_text(text.replace("wit-cache v1", "wit-cache v9", 1))
    lines = text.splitlines(keepends=True)
    lines[-1] = lines[-1][:-2] + str((int(lines[-1][-2]) + 1) % 10) + "\n"
    (root / "one-digit.txt").write_text("".join(lines))
    return root


def sizes(*valid):
    return st.sampled_from((*(str(v) for v in (-7, -1, 0, *valid)), OVER))


ks = st.sampled_from((-1, 0, 1, 2, 3, 4, 13))


@st.composite
def command_lines(draw, root):
    """argv of one subcommand, its flags drawn from the parser's choices."""
    command = draw(st.sampled_from(
        ("count", "table", "sample", "scaled", "estimate", "figure", "oeis-check", "cache")
    ))
    argv = [command]
    if command == "count":
        route = draw(st.sampled_from(("recurrence", "funceq", "brute")))
        small = (1, 2, 5, 7) if route == "brute" else (1, 2, 5, 8, 13, 30)
        argv += ["--route", route, "--k", str(draw(ks))]
        argv += [draw(st.sampled_from(("--n", "--upto"))), draw(sizes(*small))]
        argv += ["--format", draw(st.sampled_from(("plain", "csv")))]
    elif command == "table":
        argv += ["--k", str(draw(ks)), "--upto", draw(sizes(2, 5, 30))]
        if draw(st.booleans()):
            argv += ["--kind", draw(st.sampled_from(("B", "H", "Bmn")))]
        if draw(st.booleans()):
            argv += ["--out", str(root / "out.txt")]
    elif command == "sample":
        argv += ["--k", str(draw(ks)), "--n", draw(sizes(1, 2, 4, 5, 6, 7, 30))]
        argv += ["--count", str(draw(st.sampled_from((-1, 0, 1, 3))))]
        argv += ["--format", draw(st.sampled_from(("text", "graph", "encoding")))]
    elif command == "scaled":
        argv += ["--kind", draw(st.sampled_from(("b", "h", "a"))), "--k", str(draw(ks))]
        argv += ["--upto", draw(sizes(1, 2, 3, 60))]
        if draw(st.booleans()):
            argv += ["--out", str(root / "seq.csv")]
    elif command == "estimate":
        target = draw(st.sampled_from(("alpha", "eta", "exponent")))
        argv += [target, "--k", str(draw(ks))]
        methods = cli._ESTIMATES[target][1]
        least = next(iter(methods.values()))
        if draw(st.booleans()):
            method = draw(st.sampled_from(("ratio", "extrapolation", "integral", "slope-fit")))
            argv += ["--method", method]
            least = methods.get(method, least)
        argv += ["--N", draw(sizes(least - 1, least))]
    elif command == "figure":
        argv += [draw(st.sampled_from(("fig2", "fig3"))), "--out", str(root / "fig.csv")]
    elif command == "oeis-check":
        source = draw(st.sampled_from(("self", "bfile", "bad-bfile", "none")))
        if source == "self":
            argv += ["--self"]
        elif source == "bfile":
            argv += ["--bfile", os.path.join(FIXTURES, "b171792.txt")]
        elif source == "bad-bfile":
            argv += ["--bfile", str(root / "valid.txt")]
        argv += ["--upto", draw(sizes(2, 12, 50, 61, 80))]
    else:
        name = draw(st.sampled_from(
            ("valid", "truncated", "bad-header", "one-digit", "missing")
        ))
        argv += ["verify", str(root / f"{name}.txt")]
        if draw(st.booleans()):
            argv += ["--kind", draw(st.sampled_from(("B", "H", "Bmn")))]
        if draw(st.booleans()):
            argv += ["--k", str(draw(ks))]
    argv += ["--digits", draw(sizes(14, 15, 15, 30)), "--seed", str(draw(st.integers(-1, 99)))]
    return argv + ["--cache-dir", str(root / "cache")]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def over_the_limits(argv):
    """Each OVER value set one past the limit its flag's guard reports."""
    huge = str(10**30)
    for i, a in enumerate(argv):
        if a == OVER:
            _, _, err = run([huge if b == OVER else b for b in argv])
            match = re.search(rf"{argv[i - 1]} {huge} is too large: at most (\d+) fits", err)
            argv[i] = str(int(match.group(1)) + 1) if match else huge
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_command_line_exits_cleanly(workdir, data):
    argv = over_the_limits(data.draw(command_lines(workdir)))
    rc, out, err = run(argv)
    assert "Traceback" not in err and "RecursionError" not in err, argv
    assert rc in (0, 1), argv
    if rc == 0:
        return
    if argv[0] == "oeis-check" and not err:
        # a mismatch verdict, not an error: the report is on stdout
        assert "status=short-match" in out or "first mismatch" in out, argv
        return
    lines = err.splitlines()
    assert len(lines) == 1 and re.fullmatch(r"witrees: error: \S.*", lines[0]), (argv, err)
