import io
import re
import subprocess
import sys

import pytest


PAPER_PREFIX = [0, 0, 1, 2, 7, 34, 214, 1652, 15121, 160110, 1925442, 25924260,
                386354366, 6314171932]


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "witrees.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("count", "table", "sample", "scaled", "estimate", "figure",
                "oeis-check", "cache"):
        assert sub in cp.stdout


def test_count_upto_13_matches_published_list():
    cp = run_cli("count", "--k", "2", "--upto", "13")
    assert cp.returncode == 0, cp.stderr
    values = [int(line.split("\t")[1]) for line in cp.stdout.splitlines()]
    assert values == PAPER_PREFIX


def test_count_single_value_and_csv():
    cp = run_cli("count", "--k", "2", "--n", "2")
    assert cp.returncode == 0 and cp.stdout.strip() == "1"
    cp = run_cli("count", "--k", "2", "--upto", "5", "--format", "csv")
    assert cp.stdout.splitlines() == ["n,count", "0,0", "1,0", "2,1", "3,2", "4,7", "5,34"]


def test_count_kary_off_lattice_zero():
    cp = run_cli("count", "--k", "3", "--n", "4")
    assert cp.returncode == 0 and cp.stdout.strip() == "0"


def test_count_routes_agree():
    for route in ("recurrence", "funceq", "brute"):
        cp = run_cli("count", "--k", "2", "--n", "7", "--route", route)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "1652"
        cp = run_cli("count", "--k", "3", "--n", "7", "--route", route)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "18"


def test_count_invalid_flags():
    cp = run_cli("count", "--k", "2")
    assert cp.returncode == 1
    assert "error" in cp.stderr
    cp = run_cli("count", "--k", "1", "--n", "7", "--route", "funceq")
    assert cp.returncode == 1
    assert cp.stderr == "witrees: error: arity must be >= 2\n"


def test_sample_deterministic_repeat():
    args = ("sample", "--n", "20", "--count", "3", "--seed", "42")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n\n") >= 3 - 1


def test_sample_root_tree():
    cp = run_cli("sample", "--n", "2", "--count", "1", "--seed", "7")
    assert cp.returncode == 0
    assert cp.stdout == "1\n  0: *\n  1: *\n\n"


def test_sample_formats():
    cp = run_cli("sample", "--n", "6", "--count", "2", "--seed", "3",
                 "--format", "encoding")
    lines = cp.stdout.splitlines()
    assert len(lines) == 2 and all(bytes.fromhex(line) for line in lines)
    cp = run_cli("sample", "--n", "4", "--count", "1", "--seed", "1",
                 "--format", "graph")
    assert cp.stdout.startswith("- - 1\n")


def test_sample_zero_count_size_fails():
    cp = run_cli("sample", "--k", "3", "--n", "6")
    assert cp.returncode == 1
    assert "size 6" in cp.stderr


def test_scaled_csv(tmp_path):
    out = tmp_path / "b.csv"
    cp = run_cli("scaled", "--kind", "b", "--upto", "50", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,0.0"
    assert lines[3].startswith("2,0.480453013918201")


def test_scaled_h_needs_k(tmp_path):
    cp = run_cli("scaled", "--kind", "h", "--k", "1", "--upto", "10")
    assert cp.returncode == 1 and cp.stderr == "witrees: error: arity must be >= 2\n"


def test_estimate_alpha_record():
    cp = run_cli("estimate", "alpha", "--N", "300")
    assert cp.returncode == 0, cp.stderr
    kind, value, err, method, n, k, d = cp.stdout.strip().split(",")
    assert kind == "alpha" and method == "ratio" and (n, k, d) == ("300", "2", "30")
    assert abs(float(value) - 1.442695040888963) < 1e-9


def test_estimate_eta_small():
    cp = run_cli("estimate", "eta", "--N", "1100", "--digits", "20")
    assert cp.returncode == 0, cp.stderr
    value = float(cp.stdout.split(",")[1])
    assert abs(value - 0.647852) <= 1e-3


def test_estimate_exponent():
    cp = run_cli("estimate", "exponent", "--k", "3", "--N", "2000", "--digits", "20")
    assert cp.returncode == 0, cp.stderr
    value = float(cp.stdout.split(",")[1])
    assert abs(value - (-1.01986)) < 1e-4


def test_estimate_invalid_pairing():
    cp = run_cli("estimate", "alpha", "--method", "integral")
    assert cp.returncode == 1 and "not valid" in cp.stderr
    cp = run_cli("estimate", "eta", "--k", "3", "--method", "integral", "--N", "600")
    assert cp.returncode == 1 and "integral route is binary" in cp.stderr


def test_figure_fig2_deterministic(tmp_path):
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    cp1 = run_cli("figure", "fig2", "--out", str(out1))
    cp2 = run_cli("figure", "fig2", "--out", str(out2))
    assert cp1.returncode == cp2.returncode == 0
    data1, data2 = out1.read_bytes(), out2.read_bytes()
    assert data1 == data2
    lines = data1.decode().splitlines()
    assert lines[0] == "n,b_n,inv_sqrt_n,inv_n"
    assert lines[1].startswith("25,")
    last = lines[-1].split(",")
    assert last[0] == "1000" and last[2].startswith("0.0316227766")
    n25 = lines[1].split(",")
    assert 1 / 25 < float(n25[1]) < 1 / 5


def test_figure_fig3_columns(tmp_path):
    out = tmp_path / "f3.csv"
    cp = run_cli("figure", "fig3", "--out", str(out), "--digits", "20")
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,h_n_k3,h_n_k13,h_n_k49,asymptote_k3,asymptote_k13,asymptote_k49"
    import math

    for line in lines[1:]:
        parts = line.split(",")
        n = int(parts[0])
        for h in map(float, parts[1:4]):
            assert 0 <= h <= n ** -math.log(2)


def test_table_and_cache_verify(tmp_path):
    out = tmp_path / "table.txt"
    cp = run_cli("table", "--k", "2", "--upto", "40", "--out", str(out))
    assert cp.returncode == 0 and cp.stdout.strip() == str(out)
    cp = run_cli("cache", "verify", str(out))
    assert cp.returncode == 0
    assert cp.stdout.strip() == "ok kind=B k=2 entries=41"
    cp = run_cli("cache", "verify", str(out), "--kind", "H")
    assert cp.returncode == 1 and "kind" in cp.stderr


def test_table_default_name_in_cache_dir(tmp_path):
    cp = run_cli("table", "--k", "3", "--upto", "10", "--cache-dir", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    path = cp.stdout.strip()
    assert path.startswith(str(tmp_path))
    assert run_cli("cache", "verify", path, "--kind", "H", "--k", "3").returncode == 0


def test_cache_dir_environment_override(tmp_path):
    import os
    import subprocess

    env = dict(os.environ, WITREES_CACHE_DIR=str(tmp_path))
    cp = subprocess.run(
        [sys.executable, "-m", "witrees.cli", "table", "--k", "2", "--upto", "10"],
        capture_output=True, text=True, env=env,
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip().startswith(str(tmp_path))


def test_oeis_check_fixture(bfile_fixture_path):
    cp = run_cli("oeis-check", "--bfile", bfile_fixture_path, "--upto", "50")
    assert cp.returncode == 0, cp.stderr
    assert "offset=1" in cp.stdout and "status=ok" in cp.stdout


def test_oeis_check_b_file_with_one_far_index(bfile_fixture_path, tmp_path):
    # only shifts whose first compared index is catalogued are tried, so a
    # far index adds one shift, not 10^12 of them
    far = tmp_path / "far.txt"
    with open(bfile_fixture_path) as fh:
        far.write_text(fh.read() + "1000000000000 7\n")
    cp = run_cli("oeis-check", "--bfile", str(far), timeout=20)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "A171792 offset=1 matched=49 overlap=49 status=ok\n"


def test_oeis_check_self():
    cp = run_cli("oeis-check", "--self", "--upto", "30")
    assert cp.returncode == 0
    assert "offset=0" in cp.stdout


def test_oeis_check_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\nabc\n")
    cp = run_cli("oeis-check", "--bfile", str(bad))
    assert cp.returncode == 1
    assert "line 2" in cp.stderr


def test_oeis_check_needs_source():
    cp = run_cli("oeis-check")
    assert cp.returncode == 1
    assert "--bfile" in cp.stderr


def test_unknown_subcommand_exits_2():
    cp = run_cli("frobnicate")
    assert cp.returncode == 2


def test_error_without_message_names_the_exception(monkeypatch, capsys):
    from witrees import cli

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_count", out_of_memory)
    assert cli.main(["count", "--k", "2", "--n", "5"]) == 1
    assert capsys.readouterr().err == "witrees: error: MemoryError\n"


def test_an_out_path_in_a_missing_directory_is_refused_by_name(tmp_path, capsys):
    from witrees import cli

    out = tmp_path / "missing" / "s.csv"
    assert cli.main(["scaled", "--upto", "5", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"witrees: error: cannot write {out}: No such file or directory\n"
    )
    assert not list(tmp_path.rglob(".wit-cache-*"))


def test_a_directory_given_as_out_is_refused_by_name(tmp_path, capsys):
    from witrees import cli

    out = tmp_path / "dir"
    out.mkdir()
    assert cli.main(["table", "--upto", "5", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"witrees: error: cannot write {out}: Is a directory\n")
    assert not list(tmp_path.rglob(".wit-cache-*"))
    assert not list(out.iterdir())


@pytest.mark.parametrize("argv, reason", [
    (["cache", "verify", "{dir}"], "Is a directory"),
    (["cache", "verify", "{dir}/missing"], "No such file or directory"),
    (["oeis-check", "--bfile", "{dir}/missing"], "No such file or directory"),
])
def test_an_unreadable_input_is_refused_by_name(tmp_path, capsys, argv, reason):
    from witrees import cli

    argv = [a.format(dir=tmp_path) for a in argv]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"witrees: error: cannot read {argv[-1]}: {reason}\n")


def test_a_file_given_as_cache_dir_is_refused_by_name(tmp_path, capsys):
    from witrees import cli

    cache_dir = tmp_path / "file"
    cache_dir.write_text("")
    assert cli.main(["table", "--upto", "5", "--cache-dir", str(cache_dir)]) == 1
    assert capsys.readouterr() == ("", f"witrees: error: cannot create {cache_dir}: File exists\n")


@pytest.mark.parametrize("route", ["recurrence", "funceq", "brute"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("flag, value", [("--n", "-5"), ("--upto", "-1")])
def test_count_rejects_negative_sizes(capsys, route, k, flag, value):
    from witrees import cli

    assert cli.main(["count", "--k", str(k), flag, value, "--route", route]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"witrees: error: size must be nonnegative, got {value}\n"


def test_count_rows_are_streamed(monkeypatch):
    # `count --k 10**12 --upto 10**12 | head` needs a two-entry table but
    # 10**12 rows, so the rows are printed as they are computed
    from witrees import cli

    class Head(io.StringIO):
        def write(self, text):
            if self.getvalue().count("\n") >= 5:
                raise BrokenPipeError
            return super().write(text)

    out = Head()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["count", "--k", str(10**12), "--upto", str(10**12)]) == 0
    assert out.getvalue() == "0\t0\n1\t0\n2\t0\n3\t0\n4\t0\n"


def test_oeis_check_rejects_a_negative_bound(capsys):
    # find_shift needs 10 matching values, so a bound below 9 is refused by its flag
    from witrees import cli

    for upto in (-3, 0, 8):
        assert cli.main(["oeis-check", "--self", "--upto", str(upto)]) == 1
        assert capsys.readouterr().err == f"witrees: error: --upto must be >= 9, got {upto}\n"
    assert cli.main(["oeis-check", "--self", "--upto", "9"]) == 0
    assert "status=ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, least",
    [(["table", "--upto", "1"], 2),
     (["table", "--kind", "Bmn", "--upto", "1"], 2),
     (["table", "--kind", "H", "--upto", "0"], 1),
     (["table", "--k", "3", "--upto", "0"], 1),
     (["table", "--k", "3", "--upto", "-4"], 1),
     (["scaled", "--upto", "1"], 2),
     (["scaled", "--kind", "a", "--upto", "0"], 2),
     (["scaled", "--kind", "h", "--k", "3", "--upto", "0"], 1)],
)
def test_too_small_an_upto_is_refused_by_its_flag(tmp_path, capsys, argv, least):
    # not by the builder's own argument name (N, M), and before building
    from witrees import cli

    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"witrees: error: --upto must be >= {least}, got {argv[-1]}\n"
    )
    assert not out.exists()
    assert cli.main([*argv[:-1], str(least), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("kind", ["B", "Bmn"])
def test_table_binary_kinds_reject_other_arities(tmp_path, capsys, kind):
    from witrees import cli

    argv = ["table", "--k", "3", "--kind", kind, "--upto", "20", "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert f"kind {kind} tables are binary" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind, k", [("b", 3), ("b", 5), ("a", 3)])
def test_scaled_binary_kinds_reject_other_arities(tmp_path, capsys, kind, k):
    from witrees import cli

    out = tmp_path / "seq.csv"
    argv = ["scaled", "--kind", kind, "--k", str(k), "--upto", "4", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"witrees: error: kind {kind} sequences are binary; use --k 2 or --kind h\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("method", ["extrapolation", "integral"])
def test_estimate_eta_rejects_other_arities(capsys, method):
    # extrapolation serves every arity k >= 2, the integral route only k = 2
    from witrees import cli

    k, message = {"extrapolation": (1, "arity must be >= 2"),
                  "integral": (3, "the integral route is binary; use --k 2")}[method]
    assert cli.main(["estimate", "eta", "--k", str(k), "--N", "1100", "--method", method]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"witrees: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["count", "--n", "5", "--upto", "3"], "--n and --upto cannot be used together"),
    (["oeis-check", "--self", "--bfile", "F"], "--self and --bfile cannot be used together"),
    (["oeis-check", "--upto", "30000"], "oeis-check needs --bfile PATH, --fetch, or --self"),
])
def test_conflicting_flags_are_refused_by_name(monkeypatch, capsys, argv, message):
    # refused before any table is built
    from witrees import cli, exact

    for name in [n for n in dir(exact) if n.startswith("count_")]:
        monkeypatch.setattr(exact, name, lambda *args: pytest.fail("a table was built"))
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"witrees: error: {message}\n")


@pytest.mark.parametrize(
    "target, k, message",
    [("alpha", 2, "N must be >= 2"), ("alpha", 3, "M must be >= 1"),
     ("eta", 2, "N must be >= 2"), ("exponent", 3, "N must be >= 1")],
)
def test_estimate_zero_size_is_an_error_not_the_default(capsys, target, k, message):
    # --N 0 is refused up front, naming --N; the builder the estimate would
    # run refuses a zero size on its own too, with `message`.
    from witrees import asymptotics, cli, exact

    builders = {
        ("alpha", 2): lambda: exact.count_binary_upto(0),
        ("alpha", 3): lambda: exact.count_kary_upto(3, 0),
        ("eta", 2): lambda: asymptotics.scaled_b_recurrence(0),
        ("exponent", 3): lambda: asymptotics.scaled_h_recurrence(3, 0),
    }

    assert cli.main(["estimate", target, "--k", str(k), "--N", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    least = {"alpha": asymptotics.ALPHA_MIN_N, "eta": asymptotics.ETA_EXTRAPOLATION_MIN_N,
             "exponent": asymptotics.EXPONENT_MIN_N}[target]
    assert err == f"witrees: error: estimate {target} needs --N >= {least}, got 0\n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        builders[target, k]()


@pytest.mark.parametrize(
    "argv, message",
    [(["eta", "--N", "999"], "estimate eta needs --N >= 1000, got 999"),
     (["eta", "--method", "integral", "--N", "99"], "estimate eta needs --N >= 200, got 99"),
     (["exponent", "--k", "3", "--N", "1999"], "estimate exponent needs --N >= 2000, got 1999"),
     (["alpha", "--k", "3", "--N", "99"], "estimate alpha needs --N >= 100, got 99"),
     (["eta", "--method", "integral", "--N", "150"], "estimate eta needs --N >= 200, got 150")],
)
def test_estimate_checks_the_size_before_building(monkeypatch, capsys, argv, message):
    from witrees import asymptotics, cli, exact

    def built(*args, **kwargs):
        raise AssertionError("a builder ran before the size check")

    for name in ("scaled_b_recurrence", "scaled_h_recurrence", "correction_a"):
        monkeypatch.setattr(asymptotics, name, built)
    for name in ("count_binary_upto", "count_kary_upto"):
        monkeypatch.setattr(exact, name, built)
    assert cli.main(["estimate", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"witrees: error: {message}\n"


def test_main_keeps_the_callers_digit_limit(capsys):
    from witrees import cli, exact

    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli.main(["count", "--upto", "300", "--format", "csv"]) == 0
        assert sys.get_int_max_str_digits() == 640
        with exact.unlimited_int_digits():
            table = exact.count_binary_upto(300)
            expected = "n,count\n" + "".join(f"{n},{table.g(n)}\n" for n in range(301))
        assert capsys.readouterr().out == expected  # B_300 has 658 digits
    finally:
        sys.set_int_max_str_digits(before)


class _Built(Exception):
    """Raised by a monkeypatched builder: the size got past the guard."""


@pytest.mark.parametrize(
    "argv, flag, needed",
    [(["count", "--n", "{}"], "--n", 2000),
     (["count", "--upto", "{}"], "--upto", 2000),
     (["count", "--k", "3", "--upto", "{}"], "--upto", 1600),
     (["count", "--route", "funceq", "--upto", "{}"], "--upto", 300),
     (["count", "--route", "brute", "--n", "{}"], "--n", 9),
     (["count", "--route", "brute", "--k", "3", "--upto", "{}"], "--upto", 9),
     (["sample", "--n", "{}"], "--n", 800),
     (["sample", "--k", "3", "--n", "{}"], "--n", 800),
     (["table", "--upto", "{}"], "--upto", 2000),
     (["table", "--k", "3", "--upto", "{}"], "--upto", 2000),
     (["table", "--kind", "Bmn", "--upto", "{}"], "--upto", 60),
     (["oeis-check", "--self", "--upto", "{}"], "--upto", 50),
     (["scaled", "--upto", "{}"], "--upto", 10000),
     (["scaled", "--kind", "a", "--upto", "{}"], "--upto", 4000),
     (["scaled", "--kind", "h", "--k", "3", "--upto", "1", "--digits", "{}"], "--digits", 70),
     (["estimate", "alpha", "--N", "{}"], "--N", 2000),
     (["estimate", "eta", "--N", "{}"], "--N", 10000),
     (["estimate", "eta", "--method", "integral", "--N", "{}"], "--N", 4000),
     (["estimate", "exponent", "--k", "3", "--N", "{}"], "--N", 5000),
     (["estimate", "alpha", "--digits", "{}"], "--digits", 70),
     (["figure", "fig3", "--out", "F", "--digits", "{}"], "--digits", 70),
     (["count", "--route", "funceq", "--k", "3", "--upto", "{}"], "--upto", 1600)],
)
def test_size_limits_are_checked_before_building(monkeypatch, capsys, argv, flag, needed):
    # The builders raise, so a size that passes its guard ends in
    # "error: _Built" without allocating anything; the refusal names the flag
    # and the largest size that fits, which covers every size the tests,
    # the README and the benchmark use (`needed`).
    from witrees import asymptotics, cli, exact, sampler

    def built(*args, **kwargs):
        raise _Built

    for name in [n for n in dir(exact) if n.startswith("count_")] + ["brute_force_count"]:
        monkeypatch.setattr(exact, name, built)
    for name in ("scaled_b_recurrence", "scaled_h_recurrence", "correction_a"):
        monkeypatch.setattr(asymptotics, name, built)
    monkeypatch.setattr(sampler.SamplerContext, "create", built)

    def run(value):
        assert cli.main([a.format(value) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        return err

    match = re.fullmatch(
        rf"witrees: error: {flag} {10**30} is too large: at most (\d+) fits the 1 GiB build limit\n",
        run(10**30),
    )
    assert match, flag
    limit = int(match.group(1))
    assert limit >= needed
    assert run(limit) == "witrees: error: _Built\n"
    assert run(limit + 1) == (
        f"witrees: error: {flag} {limit + 1} is too large: at most {limit} "
        f"fits the 1 GiB build limit\n"
    )


def test_large_arities_answer_at_once():
    # The recurrence binomials cost O(min(s, k)) factors, so a huge --k
    # builds its few table entries (and the brute route's guard its H_64)
    # at once.  H_3 = (2k - 1) k + C(k, 2) = (5k^2 - 3k) / 2 at size 3k - 2.
    k = 10**6
    cp = run_cli("count", "--k", str(k), "--n", str(3 * k - 2), timeout=20)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == f"{(5 * k * k - 3 * k) // 2}\n" == "2499998500000\n"
    cp = run_cli("estimate", "alpha", "--k", str(k), "--N", "100", timeout=20)
    assert cp.returncode == 0, cp.stderr
    # below size k the series route's footprint is 0 and it steps no row
    cp = run_cli("count", "--route", "funceq", "--k", str(10**20), "--n", "3", timeout=20)
    assert (cp.returncode, cp.stdout) == (0, "0\n"), cp.stderr
    cp = run_cli("count", "--route", "brute", "--k", "30000", "--n", str(10**30), timeout=20)
    assert cp.returncode == 1
    assert re.fullmatch(
        rf"witrees: error: --n {10**30} is too large: at most \d+ fits the 1 GiB build limit\n",
        cp.stderr,
    )
