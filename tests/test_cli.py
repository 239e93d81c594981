import subprocess
import sys

import pytest


PAPER_PREFIX = [0, 0, 1, 2, 7, 34, 214, 1652, 15121, 160110, 1925442, 25924260,
                386354366, 6314171932]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "witrees.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


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


def test_count_invalid_flags():
    cp = run_cli("count", "--k", "2")
    assert cp.returncode == 1
    assert "error" in cp.stderr
    cp = run_cli("count", "--k", "3", "--n", "7", "--route", "funceq")
    assert cp.returncode == 1
    assert "binary" in cp.stderr


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
    cp = run_cli("scaled", "--kind", "h", "--upto", "10")
    assert cp.returncode == 1 and "k >= 3" in cp.stderr


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
    cp = run_cli("estimate", "exponent", "--k", "2", "--N", "2000")
    assert cp.returncode == 1


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


@pytest.mark.parametrize("route", ["recurrence", "funceq", "brute"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("flag, value", [("--n", "-5"), ("--upto", "-1")])
def test_count_rejects_negative_sizes(capsys, route, k, flag, value):
    from witrees import cli

    assert cli.main(["count", "--k", str(k), flag, value, "--route", route]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"witrees: error: size must be nonnegative, got {value}\n"


@pytest.mark.parametrize("kind", ["B", "Bmn"])
def test_table_binary_kinds_reject_other_arities(tmp_path, capsys, kind):
    from witrees import cli

    argv = ["table", "--k", "3", "--kind", kind, "--upto", "20", "--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert f"kind {kind} tables are binary" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
