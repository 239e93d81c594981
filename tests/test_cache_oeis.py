import io
import os
import subprocess
import sys
from unittest import mock

import pytest

from witrees import exact
from witrees.cache import CacheError, cache_load, cache_save
from witrees.exact import (
    LabelStratifiedTable,
    count_binary_upto,
    count_by_max_label,
    count_kary_upto,
)
from witrees.oeis import (
    OeisBFile,
    OeisParseError,
    bfile_url,
    fetch_bfile,
    find_shift,
    load_bfile,
    parse_bfile,
)


# ---------------------------------------------------------------- cache


def test_round_trip_binary(tmp_path, btab300):
    p = tmp_path / "b.txt"
    cache_save(btab300, str(p))
    loaded = cache_load(str(p))
    assert loaded.values == btab300.values
    assert loaded.kind == "B" and loaded.k == 2
    # saving the reloaded table reproduces the file bit for bit
    p2 = tmp_path / "b2.txt"
    cache_save(loaded, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def test_round_trip_kary(tmp_path, htab3_60):
    p = tmp_path / "h.txt"
    cache_save(htab3_60, str(p))
    loaded = cache_load(str(p), expect_kind="H", expect_k=3)
    assert loaded.values == htab3_60.values


def test_round_trip_stratified(tmp_path, bmn60):
    p = tmp_path / "bmn.txt"
    cache_save(bmn60, str(p))
    loaded = cache_load(str(p), expect_kind="Bmn")
    assert isinstance(loaded, LabelStratifiedTable)
    assert loaded.values == bmn60.values
    assert loaded.size_bound == 60


def test_header_first_line(tmp_path, btab300):
    p = tmp_path / "b.txt"
    cache_save(btab300, str(p))
    assert p.read_text().splitlines()[0] == "# wit-cache v1 kind=B k=2"


def test_kind_and_k_mismatch(tmp_path, htab3_60):
    p = tmp_path / "h.txt"
    cache_save(htab3_60, str(p))
    with pytest.raises(CacheError, match="kind"):
        cache_load(str(p), expect_kind="B")
    with pytest.raises(CacheError, match="k=3"):
        cache_load(str(p), expect_k=2)


def test_corrupt_entries(tmp_path):
    good = "# wit-cache v1 kind=B k=2\n0\t0\n1\t0\n2\t1\n"
    for mutation, pattern in (
        (good.replace("2\t1", "2\tx"), "line 4"),
        (good.replace("1\t0\n2\t1", "2\t1\n1\t0"), "corrupt entry"),
        (good.replace("# wit-cache v1", "# wit-cache v9"), "header"),
        ("", "empty"),
        (good.replace("2\t1", "2\t-4"), "line 4"),
    ):
        p = tmp_path / "bad.txt"
        p.write_text(mutation)
        with pytest.raises(CacheError, match=pattern):
            cache_load(str(p))


@pytest.mark.parametrize("text, line", [
    ("# wit-cache v1 kind=B k=2\n0\t0\n1,2\t5\n", 3),
    ("# wit-cache v1 kind=H k=3\n0\t0\n1,2\t5\n", 3),
    ("# wit-cache v1 kind=B k=2\n0\t0\n1 0\n", 3),
    ("# wit-cache v1 kind=Bmn k=2\n1,2\t1\n7\t1\n", 3),
    ("# wit-cache v1 kind=Bmn k=2\n1,2,3\t1\n", 2),
    ("# wit-cache v1 kind=Bmn k=2\n1,2\t1\n1,3 1\n", 3),
], ids=["B-pair-index", "H-pair-index", "B-no-tab", "Bmn-single-index",
        "Bmn-triple-index", "Bmn-no-tab"])
def test_an_index_of_the_wrong_shape_is_a_corrupt_entry(tmp_path, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    bad = text.splitlines()[line - 1]
    with pytest.raises(CacheError) as info:
        cache_load(str(p))
    assert str(info.value) == f"{p}: corrupt entry at line {line}: {bad!r}"


@pytest.mark.parametrize("header", ["kind=B k=2", "kind=H k=3", "kind=Bmn k=2"])
def test_a_header_without_entries_is_an_empty_cache_file(tmp_path, capsys, header):
    from witrees import cli

    p = tmp_path / "empty.txt"
    p.write_text(f"# wit-cache v1 {header}\n")
    with pytest.raises(CacheError) as info:
        cache_load(str(p))
    assert str(info.value) == f"{p}: empty cache file"
    assert cli.main(["cache", "verify", str(p)]) == 1
    assert capsys.readouterr() == ("", f"witrees: error: {p}: empty cache file\n")


@pytest.mark.parametrize("k", [2, 3, 5])
def test_clean_kary_tables_load_bit_identically(tmp_path, k):
    tab = count_kary_upto(k, 80)
    p = tmp_path / "h.txt"
    cache_save(tab, str(p))
    assert cache_load(str(p), expect_kind="H", expect_k=k).values == tab.values


def test_one_digit_change_names_the_first_bad_index(tmp_path, capsys):
    from witrees import cli

    p = tmp_path / "h3.txt"
    assert cli.main(["table", "--k", "3", "--upto", "8", "--out", str(p)]) == 0
    capsys.readouterr()
    text = p.read_text()
    assert text.endswith("\n8\t9217809\n")
    p.write_text(text.replace("8\t9217809", "8\t9217808"))
    assert cli.main(["cache", "verify", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"witrees: error: {p}: index 8 does not match the size recurrence "
        "(checked modulo 2^127 - 1)\n"
    )


@pytest.mark.parametrize("k", [2, 3])
def test_a_long_file_bad_early_is_refused_at_its_first_bad_index(tmp_path, monkeypatch, k):
    # 5,000 entries with entry 2 wrong: the check draws the residues of
    # indices 0..2 and no further, so the length of the file does not matter
    values = [0, 1, count_kary_upto(k, 2).entry(2) + 1] + [1] * 4997
    p = tmp_path / "h.txt"
    rows = "".join(f"{i}\t{v}\n" for i, v in enumerate(values))
    p.write_text(f"# wit-cache v1 kind=H k={k}\n{rows}")
    drawn = []
    real = exact.h_residues

    def counted(k, M):
        for r in real(k, M):
            drawn.append(r)
            yield r

    monkeypatch.setattr(exact, "h_residues", counted)
    with pytest.raises(CacheError) as info:
        cache_load(str(p))
    assert str(info.value) == (
        f"{p}: index 2 does not match the size recurrence (checked modulo 2^127 - 1)"
    )
    assert len(drawn) == 3


def test_a_corrupt_binary_entry_is_refused_by_its_index(tmp_path, btab300):
    p = tmp_path / "b.txt"
    cache_save(btab300, str(p))
    lines = p.read_text().splitlines(keepends=True)
    for n in (3, 7, 150, 300):
        bad = lines.copy()
        bad[n + 1] = f"{n}\t{btab300.entry(n) + 1}\n"  # line 1 is the header
        p.write_text("".join(bad))
        with pytest.raises(CacheError, match=f"index {n} does not match"):
            cache_load(str(p))


def test_an_entry_off_by_a_small_mersenne_prime_is_refused(tmp_path, btab300):
    # B_3 = 2 edited to 2 + (2^61 - 1), which a check modulo 2^61 - 1 would pass
    p = tmp_path / "b.txt"
    cache_save(btab300, str(p))
    text = p.read_text()
    edited = text.replace("\n3\t2\n", "\n3\t2305843009213693953\n")
    assert edited != text and 2305843009213693953 == 2 + (1 << 61) - 1
    p.write_text(edited)
    with pytest.raises(CacheError) as info:
        cache_load(str(p))
    assert str(info.value) == (
        f"{p}: index 3 does not match the size recurrence (checked modulo 2^127 - 1)"
    )


def test_a_one_entry_edit_in_a_stratified_file_is_refused(tmp_path, bmn60):
    p = tmp_path / "bmn.txt"
    cache_save(bmn60, str(p))
    text = p.read_text()
    value = bmn60.values[(9, 30)]
    edited = text.replace(f"\n9,30\t{value}\n", f"\n9,30\t{value - 1}\n")
    assert edited != text
    p.write_text(edited)
    with pytest.raises(CacheError, match="row n=30 does not sum to B_30"):
        cache_load(str(p))
    p.write_text(text.replace("\n9,30\t", "\n30,30\t"))  # m must stay below n
    with pytest.raises(CacheError, match="corrupt entry"):
        cache_load(str(p))
    # a missing row is refused where it is missing, however far the last row
    p.write_text("# wit-cache v1 kind=Bmn k=2\n1,2\t1\n1,1000000000000\t1\n")
    with pytest.raises(CacheError, match="row n=3 does not sum to B_3"):
        cache_load(str(p))


@pytest.mark.parametrize("header", ["kind=H k=1", "kind=H k=0", "kind=Bmn k=3"])
def test_an_arity_the_kind_cannot_have_is_refused(tmp_path, header):
    p = tmp_path / "h.txt"
    body = "1,2\t1\n" if "Bmn" in header else "0\t0\n1\t1\n"
    p.write_text(f"# wit-cache v1 {header}\n{body}")
    with pytest.raises(CacheError, match="does not fit kind"):
        cache_load(str(p))


def test_a_cache_file_that_is_not_text_is_refused_by_name(tmp_path, capsys):
    from witrees import cli

    p = tmp_path / "bin.txt"
    p.write_bytes(b"\xff\xfe")
    with pytest.raises(CacheError) as info:
        cache_load(str(p))
    assert str(info.value) == f"{p}: not UTF-8 text (bad byte at offset 0)"
    assert cli.main(["cache", "verify", str(p)]) == 1
    assert capsys.readouterr() == ("", f"witrees: error: {info.value}\n")


def test_save_is_atomic_overwrite(tmp_path, btab300):
    p = tmp_path / "b.txt"
    p.write_text("junk")
    cache_save(btab300, str(p))
    assert p.read_text().startswith("# wit-cache v1")
    assert not list(tmp_path.glob(".wit-cache-*"))


def test_big_values_round_trip(tmp_path):
    tab = count_binary_upto(400)  # entries far beyond 4300 digits in total
    p = tmp_path / "big.txt"
    cache_save(tab, str(p))
    assert cache_load(str(p)).values == tab.values


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_conversions_keep_the_callers_digit_limit(tmp_path, btab300):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(btab300.entry(300))  # B_300 has 658 digits
        p = tmp_path / "b300.txt"
        cache_save(btab300, str(p))
        assert cache_load(str(p)).values == btab300.values
        assert parse_bfile("1 " + "9" * 700 + "\n").entries == ((1, 10**700 - 1),)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)


# ---------------------------------------------------------------- b-files


def test_parse_bfile_basics():
    bf = parse_bfile("# comment\n\n1 1\n2 2\n3 7\n", "A171792")
    assert bf.entries == ((1, 1), (2, 2), (3, 7))


def test_parse_bfile_errors_name_lines():
    with pytest.raises(OeisParseError, match="line 2"):
        parse_bfile("1 1\nabc\n")
    with pytest.raises(OeisParseError, match="line 3"):
        parse_bfile("1 1\n2 2\n2 9\n")
    with pytest.raises(OeisParseError, match="line 1"):
        parse_bfile("1 1 1\n")
    with pytest.raises(OeisParseError, match="no entries"):
        parse_bfile("# nothing\n")


def test_a_bfile_that_is_not_text_is_refused_by_name(tmp_path, capsys):
    from witrees import cli

    p = tmp_path / "bin.txt"
    p.write_bytes(b"1 1\n2 \xff\xfe\n")
    with pytest.raises(OeisParseError) as info:
        load_bfile(str(p))
    assert str(info.value) == f"{p}: not UTF-8 text (bad byte at offset 6)"
    assert cli.main(["oeis-check", "--bfile", str(p)]) == 1
    assert capsys.readouterr() == ("", f"witrees: error: {info.value}\n")


def test_bfile_url():
    assert bfile_url("A171792") == "https://oeis.org/A171792/b171792.txt"
    with pytest.raises(ValueError):
        bfile_url("171792")


def test_import_loads_no_http_stack():
    # urllib.request pulls in http, email and ssl; only a fetch needs them
    import witrees

    src = os.path.dirname(os.path.dirname(os.path.abspath(witrees.__file__)))
    code = (
        "import sys, witrees, witrees.cli; "
        "print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


class FakeResponse(io.BytesIO):
    """A canned ``urlopen`` response."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_fetch_writes_reported_file(tmp_path):
    body = "1 1\n2 2\n"

    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(body.encode())) as m:
        dest = tmp_path / "b171792.txt"
        out = fetch_bfile("A171792", str(dest))
    assert out == str(dest)
    assert dest.read_text() == body
    assert "b171792.txt" in m.call_args[0][0].full_url


def test_failed_fetch_write_leaves_no_file(tmp_path):
    dest = tmp_path / "b171792.txt"
    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(b"1 1\n2 2\n")), \
            mock.patch("os.replace", side_effect=OSError("disk full")):
        with pytest.raises(OSError, match="disk full"):
            fetch_bfile("A171792", str(dest))
    assert not dest.exists()
    assert not list(tmp_path.glob(".wit-cache-*"))


# ---------------------------------------------------------------- shift check


def test_fixture_shift_is_one(btab300, bfile_fixture_path):
    bf = load_bfile(bfile_fixture_path, "A171792")
    report = find_shift(btab300, bf, 50)
    assert report.offset == 1  # frozen at bring-up: catalogue starts at B_2
    assert report.full_prefix
    assert report.matched == report.overlap == 49
    assert report.matched >= 50 - abs(report.offset)


def test_self_shift_is_zero(btab300):
    bf = OeisBFile("A000000", tuple((n, btab300.entry(n)) for n in range(51)))
    report = find_shift(btab300, bf, 50)
    assert report.offset == 0
    assert report.full_prefix and report.overlap == 51


def test_mismatch_reported(btab300):
    entries = [(n, btab300.entry(n + 1)) for n in range(1, 40)]
    entries[20] = (entries[20][0], entries[20][1] + 1)  # corrupt one value
    report = find_shift(btab300, OeisBFile("A171792", tuple(entries)), 39)
    assert report.offset == 1
    assert not report.full_prefix
    assert report.first_mismatch is not None
    assert report.first_mismatch[0] == 22


class _Alternating:
    """A count table stand-in: entry(n) = n mod 2 for n = 0..max_index."""

    max_index = 30

    def entry(self, n):
        return n % 2


def test_equal_matches_go_to_the_smaller_shift():
    # a(i) = (i + 1) mod 2 on 0..20 agrees with n mod 2 under every odd
    # shift; s = 1, 3, 5, 7, 9 all match the whole 21-index overlap
    bf = OeisBFile("A000000", tuple((i, (i + 1) % 2) for i in range(21)))
    report = find_shift(_Alternating(), bf, 30)
    assert (report.offset, report.matched, report.overlap) == (1, 21, 21)
    assert report.full_prefix


def test_equal_matches_at_plus_and_minus_s_go_to_the_negative_shift():
    # a(i) = (i + 1) mod 2 on 0..20 against 0..20: s = -1 and s = 1 both
    # match 20 values, every other shift fewer
    bf = OeisBFile("A000000", tuple((i, (i + 1) % 2) for i in range(21)))
    report = find_shift(_Alternating(), bf, 20)
    assert (report.offset, report.matched, report.overlap) == (-1, 20, 20)


def test_no_shift_matches():
    tab = count_binary_upto(60)
    junk = OeisBFile("A000001", tuple((i, 9_999_999 + i) for i in range(1, 60)))
    with pytest.raises(ValueError, match="no shift"):
        find_shift(tab, junk, 50)


def test_shift_needs_table_coverage(btab300, bfile_fixture_path):
    bf = load_bfile(bfile_fixture_path)
    with pytest.raises(ValueError, match="covers only"):
        find_shift(btab300, bf, 400)


def test_cli_fetch_reports_download_location(tmp_path, btab300):
    from witrees.cli import main

    body = "".join(f"{n} {btab300.entry(n + 1)}\n" for n in range(1, 40))

    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(body.encode())):
        rc = main(["oeis-check", "--fetch", "--upto", "30",
                   "--cache-dir", str(tmp_path)])
    assert rc == 0
    saved = tmp_path / "b171792.txt"
    assert saved.read_text() == body  # fetch is written to a named location


def test_cli_fetch_message_goes_to_stderr(tmp_path, btab300, capsys):
    from witrees.cli import main

    body = "".join(f"{n} {btab300.entry(n + 1)}\n" for n in range(1, 40))

    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(body.encode())):
        main(["oeis-check", "--fetch", "--upto", "30", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert "fetched" in captured.err and str(tmp_path) in captured.err
    assert "offset=1" in captured.out
