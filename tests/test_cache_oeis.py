import io
import sys
from unittest import mock

import pytest

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


def test_bfile_url():
    assert bfile_url("A171792") == "https://oeis.org/A171792/b171792.txt"
    with pytest.raises(ValueError):
        bfile_url("171792")


def test_fetch_writes_reported_file(tmp_path):
    body = "1 1\n2 2\n"

    class FakeResponse(io.BytesIO):
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(body.encode())) as m:
        dest = tmp_path / "b171792.txt"
        out = fetch_bfile("A171792", str(dest))
    assert out == str(dest)
    assert dest.read_text() == body
    assert "b171792.txt" in m.call_args[0][0].full_url


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

    class FakeResponse(io.BytesIO):
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(body.encode())):
        rc = main(["oeis-check", "--fetch", "--upto", "30",
                   "--cache-dir", str(tmp_path)])
    assert rc == 0
    saved = tmp_path / "b171792.txt"
    assert saved.read_text() == body  # fetch is written to a named location


def test_cli_fetch_message_goes_to_stderr(tmp_path, btab300, capsys):
    from witrees.cli import main

    body = "".join(f"{n} {btab300.entry(n + 1)}\n" for n in range(1, 40))

    class FakeResponse(io.BytesIO):
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    with mock.patch("urllib.request.urlopen", return_value=FakeResponse(body.encode())):
        main(["oeis-check", "--fetch", "--upto", "30", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert "fetched" in captured.err and str(tmp_path) in captured.err
    assert "offset=1" in captured.out
