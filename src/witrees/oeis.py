"""OEIS b-file parsing and shift cross-validation.

A b-file is the OEIS interchange format: one ``index value`` pair per line,
``#`` comment lines ignored, indices strictly increasing.  The checker
finds the shift s under which our computed counts match the catalogued
sequence, i.e. count(n) = a(n - s) for every n in the overlapping range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .cache import _atomic_write, _read_text
from .exact import unlimited_int_digits

_ID_RE = re.compile(r"^A(\d{6,7})$")


class OeisParseError(ValueError):
    """Unparseable b-file content."""


@dataclass(frozen=True)
class OeisBFile:
    seq_id: str
    entries: tuple[tuple[int, int], ...]  # (index, value), strictly increasing


@dataclass(frozen=True)
class ShiftReport:
    """Result of matching a count table against a b-file."""

    seq_id: str
    offset: int          # count(n) = a(n - offset)
    matched: int         # length of the agreeing prefix of the overlap
    overlap: int         # number of comparable indices
    first_mismatch: Optional[tuple[int, int, int]]  # (n, count_n, a_value)

    @property
    def full_prefix(self) -> bool:
        return self.first_mismatch is None and self.matched == self.overlap


def bfile_url(seq_id: str) -> str:
    m = _ID_RE.match(seq_id)
    if not m:
        raise ValueError(f"bad OEIS id {seq_id!r} (expected like 'A171792')")
    return f"https://oeis.org/{seq_id}/b{m.group(1)}.txt"


@unlimited_int_digits()
def parse_bfile(text: str, seq_id: str = "A000000") -> OeisBFile:
    """Parse b-file text; raises ``OeisParseError`` naming the bad line."""
    entries: list[tuple[int, int]] = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise OeisParseError(f"line {ln_no}: expected 'index value', got {raw!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise OeisParseError(f"line {ln_no}: non-integer field in {raw!r}") from None
        if entries and idx <= entries[-1][0]:
            raise OeisParseError(f"line {ln_no}: index {idx} not strictly increasing")
        entries.append((idx, val))
    if not entries:
        raise OeisParseError("b-file contains no entries")
    return OeisBFile(seq_id, tuple(entries))


def load_bfile(path: str, seq_id: str = "A000000") -> OeisBFile:
    return parse_bfile(_read_text(path, OeisParseError), seq_id)


def fetch_bfile(seq_id: str, dest_path: str, timeout: float = 30.0) -> str:
    """Single HTTP GET of the b-file; the body is written to ``dest_path``.

    The write is atomic: a failure leaves no file at ``dest_path``, never a
    truncated b-file that a later check would read as the catalogue.
    """
    import urllib.request  # deferred: it loads http, email and ssl

    url = bfile_url(seq_id)
    req = urllib.request.Request(url, headers={"User-Agent": "witrees/0.1"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        body = resp.read().decode("utf-8", "replace")
    _atomic_write(dest_path, body)
    return dest_path


def find_shift(counts, bfile: OeisBFile, upto: int) -> ShiftReport:
    """Best shift s such that counts.entry(n) == a(n - s) on a maximal prefix.

    All shifts giving a nonempty overlap with 0..upto are tried in
    ascending order; the report carries the longest agreeing prefix, and
    ``max`` keeps the first of equal keys, so ties go to the smaller |s|
    and then to the negative s.  Raises ``ValueError`` when no shift
    achieves at least 10 matches.
    """
    if upto > counts.max_index:
        raise ValueError(f"table covers only 0..{counts.max_index}, need {upto}")
    a = dict(bfile.entries)
    i_min = bfile.entries[0][0]
    i_max = bfile.entries[-1][0]

    def report(s: int) -> ShiftReport:
        lo = max(0, i_min + s)
        hi = min(upto, i_max + s)
        matched = 0
        mismatch = None
        for n in range(lo, hi + 1):
            if (n - s) in a and counts.entry(n) == a[n - s]:
                matched += 1
            else:
                mismatch = (n, counts.entry(n), a.get(n - s))
                break
        return ShiftReport(bfile.seq_id, s, matched, hi - lo + 1, mismatch)

    # each shift overlaps 0..upto; with upto < 0 none does, and none matches
    shifts = map(report, range(-i_max, upto - i_min + 1))
    best = max(shifts, key=lambda r: (r.matched, -abs(r.offset)), default=None)
    if best is None or best.matched < 10:
        raise ValueError(
            f"no shift matches {bfile.seq_id} on at least 10 consecutive values"
        )
    return best
