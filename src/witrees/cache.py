"""Count-table persistence.

Cache file format (bit-exact, LF line endings):

    # wit-cache v1 kind=<B|H|Bmn> k=<k>
    <index>\t<decimal value>
    ...

Indices are the table's own indexing (size for kind B, H-index for kind H,
``m,n`` pairs for kind Bmn) and must be strictly increasing; kind B/H files
are additionally contiguous from 0.  Both kinds are written by one row
formatter and read by one line parser, which checks the index's shape for
the kind.  A file with no entries, even one with a valid header, is refused
as empty.  Files are written atomically (temp file in the target directory,
then rename).

A load checks the values by the package's one table check,
``exact._first_bad_residue``: the size recurrence re-run modulo the
Mersenne prime ``exact.CHECK_PRIME`` = 2^127 - 1, which every B/H entry
must match and every row of a Bmn table must sum to.  The residues are
compared as they are drawn, so the check stops at the first bad index,
and a long file bad early is refused at once.  An entry off by a multiple
of the prime passes, so none whose error is smaller than the prime does.
A file that fails is refused with a :class:`CacheError` naming the first
bad index; it is never returned.
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import Union

from .exact import (
    CHECK_PRIME,
    ROUTE_RECURRENCE,
    CountTable,
    LabelStratifiedTable,
    _first_bad_residue,
    unlimited_int_digits,
)

_HEADER_RE = re.compile(r"^# wit-cache v1 kind=(B|H|Bmn) k=(\d+)$")

#: Ends every refusal of a value: CHECK_PRIME is the Mersenne prime 2^e - 1.
_CHECKED = f"(checked modulo 2^{CHECK_PRIME.bit_length()} - 1)"


class CacheError(ValueError):
    """Malformed, mismatched or corrupt cache file."""


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 by a temp file in its directory and a rename.

    A failure removes the temp file; an OSError is raised again as one line
    naming ``path``, not the temp file.
    """
    directory, tmp = os.path.dirname(os.path.abspath(path)), None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wit-cache-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def _read_text(path: str, error: type[ValueError]) -> str:
    """The UTF-8 text of ``path``; a file that is not UTF-8 raises ``error`` naming it.

    An OSError is raised again, of its own class, as one line naming ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from None
    except OSError as exc:
        raise type(exc)(f"cannot read {path}: {exc.strerror or exc}") from None


@unlimited_int_digits()
def cache_save(table: Union[CountTable, LabelStratifiedTable], path: str) -> None:
    """Write a table to ``path`` in the cache format."""
    if isinstance(table, LabelStratifiedTable):
        kind, k, rows = "Bmn", 2, sorted(table.values.items())
    else:
        kind, k, rows = table.kind, table.k, (((i,), v) for i, v in enumerate(table.values))
    # one join over the rows: a second copy of the text would raise the peak RSS
    lines = [f"# wit-cache v1 kind={kind} k={k}\n"]
    lines += (f"{','.join(map(str, key))}\t{v}\n" for key, v in rows)
    _atomic_write(path, "".join(lines))


@unlimited_int_digits()
def cache_load(
    path: str,
    expect_kind: str | None = None,
    expect_k: int | None = None,
) -> Union[CountTable, LabelStratifiedTable]:
    """Read a table back and check it against the size recurrence.

    Header and entry order are validated first; then every value is checked
    modulo ``exact.CHECK_PRIME`` (see the module docstring).  ``expect_kind`` /
    ``expect_k`` guard against answering a request for one table with a
    cache of another.
    """
    lines = _read_text(path, CacheError).splitlines()
    if not lines:
        raise CacheError(f"{path}: empty cache file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise CacheError(f"{path}: bad or unsupported header {lines[0]!r}")
    kind, k = m.group(1), int(m.group(2))
    if expect_kind is not None and kind != expect_kind:
        raise CacheError(f"{path}: cache holds kind={kind}, requested kind={expect_kind}")
    if expect_k is not None and k != expect_k:
        raise CacheError(f"{path}: cache holds k={k}, requested k={expect_k}")
    if k < 2 or (kind != "H" and k != 2):
        raise CacheError(f"{path}: arity k={k} does not fit kind={kind}")

    # one ``index<TAB>value`` line per entry; a B/H index is the entry's
    # position, a Bmn index a pair m,n with 1 <= m < n, increasing
    keys: list[tuple[int, ...]] = []
    entries: list[int] = []
    for ln_no, line in enumerate(lines[1:], start=2):
        try:
            idx, val = line.split("\t")
            key, v = tuple(map(int, idx.split(","))), int(val)
        except ValueError:
            key, v = (), -1  # refused below, with the shape errors
        if v < 0 or (
            len(key) != 2 or not 1 <= key[0] < key[1] or (keys and key <= keys[-1])
            if kind == "Bmn"
            else key != (len(entries),)
        ):
            raise CacheError(f"{path}: corrupt entry at line {ln_no}: {line!r}")
        keys.append(key)
        entries.append(v)
    if not entries:
        raise CacheError(f"{path}: empty cache file")

    if kind == "Bmn":
        bound = max(n for _, n in keys)
        row_sums: dict[int, int] = {}
        for (_, n), v in zip(keys, entries):
            row_sums[n] = row_sums.get(n, 0) + v
        # rows 2..bound must all be present; stop at the first gap, so that a
        # crafted n far beyond the file's length allocates nothing
        gap = next((i for i, n in enumerate(sorted(row_sums), start=2) if n != i), bound + 1)
        bad = _first_bad_residue(2, [row_sums.get(n, 0) for n in range(1, gap)])  # B_n = H_{n-1}
        if bad is None and gap <= bound:
            bad = gap - 1
        if bad is not None:
            n = bad + 1
            raise CacheError(f"{path}: row n={n} does not sum to B_{n} {_CHECKED}")
        return LabelStratifiedTable(bound, dict(zip(keys, entries)))

    try:
        table = CountTable(k, kind, ROUTE_RECURRENCE, tuple(entries))
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from None
    bad = _first_bad_residue(k, table.h_values)
    if bad is not None:
        raise CacheError(
            f"{path}: index {bad + table.offset} does not match the size recurrence {_CHECKED}"
        )
    return table
