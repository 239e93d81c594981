"""Count-table persistence.

Cache file format (bit-exact, LF line endings):

    # wit-cache v1 kind=<B|H|Bmn> k=<k>
    <index>\t<decimal value>
    ...

Indices are the table's own indexing (size for kind B, H-index for kind H,
``m,n`` pairs for kind Bmn) and must be strictly increasing; kind B/H files
are additionally contiguous from 0.  Files are written atomically (temp
file in the target directory, then rename).
"""

from __future__ import annotations

import os
import re
import tempfile
from typing import Union

from .exact import CountTable, LabelStratifiedTable, ROUTE_RECURRENCE, unlimited_int_digits

_HEADER_RE = re.compile(r"^# wit-cache v1 kind=(B|H|Bmn) k=(\d+)$")


class CacheError(ValueError):
    """Malformed, mismatched or corrupt cache file."""


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wit-cache-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@unlimited_int_digits()
def cache_save(table: Union[CountTable, LabelStratifiedTable], path: str) -> None:
    """Write a table to ``path`` in the cache format."""
    lines = []
    if isinstance(table, LabelStratifiedTable):
        lines.append("# wit-cache v1 kind=Bmn k=2")
        for (m, n) in sorted(table.values):
            lines.append(f"{m},{n}\t{table.values[(m, n)]}")
    else:
        lines.append(f"# wit-cache v1 kind={table.kind} k={table.k}")
        for i, v in enumerate(table.values):
            lines.append(f"{i}\t{v}")
    _atomic_write(path, "\n".join(lines) + "\n")


@unlimited_int_digits()
def cache_load(
    path: str,
    expect_kind: str | None = None,
    expect_k: int | None = None,
) -> Union[CountTable, LabelStratifiedTable]:
    """Read a table back; header and entry order are validated first.

    ``expect_kind`` / ``expect_k`` guard against answering a request for
    one table with a cache of another.
    """
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
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

    if kind == "Bmn":
        values: dict[tuple[int, int], int] = {}
        last: tuple[int, int] | None = None
        bound = 2
        for ln_no, line in enumerate(lines[1:], start=2):
            try:
                idx, val = line.split("\t")
                ms, ns = idx.split(",")
                key = (int(ms), int(ns))
                v = int(val)
            except ValueError:
                raise CacheError(f"{path}: corrupt entry at line {ln_no}: {line!r}") from None
            if v < 0 or (last is not None and key <= last):
                raise CacheError(f"{path}: corrupt entry at line {ln_no}: {line!r}")
            last = key
            values[key] = v
            bound = max(bound, key[1])
        return LabelStratifiedTable(bound, values)

    entries: list[int] = []
    for ln_no, line in enumerate(lines[1:], start=2):
        try:
            idx_s, val_s = line.split("\t")
            idx, v = int(idx_s), int(val_s)
        except ValueError:
            raise CacheError(f"{path}: corrupt entry at line {ln_no}: {line!r}") from None
        if idx != len(entries) or v < 0:
            raise CacheError(f"{path}: corrupt entry at line {ln_no}: {line!r}")
        entries.append(v)
    try:
        return CountTable(k, kind, ROUTE_RECURRENCE, tuple(entries))
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from None
