"""Exact arbitrary-precision counting of weakly increasing trees.

Three independent routes are implemented:

* ``count_kary_upto``: the size recurrence obtained by removing the nodes
  that carry the maximal label.  For arity k only the sizes
  n = 1 + (k-1)m occur, and the table is indexed by m, H_m = G_{1+(k-1)m}:

      H_m = sum_{s=1}^{m - ceil((m-1)/k)} C(1+(m-s)(k-1), s) * H_{m-s}.

  ``count_binary_upto`` is the k = 2 view indexed by size, B_n = H_{n-1};
  the recurrence then reads B_n = sum_{l=1}^{floor(n/2)} C(n-l, l) B_{n-l}.
  The tables sum it by the columns j = m - s of ``_columns``, so a term
  costs two multiplies by small ints (the column's next factor and a
  Horner step in s) and no division; each index ends with one exact
  division by S!, S its top summation index.

* ``count_kary_funceq``: the generating-function equation
  S(z) = z^k + S(z + z^k) - S(z) read off at the lattice degrees in one
  ascending sweep, since each coefficient depends only on lower ones,
  against one binomial row stepped by Pascal's rule; the truncated series
  is then checked against the equation in w = z^(k-1),
  2 H(w) = w + (1 + w) H(w (1 + w)^(k-1)), composed by Horner's rule,
  which uses no binomial.  ``count_binary_funceq`` is its k = 2 view
  indexed by size, and ``count_by_max_label`` reads the same k = 2 rows.

* ``brute_force_count``: exhaustive generation of all growth histories
  (delegated to :mod:`witrees.sampler`), feasible for small sizes only.

All values are exact Python integers.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field
from operator import add, mul

#: Refuse brute-force runs expected to produce more trees than this.
DEFAULT_TREE_GUARD = 2_000_000

#: Largest estimated footprint a command or ``enumerate_all`` may build, in
#: bits (1 GiB).  A size beyond it is refused before anything is allocated;
#: the CLI's error names the flag and the largest size that fits.
MAX_BUILD_BITS = 2**33

#: Bits held per slot of an enumerated tree (tracemalloc over the 15,121
#: frozen trees of size 8: about 1,000).
TREE_SLOT_BITS = 1024

ROUTE_RECURRENCE = "recurrence"
ROUTE_FUNCEQ = "functional-equation"


class GuardExceeded(RuntimeError):
    """Raised when exhaustive generation would exceed the tree guard or the build limit."""


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int/str digit limit (B_300 has 658 digits), then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def kary_smax(m: int, k: int) -> int:
    """Upper summation index of the k-ary recurrence: m - ceil((m-1)/k)."""
    return m - (m + k - 2) // k


@dataclass(frozen=True)
class CountTable:
    """Exact counts indexed by H-index (kind "H") or by size (kind "B").

    kind "H" tables hold H_0..H_M for arity k, where H_m = G_{1+(k-1)m} and
    all other G_n vanish.  kind "B" tables are the binary view indexed by
    size: they hold B_0..B_N with B_n = H_{n-1}, i.e. entry m is H_{m-1}.
    """

    k: int
    kind: str  # "B" | "H"
    route: str
    values: tuple[int, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("B", "H"):
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.kind == "B" and self.k != 2:
            raise ValueError("kind 'B' tables are binary")
        if any(v < 0 for v in self.values):
            raise ValueError("negative count in table")
        seed = (0,) * self.offset + (0, 1)
        if self.values[: len(seed)] != seed[: len(self.values)]:
            raise ValueError(f"table seed is not {seed}")

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    @property
    def offset(self) -> int:
        """Table index minus H-index: 1 for kind B, 0 for kind H."""
        return 1 if self.kind == "B" else 0

    def entry(self, n: int) -> int:
        """Table value at index ``n`` (size for kind B, H-index for kind H)."""
        if not 0 <= n <= self.max_index:
            raise ValueError(f"index {n} outside computed range 0..{self.max_index}")
        return self.values[n]

    def g(self, n: int) -> int:
        """Number of trees of *size* ``n``; zero off the arity lattice."""
        if n < 1 or (n - 1) % (self.k - 1) != 0:
            return 0
        return self.entry((n - 1) // (self.k - 1) + self.offset)


@dataclass(frozen=True)
class LabelStratifiedTable:
    """Counts B_{m,n} of size-n binary trees with exactly m distinct labels."""

    size_bound: int
    values: dict[tuple[int, int], int] = field(repr=False)

    def entry(self, m: int, n: int) -> int:
        if not (2 <= n <= self.size_bound and m >= 1):
            raise ValueError(f"(m={m}, n={n}) outside table range")
        return self.values.get((m, n), 0)


def count_binary_upto(N: int) -> CountTable:
    """Exact B_0..B_N by the size recurrence: the k = 2 view, B_n = H_{n-1}."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return CountTable(2, "B", ROUTE_RECURRENCE, (0, *_h_counts(2, N - 1)))


def _series_rows(k: int, M: int):
    """Yield (j, [C(a_j, q) for q = 0..min(a_j, M-j)]) for j = 1..M-1, a_j = 1 + (k-1)j.

    The row takes z -> z + z^k from lattice degree a_j to a_j + (k-1)q =
    a_{j+q}; both series builders read it.  One Pascal row C(p, .) is kept
    and stepped along p by C(p, q) = C(p-1, q) + C(p-1, q-1), so a row
    costs additions only; it is cut at q <= M - j, the highest entry a
    later degree still reads.  The yielded list is that row, stepped on
    after the reader resumes.  Nothing of the recurrence route is read.
    """
    row = [1, 1]  # C(1, .) at p = a_0
    for j in range(1, M):
        for _ in range(k - 1):
            row[1:] = map(add, [*row[1:], 0], row)
            del row[M - j + 1 :]
        yield j, row


def count_kary_funceq(k: int, M: int) -> CountTable:
    """Exact H_0..H_M for arity k from the generating-function equation, then checked by it.

    Reading off degree a_m = 1 + (k-1)m of S(z) = z^k + S(z + z^k) - S(z),
    the substitution contributes sum_{q >= 0} C(a_{m-q}, q) H_{m-q}, whose
    q = 0 term H_m cancels against the subtracted series, so

        H_m = [m = 1] + sum_{q >= 1} C(a_{m-q}, q) H_{m-q}.

    Every coefficient depends only on lower ones, so one ascending sweep
    over the rows of :func:`_series_rows` adds each final H_j, times its
    row, into every later entry.  The table is then checked against the
    equation itself, which in w = z^(k-1), with S(z) = z H(w), reads
    2 H(w) = w + (1 + w) H(w (1 + w)^(k-1)).  H(w (1 + w)^(k-1)) mod
    w^(M+1) is composed by Horner's rule, U <- U w (1 + w)^(k-1) + H_p for
    p = M..0, by k - 1 shift-adds a step and no binomial.  That system has
    exactly one solution, so a table that passes is the series of H; one
    that fails raises RuntimeError naming the first bad degree.
    """
    if k < 2:
        raise ValueError("arity must be >= 2")
    if M < 1:
        raise ValueError("M must be >= 1")
    H = [0, 1] + [0] * (M - 1)
    for j, row in _series_rows(k, M):
        stop = j + len(row)
        H[j + 1 : stop] = map(add, H[j + 1 : stop], map(H[j].__mul__, row[1:]))
    # U holds degrees 0..M-p of sum_{q >= p} H_q t^(q-p), t = w (1 + w)^(k-1);
    # the rest lands above degree M once the remaining p factors are applied.
    # Entry 0 is zero while (1 + w) is applied, so on two entries it acts as 1.
    U: list[int] = []
    for p in range(M, -1, -1):
        U = [0, *U]
        for _ in range(k - 1 if len(U) > 2 else 0):
            U[2:] = map(add, U[2:], U[1:-1])
        U[0] = H[p]
    for m, (h, u, prev) in enumerate(zip(H, U, [0, *U])):
        if 2 * h != (m == 1) + u + prev:
            n = 1 + (k - 1) * m
            raise RuntimeError(f"series fails S(z) = z^{k} + S(z + z^{k}) - S(z) at degree {n}")
    return CountTable(k, "H", ROUTE_FUNCEQ, tuple(H))


def count_binary_funceq(N: int) -> CountTable:
    """Exact B_0..B_N from the generating-function equation: the k = 2 view, B_n = H_{n-1}."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return CountTable(2, "B", ROUTE_FUNCEQ, (0, *count_kary_funceq(2, N - 1).values))


def count_by_max_label(N: int) -> LabelStratifiedTable:
    """All B_{m,n} for 1 <= m < n <= N.

    B_{1,2} = 1 is the lone seed; a tree whose maximal label is m arises
    from a unique tree with maximal label m-1 by expanding n-p of its p
    leaves, so column m gains column m-1 through the k = 2 rows of
    :func:`_series_rows` (p = j + 1):

        B_{m,n} = sum_{p=ceil(n/2)}^{n-1} C(p, n-p) * B_{m-1,p}.

    Each B_{m-1,p} is final when row p is drawn and is added, times it,
    into every later entry of column m.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    B = [[0] * (N + 1) for _ in range(N)]  # B[m][n]
    B[1][2] = 1
    for j, row in _series_rows(2, N - 1):
        p, stop = j + 1, j + 1 + len(row)
        for m in range(2, p + 1):
            if x := B[m - 1][p]:
                B[m][p + 1 : stop] = map(add, B[m][p + 1 : stop], map(x.__mul__, row[1:]))
    values = {(m, n): B[m][n] for n in range(2, N + 1) for m in range(1, n) if B[m][n]}
    return LabelStratifiedTable(N, values)


def _columns(k: int, x, start: int, stop: int, cap: int | None = None):
    """Yield (m, lo, col): the size recurrence's live columns at H-index m = start..stop.

    The one owner of the column layout, which the exact tables and the
    scaled kernels share.  Column j holds x_j (a_j)_s, a_j = 1 + j(k-1),
    s = m - j, (p)_s = p (p-1) ... (p-s+1) = s! C(p, s), and col[j - lo] is
    column j for the live j = lo..m-1: those with s <= kary_smax(m, k) and,
    given ``cap``, s < cap.  A step of m drops the columns that leave from
    the front, multiplies each one left by its next factor
    a_j - s + 1 = jk + 2 - m (one small multiply, no division) and appends
    column m - 1, a_{m-1} x_{m-1}.  x_{m-1} is read only when step m is
    due, so a caller may append to ``x`` as it goes; the columns of any
    start >= 2 are built once with math.perm from x_0..x_{start-2}.  The
    yielded list is stepped on after the reader resumes.
    :func:`h_residues` keeps its own copy of this step on purpose: it is the
    independent check of the tables.
    """
    cap = math.inf if cap is None else cap
    # the lowest live column after step start - 1, m - kary_smax(m, k) at
    # m = start - 1 in closed form, so that a resumed build steps only its
    # new indices; the first step trims at ``cap``
    lo = (start + k - 3) // k
    col = [x[j] * math.perm(1 + j * (k - 1), start - 1 - j) for j in range(lo, start - 1)]
    for m in range(start, stop + 1):
        old, lo = lo, m - min(kary_smax(m, k), cap - 1)
        del col[: lo - old]
        col[:] = map(mul, col, range(lo * k + 2 - m, (m - 1) * k + 2 - m, k))
        col.append((1 + (m - 1) * (k - 1)) * x[m - 1])
        yield m, lo, col


def _column_sums(k: int, H, start: int, stop: int):
    """Yield the size recurrence's sum for H-index m = start..stop (start >= 2).

    The sum is taken over the columns c_s = H_j (a_j)_s of :func:`_columns`,
    so a large arity sums as fast as a small one.  The sum of the c_s / s!
    is taken by Horner's rule in s, T <- T s + c_s, which leaves
    T = sum_s c_s S!/s! = S! sum_s H_j C(a_j, s) for the top index S; one
    exact division by S!, kept up to date as S grows, ends the index.
    H[m-1] is read only when the sum at m is due, so a caller may append
    each sum to ``H`` as it goes.
    """
    top = fact = 1
    for m, lo, col in _columns(k, H, start, stop):
        while top < m - lo:
            top += 1
            fact *= top
        t = 0
        for s, c in enumerate(reversed(col), 1):
            t = t * s + c
        yield t // fact


#: The longest list H_0..H_M built so far, per arity k (see _h_counts).
_H_MEMO: dict[int, list[int]] = {}


def _h_counts(k: int, M: int) -> list[int]:
    """H_0..H_M for arity k by the size recurrence (M >= 1), summed by :func:`_column_sums`.

    A request within the longest list built so far for k is a slice of it;
    a longer one resumes at the end of that list, rebuilding the live
    columns once.  The columns are local; entries are appended one at a
    time, so an interrupted build (Ctrl-C, MemoryError) leaves a valid
    prefix behind.  The package is single-threaded: the list is shared,
    unlocked module state.
    """
    H = _H_MEMO.setdefault(k, [0, 1])
    if len(H) <= M:
        for h in _column_sums(k, H, len(H), M):
            H.append(h)
    return H[: M + 1]


#: The Mersenne prime 2^127 - 1, the modulus of :func:`h_residues`.  A wrong
#: entry passes the table check only if it is off by a multiple of it, so
#: never when its error is smaller than the prime (about 1.7 10^38).
CHECK_PRIME = (1 << 127) - 1


def h_residues(k: int, M: int):
    """Yield H_0..H_M modulo the prime p = CHECK_PRIME, by the size recurrence (M >= 1).

    Written as a sum over j = m - s, H_m = sum_j C(a_j, m-j) H_j with
    a_j = 1 + j(k-1), and C(a_j, s) = a_j (a_j - 1) ... (a_j - s + 1) / s!.
    Column j keeps H_j times that falling factorial and gains one factor
    per step of m, so memory and work are O(M) and O(M^2) whatever k.  Each
    residue is yielded as soon as it is summed, so a caller that stops at
    index m pays O(M + m^2), not O(M^2).
    """
    p = CHECK_PRIME
    inv_fact = [1] * (M + 1)
    f = 1
    for i in range(2, M + 1):
        f = f * i % p
    inv_fact[M] = pow(f, p - 2, p)
    for i in range(M, 2, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    yield from (0, 1)
    r, col = 1, [0] * (M + 1)
    mod_p = p.__rmod__
    for m in range(2, M + 1):
        lo = m - kary_smax(m, k)  # columns j < lo no longer contribute
        # column j: s = m - j, so a_j - s + 1 = jk + 2 - m
        col[lo : m - 1] = map(
            mod_p, map(mul, col[lo : m - 1], range(lo * k + 2 - m, (m - 1) * k + 2 - m, k))
        )
        col[m - 1] = (1 + (m - 1) * (k - 1)) * r % p
        r = sum(map(mul, col[lo:m], inv_fact[m - lo : 0 : -1])) % p
        yield r


def _first_bad_residue(k: int, H) -> int | None:
    """H-index of the first of H_0..H_M that is not the recurrence value mod p, or None.

    The one check of an exact table: the sampler runs it on the table it
    builds and the cache on every table it loads.  Each entry is compared
    with :func:`h_residues`, which shares no code with the column sums that
    build the table, as the residue is drawn, so the check stops at the
    first bad index.  Equality is taken modulo p = CHECK_PRIME: an entry
    off by a multiple of p passes.
    """
    residues = h_residues(k, max(len(H) - 1, 1))
    return next((m for m, (h, r) in enumerate(zip(H, residues)) if h % CHECK_PRIME != r), None)


def count_kary_upto(k: int, M: int) -> CountTable:
    """Exact H_0..H_M for arity k (H_m counts trees of size 1 + (k-1)m)."""
    if k < 2:
        raise ValueError("arity must be >= 2")
    if M < 1:
        raise ValueError("M must be >= 1")
    return CountTable(k, "H", ROUTE_RECURRENCE, tuple(_h_counts(k, M)))


def count_upto_size(k: int, n: int) -> CountTable:
    """The recurrence table covering every size up to ``n``.

    Kind B (indexed by size) at k = 2, kind H (indexed by m) otherwise.
    """
    if k < 2:
        raise ValueError("arity must be >= 2")
    if k == 2:
        return count_binary_upto(max(n, 2))
    return count_kary_upto(k, max(1, (n - 1) // (k - 1)))


def brute_force_count(k: int, n: int, guard: int | None = None) -> int:
    """Count size-n trees by exhaustively running all growth histories.

    Each finished tree's canonical encoding is written straight from the
    walk's flat state and kept; since every tree has a unique growth
    history no encoding may repeat, and a repeat raises.  When the size has
    more than ``guard`` trees, :class:`GuardExceeded` is raised before the walk.
    """
    from . import sampler, trees  # deferred: sampler builds on this module

    encodings: set[bytes] = set()
    count = sampler._walk_histories(
        k, n, guard, lambda state: encodings.add(trees._encode_flat(state))
    )
    if len(encodings) != count:
        raise AssertionError(
            f"exhaustive generation produced duplicate trees at size {n}"
        )
    return count
