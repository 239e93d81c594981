"""Exact arbitrary-precision counting of weakly increasing trees.

Three independent routes are implemented:

* ``count_kary_upto``: the size recurrence obtained by removing the nodes
  that carry the maximal label.  For arity k only the sizes
  n = 1 + (k-1)m occur, and the table is indexed by m, H_m = G_{1+(k-1)m}:

      H_m = sum_{s=1}^{m - ceil((m-1)/k)} C(1+(m-s)(k-1), s) * H_{m-s}.

  ``count_binary_upto`` is the k = 2 view indexed by size, B_n = H_{n-1};
  the recurrence then reads B_n = sum_{l=1}^{floor(n/2)} C(n-l, l) B_{n-l}.

* ``count_binary_funceq``: fixed-point iteration of the generating-function
  equation B(z) = z^2 + B(z + z^2) - B(z) on truncated series.

* ``brute_force_count``: exhaustive generation of all growth histories
  (delegated to :mod:`witrees.sampler`), feasible for small sizes only.

All values are exact Python integers.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field

#: Refuse brute-force runs expected to produce more trees than this.
DEFAULT_TREE_GUARD = 2_000_000

ROUTE_RECURRENCE = "recurrence"
ROUTE_FUNCEQ = "functional-equation"
ROUTE_BRUTE = "brute-force"


class GuardExceeded(RuntimeError):
    """Raised when exhaustive generation would exceed the tree guard."""


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


def binom(p: int, q: int) -> int:
    """Binomial coefficient C(p, q); zero when q < 0 or q > p."""
    if q < 0 or q > p:
        return 0
    return math.comb(p, q)


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

    def row_sum(self, n: int) -> int:
        """Sum over m; equals the plain count B_n."""
        return sum(self.entry(m, n) for m in range(1, n))


def count_binary_upto(N: int) -> CountTable:
    """Exact B_0..B_N by the size recurrence: the k = 2 view, B_n = H_{n-1}."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return CountTable(2, "B", ROUTE_RECURRENCE, (0, *_h_counts(2, N - 1)))


def count_binary_funceq(N: int, max_iterations: int | None = None) -> CountTable:
    """Exact B_0..B_N by iterating the generating-function fixed point.

    The update S <- z^2 + S(z + z^2) - S is applied to series truncated at
    degree N, starting from the zero series.  Reading off degree n, the
    substitution contributes sum_{p >= ceil(n/2)} S_p C(p, n-p), whose
    diagonal term S_n cancels against the subtracted series, so every
    coefficient depends only on strictly lower ones and freezes after
    finitely many iterations.  Exceeding the iteration budget therefore
    signals an implementation bug, not a numerical failure.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    budget = max_iterations if max_iterations is not None else N + 2
    # substitution weights C(p, n-p) are iteration-independent
    weights: list[list[tuple[int, int]]] = [[] for _ in range(N + 1)]
    for n in range(3, N + 1):
        weights[n] = [(p, math.comb(p, n - p)) for p in range((n + 1) // 2, n)]
    cur = [0] * (N + 1)
    for _ in range(budget):
        new = [0] * (N + 1)
        if N >= 2:
            new[2] = 1
        for n in range(3, N + 1):
            new[n] = sum(cur[p] * w for p, w in weights[n] if cur[p])
        if new == cur:
            return CountTable(2, "B", ROUTE_FUNCEQ, tuple(cur))
        cur = new
    raise RuntimeError(
        f"series fixed point did not stabilize within {budget} iterations"
    )


def count_by_max_label(N: int) -> LabelStratifiedTable:
    """All B_{m,n} for 1 <= m < n <= N.

    B_{1,2} = 1 is the lone seed; a tree whose maximal label is m arises
    from a unique tree with maximal label m-1 by expanding l of its leaves,
    which gives

        B_{m,n} = sum_{l=1}^{n-m+2} C(n-l, l) * B_{m-1, n-l}.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    values: dict[tuple[int, int], int] = {(1, 2): 1}
    for n in range(3, N + 1):
        for m in range(2, n):
            acc = 0
            for l in range(1, n - m + 3):
                prev = values.get((m - 1, n - l), 0)
                if prev:
                    acc += math.comb(n - l, l) * prev
            if acc:
                values[(m, n)] = acc
    return LabelStratifiedTable(N, values)


def _h_counts(k: int, M: int) -> list[int]:
    """H_0..H_M for arity k by the size recurrence (M >= 1)."""
    H = [0] * (M + 1)
    H[1] = 1
    for m in range(2, M + 1):
        acc = 0
        c = 1 + (m - 1) * (k - 1)  # C(1+(m-1)(k-1), 1)
        for s in range(1, kary_smax(m, k) + 1):
            acc += c * H[m - s]
            # advance to C(a-(k-1), s+1) = C(a, s) (a-s)_k / ((s+1) (a)_{k-1})
            a = 1 + (m - s) * (k - 1)
            c = c * math.perm(a - s, k) // ((s + 1) * math.perm(a, k - 1))
        H[m] = acc
    return H


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

    Trees are deduplicated through their canonical encoding; since every
    tree has a unique growth history the deduplication must be a no-op and
    a discrepancy raises.  Aborts with :class:`GuardExceeded` once more
    than ``guard`` trees of the target size have been produced.
    """
    from .sampler import enumerate_all  # deferred: sampler builds on this module

    trees = enumerate_all(k, n, guard=guard)
    from .trees import canonical_encoding

    encodings = {canonical_encoding(t) for t in trees}
    if len(encodings) != len(trees):
        raise AssertionError(
            f"exhaustive generation produced duplicate trees at size {n}"
        )
    return len(trees)
