"""Exhaustive generation and exact uniform random sampling.

``enumerate_all`` materializes every weakly increasing tree of a given size
by running all growth histories; each tree appears exactly once because a
tree determines its history.  The histories are walked depth first on one
flat ``GrowingTree``, with the walk's frames on an explicit stack: a leaf
subset is expanded in place, the walk descends, and the step is undone
by ``trees._undo_flat``, the undo of a rejected step.
At each finished tree the walk hands the state to a visitor, which
``enumerate_all`` freezes and ``exact.brute_force_count`` encodes, both
by one preorder walk of the state that builds no node; the tree guard is
checked against the exact count
before the walk starts, and for ``enumerate_all`` then the frozen trees'
footprint against ``exact.MAX_BUILD_BITS``.

``sample_uniform`` draws a tree exactly uniformly at random using the
counting recurrence read as a probabilistic construction: a uniform tree
at H-index m is a uniform tree at H-index m-s with a uniform s-subset of
its leaves expanded, where s is chosen with probability
C(1+(m-s)(k-1), s) * H_{m-s} / H_m (for binary trees of size n = m+1 this
is C(n-s, s) * B_{n-s} / B_n).  All choices are made with exact integer
arithmetic on the count table, so the output distribution is exactly
uniform, not merely approximately so.  The size's H-index and the table's
H view come from ``exact`` (``h_index`` and ``CountTable.h_values``), so
the descent reads kind B and kind H tables alike.  ``SamplerContext.create`` checks
its whole table once against the size recurrence, by the package's one
table check (``exact._first_bad_residue``, taken modulo 2^127 - 1 by
code independent of the table build); the weights at m sum to H_m
exactly when H_m is the recurrence's value.  The descent takes each
weight it scans from ``math.comb`` and keeps nothing.  The
expansions are replayed by ``evolution_step`` on a flat mutable
``GrowingTree`` (labels, child ids and the preorder leaf list) at O(n)
per growth step, and frozen once at the end into a ``CompletedTree``
that holds its preorder labels and child masks; its nodes are built only
if its ``root`` is read.  The random stream and hence every seeded
output is the same as replaying them on immutable trees.

Randomness comes from Python's ``random.Random`` (MT19937).  Uniform
integers below a bound are drawn by rejection on ``getrandbits`` and leaf
subsets by a partial Fisher-Yates shuffle; both procedures are documented
in the README so that seeds are portable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import exact
from .exact import CountTable, GuardExceeded
from .trees import (
    CompletedTree,
    GrowingTree,
    _grow_flat,
    _undo_flat,
    evolution_step,
    root_tree,
)


def _walk_histories(k: int, n: int, guard: int | None, visit, slot_bits: int = 0) -> int:
    """Run every growth history to size ``n``, calling ``visit`` per tree.

    One ``GrowingTree`` is walked depth first on an explicit stack of
    frames, so a deep history needs no recursion.  Each frame expands its
    leaf subsets in place by ``_grow_flat`` one at a time, walks below
    each, and undoes it by ``_undo_flat`` on the indices it expanded.
    Subsets are taken by increasing size, then lexicographically by
    preorder leaf index.
    ``visit`` gets the state of each finished tree and must not change it.
    Returns the number of trees; first raises :class:`GuardExceeded` if
    H_min(m, 64) for n's H-index m exceeds ``guard`` (H rises with m; H_64
    passes any guard), and then if that many trees at ``slot_bits`` bits a
    slot exceed ``exact.MAX_BUILD_BITS``.
    """
    m = exact.h_index(k, n)
    if n < 0:
        raise ValueError("size must be nonnegative")
    limit = exact.DEFAULT_TREE_GUARD if guard is None else guard
    # sizes are 1 + (k-1)m, from the root tree's k up
    if n < k or (n - 1) % (k - 1):
        return 0
    count = exact._h_counts(k, min(m, 64))[-1]
    if count > limit:
        raise GuardExceeded(f"more than {limit} trees of size {n}; raise the guard to proceed")
    if count * n * slot_bits > exact.MAX_BUILD_BITS:
        raise GuardExceeded(
            f"the {count} trees of size {n} would hold about {count * n * slot_bits >> 23} MiB, "
            f"beyond the {exact.MAX_BUILD_BITS >> 33} GiB build limit"
        )
    state = GrowingTree(k)
    if n == k:
        visit(state)
        return 1

    def subsets(size: int):
        return itertools.chain.from_iterable(
            itertools.combinations(range(size), take)
            for take in range(1, (n - size) // (k - 1) + 1)
        )

    # a frame: the subsets still to try, the leaf list and node count to
    # restore, the label its steps use, and the subset now expanded
    found = 0
    frames = [[subsets(k), state.leaves, 1, 2, ()]]
    while frames:
        frame = frames[-1]
        remaining, leaves, top, label, applied = frame
        _undo_flat(state, leaves, applied, top)
        subset = next(remaining, None)
        if subset is None:
            frames.pop()
            continue
        _grow_flat(state, subset, label)
        frame[4] = subset
        size = len(state.leaves)
        if size == n:
            found += 1
            visit(state)
        else:
            frames.append([subsets(size), state.leaves, len(state.labels), label + 1, ()])
    return found


def enumerate_all(k: int, n: int, guard: int | None = None) -> list[CompletedTree]:
    """All completed trees of size ``n`` and arity ``k``, in canonical order.

    The order is the depth-first order of growth histories, expanding leaf
    subsets by increasing cardinality and, within a cardinality, in
    lexicographic order of the preorder leaf positions.  The histories are
    run on one flat state with apply and undo; each finished tree is
    frozen as the walk reaches it.  After the tree guard, the trees'
    footprint at ``exact.TREE_SLOT_BITS`` a slot is checked against
    ``exact.MAX_BUILD_BITS``: a size past either raises
    :class:`GuardExceeded` before the walk.
    """
    out: list[CompletedTree] = []
    _walk_histories(k, n, guard, lambda state: out.append(state.freeze()), exact.TREE_SLOT_BITS)
    return out


@dataclass
class SamplerContext:
    """Count table plus a seeded deterministic random source.

    A context is single-consumer: the random state mutates with every
    sample.  Contexts with distinct seeds may share one immutable table.
    """

    k: int
    table: CountTable
    seed: int
    rng: random.Random

    @classmethod
    def create(cls, k: int, max_size: int, seed: int) -> "SamplerContext":
        """Build a context whose table covers all sizes up to ``max_size``.

        Asserts once, before any sample is drawn, that the expansion
        weights sum to the entry at every index: the weights of the step
        down from H-index h sum to the recurrence's H_h, so the table is
        checked against the size recurrence by ``exact._first_bad_residue``.
        That check is independent of the build and stops at the first bad
        index, but it is taken modulo ``exact.CHECK_PRIME`` = 2^127 - 1: an
        entry off by a multiple of that prime passes.
        """
        ctx = cls(k, exact.count_upto_size(k, max_size), seed, random.Random(seed))
        bad = exact._first_bad_residue(k, ctx.table.h_values)
        if bad is not None:
            m = bad + ctx.table.offset
            raise AssertionError(f"expansion weights at index {m} do not sum to the count")
        return ctx


def _randbelow(rng: random.Random, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection on getrandbits."""
    bits = bound.bit_length()
    r = rng.getrandbits(bits)
    while r >= bound:
        r = rng.getrandbits(bits)
    return r


def _subset_indices(rng: random.Random, population: int, take: int) -> list[int]:
    """Uniform ``take``-subset of range(population) via Fisher-Yates prefix.

    The shuffle runs on a dict of the positions it has displaced instead of
    a list of the whole population, so it costs O(take); the draws, and so
    the subset, are those of the dense shuffle.
    """
    moved: dict[int, int] = {}
    chosen = []
    for i in range(take):
        j = i + _randbelow(rng, population - i)
        # swap positions i and j; position i is final from here on
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return sorted(chosen)


def sample_uniform(ctx: SamplerContext, n: int) -> CompletedTree:
    """Draw a tree of size ``n`` exactly uniformly at random.

    Raises ``ValueError`` when the size is beyond the context's table, and
    when no tree of that size exists (off-lattice k-ary sizes, or sizes
    below the root tree).
    """
    k, table = ctx.k, ctx.table
    if n > table.max_size:
        raise ValueError(f"size {n} is beyond this context's table (sizes up to {table.max_size})")
    if table.g(n) == 0:
        raise ValueError(f"no {k}-ary tree has size {n}")
    H = table.h_values

    # walk the recurrence down from the H-index of size n to 1, drawing per
    # level the first s whose cumulative weight C(1+(h-s)(k-1), s) H[h-s]
    # exceeds r, uniform below H[h]; a level typically scans one to three
    takes: list[int] = []
    h = exact.h_index(k, n)
    while h > 1:
        r = _randbelow(ctx.rng, H[h])
        acc = 0
        for s in range(1, exact.kary_smax(h, k) + 1):
            acc += math.comb(1 + (h - s) * (k - 1), s) * H[h - s]
            if r < acc:
                takes.append(s)
                h -= s
                break
        else:  # pragma: no cover - unreachable, create checked the weights
            raise AssertionError("cumulative walk fell through")

    # grow back up on a flat state, drawing a uniform leaf subset per step;
    # the unused root_tree call marks where growth starts for the per-phase
    # split of perfbench's tracer, which hooks that function
    root_tree(k)
    state = GrowingTree(k)
    rng = ctx.rng
    size, label = k, 1
    for take in reversed(takes):
        label += 1
        evolution_step(state, _subset_indices(rng, size, take), label)
        size += take * (k - 1)
    return state.freeze()


@dataclass(frozen=True)
class TreeStatistics:
    size: int
    node_count: int
    max_label: int
    depth: int


def tree_statistics(t: CompletedTree) -> TreeStatistics:
    """Size, labeled-node count, maximal label and depth of a tree.

    Depth counts labeled nodes on the longest root-to-bullet path, so the
    one-node root tree has depth 1.
    """
    return TreeStatistics(*t._counts)
