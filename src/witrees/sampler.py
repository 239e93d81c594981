"""Exhaustive generation and exact uniform random sampling.

``enumerate_all`` materializes every weakly increasing tree of a given size
by running all growth histories; each tree appears exactly once because a
tree determines its history.

``sample_uniform`` draws a tree exactly uniformly at random using the
counting recurrence read as a probabilistic construction: a uniform tree
at H-index m is a uniform tree at H-index m-s with a uniform s-subset of
its leaves expanded, where s is chosen with probability
C(1+(m-s)(k-1), s) * H_{m-s} / H_m (for binary trees of size n = m+1 this
is C(n-s, s) * B_{n-s} / B_n).  All choices are made with exact integer
arithmetic on the count table, so the output distribution is exactly
uniform, not merely approximately so.  The expansions are replayed by
``evolution_step`` on a flat mutable ``GrowingTree`` (labels, child ids
and the preorder leaf list) at O(n) per growth step, and the immutable
tree is built once at the end; the random stream and hence every seeded
output is the same as replaying them on immutable trees.

Randomness comes from Python's ``random.Random`` (MT19937).  Uniform
integers below a bound are drawn by rejection on ``getrandbits`` and leaf
subsets by a partial Fisher-Yates shuffle; both procedures are documented
in the README so that seeds are portable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import exact
from .exact import CountTable, GuardExceeded, binom
from .trees import (
    CompletedTree,
    GrowingTree,
    bullet_positions,
    evolution_step,
    iter_nodes,
    root_tree,
)


def enumerate_all(k: int, n: int, guard: int | None = None) -> list[CompletedTree]:
    """All completed trees of size ``n`` and arity ``k``, in canonical order.

    The order is the depth-first order of growth histories, expanding leaf
    subsets by increasing cardinality and, within a cardinality, in
    lexicographic order of the preorder leaf positions.
    """
    if k < 2:
        raise ValueError("arity must be >= 2")
    if n < 0:
        raise ValueError("size must be nonnegative")
    limit = exact.DEFAULT_TREE_GUARD if guard is None else guard
    out: list[CompletedTree] = []
    base = root_tree(k)
    if n < base.size:
        return out

    def grow(t: CompletedTree) -> None:
        size = t.size
        if size == n:
            out.append(t)
            if len(out) > limit:
                raise GuardExceeded(
                    f"more than {limit} trees of size {n}; raise the guard to proceed"
                )
            return
        max_take = (n - size) // (k - 1)
        if max_take == 0:
            return
        leaves = bullet_positions(t.root)
        label = t.max_label + 1
        for take in range(1, max_take + 1):
            for subset in itertools.combinations(leaves, take):
                grow(evolution_step(t, subset, label))

    grow(base)
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
    _weights: dict[int, list[tuple[int, int]]] = field(default_factory=dict, repr=False)

    @classmethod
    def create(cls, k: int, max_size: int, seed: int) -> "SamplerContext":
        """Build a context whose table covers all sizes up to ``max_size``."""
        return cls(k, exact.count_upto_size(k, max_size), seed, random.Random(seed))


def _randbelow(rng: random.Random, bound: int) -> int:
    """Uniform integer in [0, bound) by rejection on getrandbits."""
    bits = bound.bit_length()
    r = rng.getrandbits(bits)
    while r >= bound:
        r = rng.getrandbits(bits)
    return r


def _subset_indices(rng: random.Random, population: int, take: int) -> list[int]:
    """Uniform ``take``-subset of range(population) via Fisher-Yates prefix."""
    idx = list(range(population))
    for i in range(take):
        j = i + _randbelow(rng, population - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:take])


def _expansion_weights(ctx: SamplerContext, m: int) -> list[tuple[int, int]]:
    """(s, weight) pairs for one step down from table index ``m``.

    With h = m - offset the H-index, expanding s leaves of a tree counted
    at index m - s has weight C(1+(h-s)(k-1), s) * entry(m - s).  Weights
    are exact integers summing to the table entry at ``m``; the sum is
    asserted, which re-proves the recurrence at every visited index.
    """
    cached = ctx._weights.get(m)
    if cached is not None:
        return cached
    k = ctx.k
    h = m - ctx.table.offset
    pairs = [
        (s, binom(1 + (h - s) * (k - 1), s) * ctx.table.entry(m - s))
        for s in range(1, exact.kary_smax(h, k) + 1)
    ]
    total = sum(w for _, w in pairs)
    if total != ctx.table.entry(m):
        raise AssertionError(f"expansion weights at index {m} do not sum to the count")
    ctx._weights[m] = pairs
    return pairs


def sample_uniform(ctx: SamplerContext, n: int) -> CompletedTree:
    """Draw a tree of size ``n`` exactly uniformly at random.

    Raises ``ValueError`` when no tree of that size exists (off-lattice
    k-ary sizes, or sizes below the root tree).
    """
    k = ctx.k
    if ctx.table.g(n) == 0:
        raise ValueError(f"no {k}-ary tree has size {n}")
    # table indices of size n and of the root tree (H-index 1)
    index = (n - 1) // (k - 1) + ctx.table.offset
    base_index = 1 + ctx.table.offset

    # walk the recurrence down, drawing one expansion cardinality per level
    takes: list[int] = []
    m = index
    while m > base_index:
        r = _randbelow(ctx.rng, ctx.table.entry(m))
        acc = 0
        for s, w in _expansion_weights(ctx, m):
            acc += w
            if r < acc:
                takes.append(s)
                m -= s
                break
        else:  # pragma: no cover - unreachable, weights sum to the entry
            raise AssertionError("cumulative walk fell through")

    # grow back up on a flat state, drawing a uniform leaf subset per step;
    # the unused root_tree call marks where growth starts for the per-phase
    # split of perfbench's tracer, which hooks that function
    root_tree(k)
    state = GrowingTree(k)
    for take in reversed(takes):
        chosen = _subset_indices(ctx.rng, state.size, take)
        state = evolution_step(state, chosen, state.max_label + 1)
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
    node_count = 0
    max_label = 0
    depth = 0
    for path, node in iter_nodes(t.root):
        node_count += 1
        max_label = max(max_label, node.label)
        depth = max(depth, len(path) + 1)
    return TreeStatistics(t.size, node_count, max_label, depth)
