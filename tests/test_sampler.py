import hashlib
import json
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witrees import exact
from witrees.exact import CountTable
from witrees.sampler import (
    SamplerContext,
    TreeStatistics,
    _randbelow,
    _subset_indices,
    _walk_histories,
    enumerate_all,
    sample_uniform,
    tree_statistics,
)
from witrees.trees import (
    bullet_positions,
    canonical_encoding,
    complete,
    decode_encoding,
    evolution_step,
    iter_nodes,
    root_tree,
    validate,
)
from tests.conftest import FIXTURES
from tests.test_trees import binary_chain_encoding, evolution_histories, figure_tree, strip


# ---------------------------------------------------------------- enumeration


def test_enumerate_counts():
    assert len(enumerate_all(2, 2)) == 1
    assert len(enumerate_all(2, 5)) == 34
    assert len(enumerate_all(2, 8)) == 15121


def test_enumerate_only_root_at_base_size():
    assert enumerate_all(2, 2) == [root_tree(2)]
    assert enumerate_all(3, 3) == [root_tree(3)]


def test_enumerate_off_lattice_is_empty():
    assert enumerate_all(3, 4) == []
    assert enumerate_all(2, 1) == []


def test_enumerate_deterministic_order():
    first, second = enumerate_all(2, 4)[:2], enumerate_all(2, 4)[:2]
    assert [canonical_encoding(t) for t in first] == [
        canonical_encoding(t) for t in second
    ]


@pytest.mark.parametrize("k, n, digest", [
    (2, 8, "55fdb494726081a92259bb3b94e221351c876ba12165f74ae6b1def190fe5304"),
    (3, 9, "d66e9952469703d9cb37047848d43b8b43eb6cb5f0132924c92074e9bda0a63e"),
    (4, 10, "ab8f245f12177a7c7f88007ddeab3cf45334402e0b692a1335e633f1c96ac426"),
], ids=["k2-n8", "k3-n9", "k4-n10"])
def test_enumeration_order_is_pinned(k, n, digest):
    # sha256 over the encodings in enumeration order: subsets by size, then
    # lexicographically by preorder leaf index, depth first
    h = hashlib.sha256()
    for t in enumerate_all(k, n):
        h.update(canonical_encoding(t))
    assert h.hexdigest() == digest


def test_deep_history_walk_needs_no_recursion():
    # the first history expands leaf 0 at every step: 1198 steps deep
    class FirstTree(Exception):
        pass

    def visit(state):
        assert (state.size, state.max_label) == (1200, 1199)
        raise FirstTree

    with pytest.raises(FirstTree):
        _walk_histories(2, 1200, 10**4000, visit)


def test_enumerate_trees_are_valid_and_distinct():
    trees = enumerate_all(2, 6)
    encodings = {canonical_encoding(t) for t in trees}
    assert len(encodings) == len(trees) == 214
    for t in trees[:50]:
        assert t.size == 6
        assert validate(strip(t), 2)


# ---------------------------------------------------------------- sampling


def test_sample_base_size_is_root():
    ctx = SamplerContext.create(2, 4, seed=7)
    assert sample_uniform(ctx, 2) == root_tree(2)


def test_sample_sizes_and_validity():
    ctx = SamplerContext.create(2, 20, seed=1)
    for _ in range(20):
        t = sample_uniform(ctx, 20)
        assert t.size == 20
        assert validate(strip(t), 2)
    ctx3 = SamplerContext.create(3, 21, seed=1)
    t = sample_uniform(ctx3, 21)
    assert t.size == 21
    assert validate(strip(t), 3)


def test_sample_deterministic_under_seed():
    runs = []
    for _ in range(2):
        ctx = SamplerContext.create(2, 15, seed=42)
        runs.append([canonical_encoding(sample_uniform(ctx, 15)) for _ in range(5)])
    assert runs[0] == runs[1]
    other = SamplerContext.create(2, 15, seed=43)
    assert [canonical_encoding(sample_uniform(other, 15)) for _ in range(5)] != runs[0]


def expansion_weights(ctx, m):
    """(s, weight) pairs for one step down from table index ``m``, by math.comb.

    With h = m - offset the H-index, expanding s leaves of a tree counted
    at index m - s has weight C(1+(h-s)(k-1), s) * entry(m - s).
    """
    k, h = ctx.k, m - ctx.table.offset
    return [(s, math.comb(1 + (h - s) * (k - 1), s) * ctx.table.entry(m - s))
            for s in range(1, exact.kary_smax(h, k) + 1)]


def reference_sample(ctx, n):
    """The sampler replayed by rebuilding the tree at every growth step.

    Same descent and same random stream as ``sample_uniform``, but each step
    rescans the leaves with ``bullet_positions`` and rebuilds the tree with
    ``evolution_step``, which checks the subset, the label and every leaf.
    """
    k = ctx.k
    index, base_index = (n, 2) if k == 2 else ((n - 1) // (k - 1), 1)
    takes = []
    m = index
    while m > base_index:
        r = _randbelow(ctx.rng, ctx.table.entry(m))
        acc = 0
        for l, w in expansion_weights(ctx, m):
            acc += w
            if r < acc:
                takes.append(l)
                m -= l
                break
    t = root_tree(k)
    for take in reversed(takes):
        leaves = bullet_positions(t.root)
        chosen = _subset_indices(ctx.rng, len(leaves), take)
        t = evolution_step(t, [leaves[i] for i in chosen], t.max_label + 1)
    return t


@pytest.mark.parametrize("k", [2, 3, 4, 13])
def test_sample_equals_the_rebuilding_reference(k):
    for seed in range(50):
        n = 1 + (k - 1) * (1 + seed)
        fast = SamplerContext.create(k, n, seed)
        slow = SamplerContext.create(k, n, seed)
        for _ in range(2):
            assert sample_uniform(fast, n) == reference_sample(slow, n)


def golden_samples():
    """Seeded sample encodings generated by the loop that ``reference_sample`` replays."""
    with open(os.path.join(FIXTURES, "sample_golden.json")) as fh:
        return json.load(fh)


def test_seeded_samples_match_the_golden_file():
    for case in golden_samples():
        ctx = SamplerContext.create(case["k"], case["n"], case["seed"])
        drawn = [canonical_encoding(sample_uniform(ctx, case["n"])).hex()
                 for _ in case["encodings"]]
        assert drawn == case["encodings"], case


def dense_subset_indices(rng, population, take):
    """The Fisher-Yates prefix on a list of the whole population."""
    idx = list(range(population))
    for i in range(take):
        j = i + _randbelow(rng, population - i)
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:take])


@given(st.integers(0, 2**32 - 1), st.integers(1, 600), st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_subset_shuffle_matches_the_dense_one(seed, population, data):
    take = data.draw(st.integers(1, population))
    sparse, dense = random.Random(seed), random.Random(seed)
    for _ in range(3):
        chosen = _subset_indices(sparse, population, take)
        assert chosen == dense_subset_indices(dense, population, take)
    assert sparse.getstate() == dense.getstate()


def test_sample_zero_count_sizes_rejected():
    ctx = SamplerContext.create(3, 13, seed=0)
    with pytest.raises(ValueError, match="size 4"):
        sample_uniform(ctx, 4)
    with pytest.raises(ValueError, match="size 6"):
        sample_uniform(ctx, 6)
    ctx2 = SamplerContext.create(2, 6, seed=0)
    with pytest.raises(ValueError, match="size 1"):
        sample_uniform(ctx2, 1)


def test_expansion_weights_normalize_exactly():
    ctx = SamplerContext.create(2, 40, seed=0)
    for m in range(3, 41):
        assert sum(w for _, w in expansion_weights(ctx, m)) == ctx.table.entry(m)
    ctx3 = SamplerContext.create(3, 81, seed=0)
    for m in range(2, 41):
        assert sum(w for _, w in expansion_weights(ctx3, m)) == ctx3.table.entry(m)


@pytest.mark.parametrize("k", [2, 3])
def test_create_refuses_a_table_that_breaks_the_recurrence(monkeypatch, k):
    # one entry off by one: the normalization check in create names the
    # first index whose weights miss it, before a context exists to sample
    real = exact.count_upto_size

    def bumped(k, n):
        table = real(k, n)
        values = list(table.values)
        values[10] += 1
        return CountTable(table.k, table.kind, table.route, tuple(values))

    monkeypatch.setattr(exact, "count_upto_size", bumped)
    with pytest.raises(AssertionError, match="expansion weights at index 10 do not sum"):
        SamplerContext.create(k, 1 + 20 * (k - 1), seed=0)


@pytest.mark.parametrize("k, index", [(2, 11), (3, 10)])
def test_create_catches_a_fault_in_the_table_build(monkeypatch, k, index):
    # the build's own column sums go wrong at H-index 10; create checks the
    # table by residues, not by those sums, so it names the entry
    real = exact._column_sums

    def faulty(k, H, start, stop):
        for m, total in enumerate(real(k, H, start, stop), start):
            yield total + (m == 10)

    monkeypatch.setattr(exact, "_H_MEMO", {})
    monkeypatch.setattr(exact, "_column_sums", faulty)
    with pytest.raises(AssertionError, match=f"expansion weights at index {index} do not sum"):
        SamplerContext.create(k, 1 + 20 * (k - 1), seed=0)


def test_sampling_holds_no_per_index_state():
    # with the table built beforehand, create and the samples allocate one
    # index's weights at a time, not a cache of every visited index
    exact.count_upto_size(2, 600)
    tracemalloc.start()
    try:
        ctx = SamplerContext.create(2, 600, seed=5)
        for _ in range(5):
            sample_uniform(ctx, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_sampled_distribution_uniform_n5():
    from scipy.stats import chisquare

    trees = enumerate_all(2, 5)
    index = {canonical_encoding(t): i for i, t in enumerate(trees)}
    counts = [0] * len(trees)
    ctx = SamplerContext.create(2, 5, seed=20240817)
    draws = 20_000
    for _ in range(draws):
        counts[index[canonical_encoding(sample_uniform(ctx, 5))]] += 1
    assert sum(counts) == draws
    assert min(counts) > 0
    result = chisquare(counts)
    assert result.pvalue > 1e-3


def test_sampled_max_label_marginal_n5(bmn60, btab300):
    from scipy.stats import chisquare

    ctx = SamplerContext.create(2, 5, seed=7)
    draws = 20_000
    observed: dict[int, int] = {}
    for _ in range(draws):
        m = tree_statistics(sample_uniform(ctx, 5)).max_label
        observed[m] = observed.get(m, 0) + 1
    b5 = btab300.entry(5)
    support = [m for m in range(1, 5) if bmn60.entry(m, 5)]
    assert sorted(observed) == support  # no mass outside the exact support
    expected = [draws * bmn60.entry(m, 5) / b5 for m in support]
    result = chisquare([observed[m] for m in support], expected)
    assert result.pvalue > 1e-3


# ---------------------------------------------------------------- statistics


def test_statistics_figure_tree():
    stats = tree_statistics(complete(figure_tree(), 2))
    assert stats.size == 8
    assert stats.node_count == 7
    assert stats.max_label == 4
    assert stats.depth == 4


def test_statistics_root_tree():
    assert tree_statistics(root_tree(2)) == tree_statistics(root_tree(2))
    stats = tree_statistics(root_tree(2))
    assert (stats.size, stats.node_count, stats.max_label, stats.depth) == (2, 1, 1, 1)


def test_statistics_consistency_kary():
    ctx = SamplerContext.create(3, 13, seed=3)
    t = sample_uniform(ctx, 13)
    stats = tree_statistics(t)
    assert stats.size == 2 * stats.node_count + 1 == 13


def reference_statistics(t):
    """Size, node count, maximal label and depth read from the path walks."""
    nodes = list(iter_nodes(t.root))
    return (
        len(bullet_positions(t.root)),
        len(nodes),
        max(0, *(node.label for _, node in nodes)),
        max(len(path) + 1 for path, _ in nodes),
    )


@st.composite
def sampled_trees(draw):
    k = draw(st.integers(2, 5))
    n = 1 + (k - 1) * draw(st.integers(1, 80))
    return k, sample_uniform(SamplerContext.create(k, n, draw(st.integers(0, 2**32 - 1))), n)


@given(evolution_histories() | sampled_trees())
@settings(max_examples=150, deadline=None)
def test_counts_match_the_path_walks(kt):
    _, t = kt
    size, node_count, max_label, depth = reference_statistics(t)
    assert (t.size, t.max_label) == (size, max_label)
    assert tree_statistics(t) == TreeStatistics(size, node_count, max_label, depth)


def test_counts_of_a_deep_chain():
    t = decode_encoding(binary_chain_encoding(range(1, 3001)))
    assert tree_statistics(t) == TreeStatistics(3001, 3000, 3000, 3000)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_sampling_is_total_and_valid(seed, k, m):
    n = 1 + (k - 1) * m
    t = sample_uniform(SamplerContext.create(k, n, seed), n)
    assert t.size == n
    assert validate(strip(t), k)
    data = canonical_encoding(t)
    back = decode_encoding(data)
    assert back == t
    assert canonical_encoding(back) == data
