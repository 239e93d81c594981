import math
from collections import Counter
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witrees import exact, sampler
from witrees.exact import (
    CountTable,
    GuardExceeded,
    brute_force_count,
    count_binary_funceq,
    count_binary_upto,
    count_by_max_label,
    count_kary_funceq,
    count_kary_upto,
)
from witrees.sampler import enumerate_all, tree_statistics

PAPER_PREFIX = [0, 0, 1, 2, 7, 34, 214, 1652, 15121, 160110, 1925442, 25924260,
                386354366, 6314171932]


# ---------------------------------------------------------------- recurrence route


def test_binary_prefix_is_the_published_list():
    tab = count_binary_upto(13)
    assert list(tab.values) == PAPER_PREFIX
    assert tab.entry(13) == 6314171932
    assert tab.entry(1) == 0


def test_binary_lower_bound_factorial(btab300):
    for n in range(2, 301):
        assert btab300.entry(n) >= math.factorial(n - 1)


def test_table_bounds_and_seed_validation(btab300):
    with pytest.raises(ValueError, match="outside computed range"):
        btab300.entry(301)
    with pytest.raises(ValueError, match="seed"):
        CountTable(2, "B", "recurrence", (0, 1, 1))
    with pytest.raises(ValueError, match="negative"):
        CountTable(2, "B", "recurrence", (0, 0, 1, -2))
    with pytest.raises(ValueError, match="kind"):
        CountTable(2, "X", "recurrence", (0, 0, 1))


# ---------------------------------------------------------------- functional equation


def test_funceq_small_seed():
    assert count_binary_funceq(2).entry(2) == 1


def test_funceq_matches_recurrence_13():
    assert count_binary_funceq(13).values == count_binary_upto(13).values


def test_funceq_matches_recurrence_300(btab300):
    tab = count_binary_funceq(300)
    assert tab.values == btab300.values
    assert tab.route == "functional-equation"


def _full_funceq_iterations(N):
    """Reference: the fixed-point loop S <- z^2 + S(z + z^2) - S from the
    zero series, recomputing every degree each round.

    Returns every iterate, the zero series first, up to the one that the
    next round reproduces.
    """
    weights = [[(p, math.comb(p, n - p)) for p in range((n + 1) // 2, n)]
               for n in range(N + 1)]
    iterates = [[0] * (N + 1)]
    while True:
        cur, new = iterates[-1], [0] * (N + 1)
        new[2] = 1
        for n in range(3, N + 1):
            new[n] = sum(cur[p] * w for p, w in weights[n] if cur[p])
        if new == cur:
            return iterates
        iterates.append(new)


def test_funceq_equals_the_full_loop():
    for N in range(2, 61):
        assert count_binary_funceq(N).values == tuple(_full_funceq_iterations(N)[-1])


def test_funceq_iterates_count_trees_by_max_label(bmn60):
    # the t-th round of the loop holds, at degree n, the trees of size n
    # whose labels are all at most t: sum_{m <= t} B_{m,n}
    N = 30
    for t, iterate in enumerate(_full_funceq_iterations(N)):
        for n in range(2, N + 1):
            assert iterate[n] == sum(bmn60.entry(m, n) for m in range(1, t + 1)), (t, n)


@pytest.mark.parametrize("k, M", [(2, 80), (3, 80), (5, 80), (13, 80), (10**6, 3)])
def test_kary_funceq_matches_recurrence(k, M):
    assert count_kary_funceq(k, M).values == count_kary_upto(k, M).values


@pytest.mark.parametrize("k, j, q, degree", [(2, 19, 17, 37), (3, 10, 5, 31)])
def test_funceq_names_the_degree_a_wrong_binomial_breaks(monkeypatch, k, j, q, degree):
    # C(a_j, q) first reaches H_{j+q}, at degree 1 + (k-1)(j+q): later rows
    # are stepped from it, but they add only into higher entries.  The
    # Horner check of the equation uses no binomial, so it sees the wrong
    # coefficient
    real = exact._series_rows
    p = 1 + (k - 1) * j

    def corrupted(k, M):
        for i, row in real(k, M):
            if i == j:
                assert row[q] == math.comb(p, q)
                row[q] += 1
            yield i, row

    monkeypatch.setattr(exact, "_series_rows", corrupted)
    with pytest.raises(RuntimeError, match=rf"at degree {degree}$"):
        count_binary_funceq(60) if k == 2 else count_kary_funceq(k, 30)


# ---------------------------------------------------------------- stratification


def test_stratified_seeds_and_small_values(bmn60):
    assert bmn60.entry(1, 2) == 1
    assert bmn60.entry(2, 3) == 2
    assert bmn60.entry(2, 4) == 1
    assert bmn60.entry(3, 4) == 6
    assert bmn60.entry(1, 5) == 0


def test_stratified_row_sums_match_counts(bmn60, btab300):
    for n in range(2, 61):
        assert sum(bmn60.entry(m, n) for m in range(1, n)) == btab300.entry(n)


def _compose_with_z_plus_z2(c: list[int]) -> list[int]:
    """c(z + z^2) truncated to len(c) terms, by Horner's rule: no binomial."""
    U = [0] * len(c)
    for cp in reversed(c):
        U = [cp, *(U[i - 1] + (U[i - 2] if i > 1 else 0) for i in range(1, len(c)))]
    return U


def test_stratified_entries_match_repeated_substitution(bmn60):
    # B_1(z) = z^2 and B_m(z) = B_{m-1}(z + z^2) - B_{m-1}(z): each
    # expansion step substitutes z + z^2 once, and the subtraction drops
    # the trees in which no leaf was expanded
    N = 60
    Bm = [0, 0, 1] + [0] * (N - 2)
    for m in range(1, N):
        for n in range(2, N + 1):
            assert bmn60.entry(m, n) == Bm[n], (m, n)
        Bm = list(map(sub, _compose_with_z_plus_z2(Bm), Bm))
    assert not any(Bm)


def test_stratified_takes_each_binomial_once(monkeypatch):
    # one row per degree p = j + 1, shared by every m: each row is stepped once
    calls: Counter = Counter()
    real = exact._series_rows

    def counted(k, M):
        for j, row in real(k, M):
            calls[j + 1] += 1
            yield j, row

    monkeypatch.setattr(exact, "_series_rows", counted)
    count_by_max_label(60)
    assert calls == Counter(range(2, 60))


def test_stratified_against_enumeration_oracle(bmn60):
    # group exhaustively generated trees by their maximal label
    for n in range(2, 8):
        by_label: dict[int, int] = {}
        for t in enumerate_all(2, n):
            m = tree_statistics(t).max_label
            by_label[m] = by_label.get(m, 0) + 1
        for m in range(1, n):
            assert bmn60.entry(m, n) == by_label.get(m, 0)


# ---------------------------------------------------------------- k-ary


def test_kary_h_values(htab3_60):
    assert htab3_60.entry(0) == 0
    assert htab3_60.entry(1) == 1
    assert htab3_60.entry(2) == 3
    assert htab3_60.entry(3) == 18
    assert htab3_60.g(3) == 1
    assert htab3_60.g(5) == 3
    assert htab3_60.g(7) == 18


def test_kary_off_lattice_zero(htab3_60):
    assert htab3_60.g(4) == 0
    assert htab3_60.g(6) == 0
    assert htab3_60.g(0) == 0
    assert htab3_60.g(1) == 0  # below the one-node tree


def test_k2_reduction_matches_binary(btab300):
    h2 = count_kary_upto(2, 200)
    for m in range(201):
        assert h2.entry(m) == btab300.entry(m + 1)


def test_kary_spot_check_direct_sum(htab3_60):
    # independent evaluation of the recurrence with library binomials
    for m in (10, 37, 60):
        s_hi = exact.kary_smax(m, 3)
        direct = sum(
            math.comb(1 + (m - s) * 2, s) * htab3_60.entry(m - s) for s in range(1, s_hi + 1)
        )
        assert direct == htab3_60.entry(m)


def _fresh_h_counts(k, M):
    """Reference: the size recurrence built from H_1, with no shared state."""
    H = [0] * (M + 1)
    H[1] = 1
    for m in range(2, M + 1):
        acc = 0
        c = 1 + (m - 1) * (k - 1)
        for s in range(1, m - (m + k - 2) // k + 1):  # not the spied kary_smax
            acc += c * H[m - s]
            a = 1 + (m - s) * (k - 1)
            c = c * math.perm(a - s, k) // ((s + 1) * math.perm(a, k - 1))
        H[m] = acc
    return H


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 4)), st.integers(1, 120)),
                min_size=1, max_size=6))
def test_shared_builds_equal_fresh_builds(requests):
    # whatever order the requests come in, each table is the one a build
    # from H_1 gives
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_H_MEMO", {})
        for k, M in requests:
            assert count_kary_upto(k, M).values == tuple(_fresh_h_counts(k, M))
            if k == 2 and M >= 2:
                assert count_binary_upto(M).values == (0, *_fresh_h_counts(2, M - 1))


def test_a_longer_request_resumes_where_the_last_build_ended(monkeypatch):
    monkeypatch.setattr(exact, "_H_MEMO", {})
    count_binary_upto(300)
    calls = []
    smax = exact.kary_smax

    def spy(m, k):
        calls.append(m)
        return smax(m, k)

    monkeypatch.setattr(exact, "kary_smax", spy)
    assert count_binary_upto(200).values == (0, *_fresh_h_counts(2, 199))
    assert calls == []
    count_binary_upto(350)
    assert calls == list(range(300, 350))


def _library_h_counts(k, M):
    """Reference for any arity: the size recurrence with math.comb binomials.

    _fresh_h_counts steps its binomials by k-factor products, which take
    seconds per term at k = 10^6.
    """
    H = [0, 1]
    for m in range(2, M + 1):
        smax = m - (m + k - 2) // k  # not the spied kary_smax
        H.append(sum(math.comb(1 + (m - s) * (k - 1), s) * H[m - s]
                     for s in range(1, smax + 1)))
    return H


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4, 13, 49, 10**6, 10**12)),
       st.integers(1, 149).flatmap(lambda m1: st.tuples(st.just(m1), st.integers(m1 + 1, 150))))
def test_a_resumed_build_equals_a_fresh_one(k, sizes):
    # the resume rebuilds the live columns from the memo; the result must
    # not depend on where the previous build stopped
    M1, M2 = sizes
    fresh = _fresh_h_counts if k < 10**6 else _library_h_counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_H_MEMO", {})
        assert count_kary_upto(k, M1).values == tuple(fresh(k, M1))
        assert count_kary_upto(k, M2).values == tuple(fresh(k, M2))


def test_an_interrupted_build_leaves_a_prefix_that_resumes(monkeypatch):
    monkeypatch.setattr(exact, "_H_MEMO", {})
    smax = exact.kary_smax

    def interrupted(m, k):
        if m == 150:
            raise KeyboardInterrupt
        return smax(m, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "kary_smax", interrupted)
        with pytest.raises(KeyboardInterrupt):
            count_binary_upto(300)
    assert exact._H_MEMO[2] == _fresh_h_counts(2, 149)
    assert count_binary_upto(300).values == (0, *_fresh_h_counts(2, 299))


def test_residues_follow_the_exact_recurrence():
    p = exact.CHECK_PRIME
    for k, M in ((2, 90), (3, 60), (5, 40)):
        assert list(exact.h_residues(k, M)) == [h % p for h in _fresh_h_counts(k, M)]
    # an arity far beyond any factorial table: C(a, s) with a > p
    k, H = 10**40, [0, 1]
    assert k > p
    for m in range(2, 13):
        H.append(sum(math.comb(1 + (m - s) * (k - 1), s) * H[m - s] for s in range(1, m)))
    assert list(exact.h_residues(k, 12)) == [h % p for h in H]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4, 13, 49, 10**6, 10**12)),
       st.lists(st.integers(), min_size=2, max_size=80), st.data())
def test_column_sums_equal_the_recurrence_with_library_binomials(k, H, data):
    # any values, and any start (a resumed build starts past 2): each sum
    # is the recurrence's, read from H with math.comb binomials
    start = data.draw(st.integers(2, len(H)))
    stop = len(H)  # the sum at m reads H[0..m-1]
    expected = [
        sum(math.comb(1 + (m - s) * (k - 1), s) * H[m - s]
            for s in range(1, m - (m + k - 2) // k + 1))
        for m in range(start, stop + 1)
    ]
    assert list(exact._column_sums(k, H, start, stop)) == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 13, 10**6)), st.lists(st.integers(), min_size=2, max_size=60),
       st.data())
def test_columns_hold_the_falling_factorials_of_their_live_indices(k, x, data):
    # any values, any start and any cap: at each m the live columns are the
    # j with s = m - j <= kary_smax(m, k) and s < cap, and column j holds
    # x_j (a_j)_s, a_j = 1 + j(k-1), built from math.perm
    start = data.draw(st.integers(2, len(x)))
    cap = data.draw(st.none() | st.integers(2, 40))
    stop = len(x)  # step m reads x[m-1]
    def run(s0):  # the yielded list is stepped on, so copy it
        return [(m, lo, list(col)) for m, lo, col in exact._columns(k, x, s0, stop, cap)]

    resumed = run(start)
    assert [m for m, _, _ in resumed] == list(range(start, stop + 1))
    for m, lo, col in resumed:
        top = exact.kary_smax(m, k) if cap is None else min(exact.kary_smax(m, k), cap - 1)
        assert lo == m - top
        assert col == [x[j] * math.perm(1 + j * (k - 1), m - j) for j in range(lo, m)]
    # a run started at s yields, from s on, what the run from 2 yields
    assert resumed == run(2)[start - 2 :]


# ---------------------------------------------------------------- brute force


def test_brute_force_binary():
    assert brute_force_count(2, 2) == 1
    assert brute_force_count(2, 7) == 1652


def test_brute_force_ternary():
    assert brute_force_count(3, 5) == 3
    assert brute_force_count(3, 7) == 18


def test_brute_force_matches_tables(btab300, htab3_60):
    for n in range(2, 9):
        assert brute_force_count(2, n) == btab300.entry(n)
    for n in range(1, 10):
        assert brute_force_count(3, n) == htab3_60.g(n)


def test_brute_force_guard():
    with pytest.raises(GuardExceeded):
        brute_force_count(2, 9, guard=1000)


def test_guard_is_configurable():
    assert exact.DEFAULT_TREE_GUARD == 2_000_000
    assert brute_force_count(2, 6, guard=250) == 214


def test_brute_force_guard_boundary():
    # 214 trees of size 6: a guard of 213 is passed, one of 214 is not
    with pytest.raises(GuardExceeded, match="more than 213 trees of size 6"):
        brute_force_count(2, 6, guard=213)
    assert brute_force_count(2, 6, guard=214) == 214


@pytest.mark.parametrize("run, n", [
    (brute_force_count, 12), (brute_force_count, 300), (brute_force_count, 1200),
    (enumerate_all, 12),
], ids=["brute-12", "brute-300", "brute-1200", "enumerate-12"])
def test_guard_refuses_before_the_walk(monkeypatch, run, n):
    # the count is read from the table up front: a size past the guard
    # raises without growing a tree, and a deep one without recursing
    def no_growth(*args):
        raise AssertionError("the walk expanded a leaf")

    monkeypatch.setattr(sampler, "_grow_flat", no_growth)
    with pytest.raises(GuardExceeded, match=f"more than 2000000 trees of size {n};"):
        run(2, n)


def test_enumeration_refuses_its_footprint_before_the_walk(monkeypatch):
    # 1,925,442 trees of size 10 pass the tree guard but would hold about
    # 2.3 GiB as frozen trees; the tree guard still speaks first at 11
    def no_growth(*args):
        raise AssertionError("the walk expanded a leaf")

    monkeypatch.setattr(sampler, "_grow_flat", no_growth)
    with pytest.raises(GuardExceeded, match="the 1925442 trees of size 10 would hold about "
                       "2350 MiB, beyond the 1 GiB build limit"):
        enumerate_all(2, 10)
    with pytest.raises(GuardExceeded, match="more than 2000000 trees of size 11;"):
        enumerate_all(2, 11)
    with pytest.raises(GuardExceeded, match="size 10 would hold"):
        enumerate_all(2, 10, guard=10**9)
    with pytest.raises(AssertionError, match="expanded a leaf"):
        enumerate_all(2, 9)  # 160,110 trees fit: the walk starts
    assert exact.MAX_BUILD_BITS == 2**33 and exact.TREE_SLOT_BITS == 1024


def test_brute_force_detects_repeated_encodings(monkeypatch):
    from witrees import trees

    monkeypatch.setattr(trees, "_encode_flat", lambda state: b"same")
    with pytest.raises(AssertionError, match="duplicate trees at size 4"):
        brute_force_count(2, 4)
    assert brute_force_count(2, 2) == 1  # one tree cannot repeat
