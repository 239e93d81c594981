"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expensive intermediates (count tables, scaled sequences) are built once per
module run through a lazy cache so that criteria stay independently
runnable; criteria with a stated runtime budget time their own builds.

The gamma lower bound of criterion 4 is asserted in two forms: the provable
form (n-1 denominators) inside the main lemma-suite test, and the literal
stated form as a separate strict-xfail test, because the stated form is
mathematically false for l = 2 at every n >= 4 (counterexample:
gamma(10,2) = 7/9 < 1 - 2/10 - 2/100 = 39/50).
"""

import hashlib
import math
import subprocess
import sys
import time
from math import comb

import mpmath as mp
import pytest

from witrees import asymptotics as asy
from witrees import exact, oeis, sampler, trees

PAPER_PREFIX = [0, 0, 1, 2, 7, 34, 214, 1652, 15121, 160110, 1925442, 25924260,
                386354366, 6314171932]
D30 = asy.Precision(30)

#: bring-up fixture constants (frozen; re-runs must never exceed them)
RESIDUAL_BOUND = 0.005      # max of n^2 |b_n n^ln2 / eta - 1 - ln2/(2n)|, measured 0.0039
A_ENVELOPE_BOUND = 0.05     # max of n^2 |a_n| over 10..1000, measured 0.033

_cache: dict = {}


def _get(name, builder):
    if name not in _cache:
        _cache[name] = builder()
    return _cache[name]


def _b5000():
    return _get("b5000", lambda: asy.scaled_b_recurrence(5000, D30))


def _eta_ext():
    return _get("eta_ext", lambda: asy.estimate_eta_extrapolation(_b5000()))


def _ok(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {message}")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "witrees.cli", *args], capture_output=True, text=True
    )


def test_c01_exact_prefix_under_one_second():
    t0 = time.perf_counter()
    cp = run_cli("count", "--k", "2", "--upto", "13")
    elapsed = time.perf_counter() - t0
    assert cp.returncode == 0, cp.stderr
    values = [int(line.split("\t")[1]) for line in cp.stdout.splitlines()]
    assert values == PAPER_PREFIX
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"count --k 2 --upto 13 reproduces the published prefix in {elapsed:.2f}s")


def test_c02_triple_route_agreement():
    t0 = time.perf_counter()
    rec = exact.count_binary_upto(9)
    feq = exact.count_binary_funceq(9)
    assert rec.values == feq.values
    for n in range(2, 10):
        assert exact.brute_force_count(2, n) == rec.entry(n), n
    h3 = exact.count_kary_upto(3, 4)
    assert exact.count_kary_funceq(3, 4).values == h3.values
    for n in range(1, 10):
        assert exact.brute_force_count(3, n) == h3.g(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _ok(2, f"all three routes agree for both arities: recurrence = functional equation "
           f"= brute force (binary and ternary, n <= 9) in {elapsed:.1f}s")


def test_c03_stratification_sums():
    bmn = _get("bmn200", lambda: exact.count_by_max_label(200))
    btab = _get("b200", lambda: exact.count_binary_upto(200))
    for n in range(2, 201):
        assert sum(bmn.entry(m, n) for m in range(1, n)) == btab.entry(n), n
    _ok(3, "sum over m of B_{m,n} equals B_n exactly for all n <= 200")


def test_c04_lemma_suite():
    t0 = time.perf_counter()

    # gamma bounds, n <= 500: provable lower bound and stated upper bound,
    # checked in exact integer arithmetic.  The literal stated lower bound
    # is exercised by test_c04_gamma_lower_bound_as_stated below.
    for n in range(2, 501):
        nm1 = n - 1
        for l in range(1, n // 2 + 1):
            gn, gd = comb(n - l, l), comb(n - 1, l)
            a = l * (l - 1)
            low_num = nm1 * nm1 - a * nm1 - a * (l - 1)
            up_num = 2 * n * n - 2 * n * a + a * (l - 1) * (l - 1)
            assert low_num * gd <= gn * nm1 * nm1, ("gamma low", n, l)
            assert 2 * n * n * gn <= up_num * gd, ("gamma up", n, l)
    t_gamma = time.perf_counter() - t0

    # b_n <= n^(-1/100) for 3 <= n <= 10^4
    b10k = _get("b10k", lambda: asy.scaled_b_recurrence(10_000, D30))
    with mp.workdps(D30.dps):
        eps = mp.mpf(1) / 100
        for n in range(3, 10_001):
            bn = b10k[n]
            assert 0 <= bn <= mp.exp(-eps * mp.log(n)), n
    t_b = time.perf_counter() - t0 - t_gamma

    # smoothed-recurrence identity residual, 3 <= n <= 2000
    a2000 = asy.correction_a(2000, b10k)
    tol = D30.tolerance()
    for n in range(3, 2001):
        assert asy.an_identity_residual(b10k, a2000, n) <= tol, n
    t_ident = time.perf_counter() - t0 - t_gamma - t_b

    # delta closed form (s=1) and upper bound (s>1), exact integers
    for k in (3, 4, 5, 13):
        for n in range(1, 301):
            for s in range(1, asy.delta_smax(n, k) + 1):
                num = comb(1 + (n - s) * (k - 1), s)
                den = comb(n, s)
                if s == 1:
                    assert num * n == den * ((k - 1) * (n - 1) + 1), (k, n)
                else:
                    assert 0 <= num
                    assert num * n <= den * (k - 1) ** s * (n - s), (k, n, s)
    t_delta = time.perf_counter() - t0 - t_gamma - t_b - t_ident

    # h_n <= n^(-ln 2) for k in {3, 13, 49}, n <= 5000
    for k in (3, 13, 49):
        h = _get(f"h{k}_5000", lambda k=k: asy.scaled_h_recurrence(k, 5000, D30))
        with mp.workdps(D30.dps):
            ln2 = mp.ln(2)
            for n in range(1, 5001):
                assert 0 <= h[n] <= mp.exp(-ln2 * mp.log(n)), (k, n)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"lemma suite took {elapsed:.1f}s"
    _ok(4, f"lemma suite in {elapsed:.1f}s (gamma {t_gamma:.1f}s, scaled-b bound "
           f"{t_b:.1f}s, identity {t_ident:.1f}s, delta {t_delta:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the stated gamma lower bound 1 - l(l-1)/n - l(l-1)^2/n^2 is provably "
    "false for l = 2 (gamma(n,2) = 1 - 2/(n-1) undershoots it by 2/((n-1)n^2) "
    "for every n >= 4); the provable n-1 form is asserted in test_c04_lemma_suite",
)
def test_c04_gamma_lower_bound_as_stated():
    failures = []
    for n in range(2, 501):
        for l in range(1, n // 2 + 1):
            gn, gd = comb(n - l, l), comb(n - 1, l)
            a = l * (l - 1)
            stated_num = n * n - a * n - a * (l - 1)
            if stated_num * gd > gn * n * n:
                failures.append((n, l))
    if failures:
        print(f"ACCEPTANCE 04 (stated-form gamma lower bound) FAIL - "
              f"{len(failures)} violations, all at l=2; first: {failures[:3]}")
    assert not failures


def test_c05_eta_extrapolation():
    t0 = time.perf_counter()
    est = _eta_ext()  # builds b_n up to 5000 at 30 digits
    elapsed = time.perf_counter() - t0
    assert abs(est.value - mp.mpf("0.647852")) <= 1e-3
    assert elapsed < 60.0
    _ok(5, f"eta = {mp.nstr(est.value, 10)} +/- {mp.nstr(est.error, 2)} "
           f"(extrapolation, N=5000, D=30) in {elapsed:.1f}s")


def test_c06_integral_route_cross_check():
    ext = _eta_ext()
    b4000 = asy.scaled_b_recurrence(4000, asy.Precision(15))
    est = asy.estimate_eta_integral(asy.correction_a(4000, b4000))
    assert est.method == "integral"
    budget = max(mp.mpf("0.01") * ext.value, est.error + ext.error)
    assert abs(est.value - ext.value) <= budget
    cp = run_cli("estimate", "eta", "--method", "integral", "--N", "1200",
                 "--digits", "15")
    assert cp.returncode == 0, cp.stderr
    assert "interpreted" in cp.stderr  # the route is flagged as such
    _ok(6, f"integral-route eta = {mp.nstr(est.value, 8)} agrees with "
           f"extrapolation within {mp.nstr(abs(est.value - ext.value) / ext.value, 2)} "
           f"relative (1% budget); flagged 'interpreted'")


#: sha256 of the comma-joined hex values of B_0..B_2000 and of H_0..H_2000 at k = 3
B2000_SHA256 = "71b4d64ad5a14478d70969e7efe3984126527af52258becf8ae098616d81cc8e"
H3_2000_SHA256 = "858afcb8a45764bb2b7f1247ecb2466c645ced814364cc375ca1784efff20628"


def _values_sha256(table) -> str:
    return hashlib.sha256(",".join(f"{v:x}" for v in table.values).encode()).hexdigest()


def test_c07_growth_rate():
    btab = _get("B2000", lambda: exact.count_binary_upto(2000))
    h3tab = _get("H3_2000", lambda: exact.count_kary_upto(3, 2000))
    assert _values_sha256(btab) == B2000_SHA256
    assert _values_sha256(h3tab) == H3_2000_SHA256
    est = asy.estimate_alpha(btab, D30)
    with mp.workdps(D30.dps):
        assert abs(est.value - 1 / mp.ln(2)) <= 2e-3
    est3 = asy.estimate_alpha(h3tab, D30)
    with mp.workdps(D30.dps):
        assert abs(est3.value - 2 / mp.ln(2)) <= 5e-3
    _ok(7, f"alpha(binary) = {mp.nstr(est.value, 12)}, "
           f"alpha(k=3) = {mp.nstr(est3.value, 12)} (Richardson ratio, N=2000); "
           "both tables match their pinned sha256")


def test_c08_second_order_refinement_bound():
    b = _b5000()
    eta = _eta_ext().value
    worst = max(asy.second_order_residual(b, eta, n) for n in range(100, 1001))
    assert worst <= RESIDUAL_BOUND
    _ok(8, f"n^2 second-order residual max {mp.nstr(worst, 4)} <= frozen "
           f"{RESIDUAL_BOUND} over 100 <= n <= 1000")


def test_c09_figure2_curve_ordering(tmp_path):
    out = tmp_path / "fig2.csv"
    cp = run_cli("figure", "fig2", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,b_n,inv_sqrt_n,inv_n"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(25, 1001))
    for r in rows:
        n, bn = int(r[0]), float(r[1])
        assert 1.0 / n < bn < 1.0 / math.sqrt(n), r
    _ok(9, "figure 2 CSV satisfies 1/n < b_n < 1/sqrt(n) for all 25 <= n <= 1000")


def test_c10_kary_exponent():
    h = _get("h3_4000", lambda: asy.scaled_h_recurrence(3, 4000, D30))
    est = asy.estimate_kary_exponent(h)
    target = asy.kary_exponent_target(3, D30)
    assert abs(est.value - target) <= 0.05
    with mp.workdps(D30.dps):
        assert abs(target - mp.mpf("-1.0198603854")) < 1e-9
    _ok(10, f"k=3 slope fit {mp.nstr(est.value, 10)} within 0.05 of closed form "
            f"{mp.nstr(target, 10)} (N=4000)")


def test_c11_sampler_exactness():
    from scipy.stats import chisquare

    t0 = time.perf_counter()
    all_trees = sampler.enumerate_all(2, 6)
    index = {trees.canonical_encoding(t): i for i, t in enumerate(all_trees)}
    assert len(all_trees) == 214
    ctx = sampler.SamplerContext.create(2, 6, seed=171792)
    counts = [0] * len(all_trees)
    label_counts: dict[int, int] = {}
    draws = 100_000
    for _ in range(draws):
        t = sampler.sample_uniform(ctx, 6)
        counts[index[trees.canonical_encoding(t)]] += 1
        m = sampler.tree_statistics(t).max_label
        label_counts[m] = label_counts.get(m, 0) + 1
    uniform_p = chisquare(counts).pvalue
    assert uniform_p > 1e-3

    bmn = _get("bmn200", lambda: exact.count_by_max_label(200))
    b6 = sum(counts)
    support = [m for m in range(1, 6) if bmn.entry(m, 6)]
    assert sorted(label_counts) == support
    expected = [draws * bmn.entry(m, 6) / 214 for m in support]
    marginal_p = chisquare([label_counts[m] for m in support], expected).pvalue
    assert marginal_p > 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(11, f"10^5 samples at n=6: uniformity p={uniform_p:.3f}, max-label "
            f"marginal p={marginal_p:.3f}, {elapsed:.1f}s")


def test_c12_oeis_offline_check(bfile_fixture_path):
    table = _get("b200", lambda: exact.count_binary_upto(200))
    bfile = oeis.load_bfile(bfile_fixture_path, "A171792")
    report = oeis.find_shift(table, bfile, 50)
    assert report.full_prefix
    assert report.matched >= 50 - abs(report.offset)
    # the full-prefix shift is unique
    consistent = []
    entries = dict(bfile.entries)
    lo_i, hi_i = bfile.entries[0][0], bfile.entries[-1][0]
    for s in range(-hi_i, 51 - lo_i):
        lo, hi = max(0, lo_i + s), min(50, hi_i + s)
        if lo > hi:
            continue
        span = range(lo, hi + 1)
        if all((n - s) in entries and table.entry(n) == entries[n - s] for n in span):
            if len(span) >= 10:
                consistent.append(s)
    assert consistent == [report.offset] == [1]
    _ok(12, f"A171792 fixture matches with unique offset {report.offset}, "
            f"full prefix of {report.matched} values (N=50)")
