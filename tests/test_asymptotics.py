import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witrees import asymptotics as asy
from witrees import exact
from witrees.asymptotics import (
    Precision,
    correction_a,
    delta_coeff,
    delta_exact,
    delta_smax,
    estimate_alpha,
    estimate_eta_extrapolation,
    estimate_eta_integral,
    estimate_kary_exponent,
    gamma_coeff,
    gamma_exact,
    kary_exponent_target,
    log_gamma,
    scaled_b_recurrence,
    scaled_from_exact,
    scaled_h_recurrence,
)
from witrees.exact import count_kary_upto

LN2 = mp.mpf(mp.ln(2))


def close(x, y, rel):
    x, y = mp.mpf(x), mp.mpf(y)
    return abs(x - y) <= rel * max(abs(x), abs(y), mp.mpf(1) * 0 + 1e-300)


# ---------------------------------------------------------------- precision


def test_precision_floor():
    with pytest.raises(ValueError):
        Precision(14)
    p = Precision(30)
    assert p.dps == 45
    assert mp.almosteq(p.tolerance(), mp.mpf(10) ** -20)


# ---------------------------------------------------------------- gamma


def test_gamma_unit_for_l1():
    for n in (2, 5, 17, 400):
        assert gamma_exact(n, 1) == 1


def test_gamma_known_rationals():
    assert gamma_exact(10, 2) == Fraction(7, 9)
    assert gamma_exact(4, 2) == Fraction(1, 3)
    assert close(gamma_coeff(10, 2), mp.mpf(7) / 9, mp.mpf("1e-25"))


def test_gamma_range_errors():
    for n, l in ((1, 1), (4, 0), (4, 3), (10, 6)):
        with pytest.raises(ValueError):
            gamma_exact(n, l)


def test_gamma_two_sided_bounds_exhaustive_small():
    # provable form: the lower bound carries n-1 denominators (see the
    # stated-form counterexample below), the upper bound is as stated
    for n in range(2, 201):
        for l in range(1, n // 2 + 1):
            g = gamma_exact(n, l)
            low = (
                1
                - Fraction(l * (l - 1), n - 1)
                - Fraction(l * (l - 1) ** 2, (n - 1) * (n - 1))
            )
            high = 1 - Fraction(l * (l - 1), n) + Fraction(l * (l - 1) ** 3, 2 * n * n)
            assert low <= g <= high, (n, l)


def test_gamma_stated_lower_bound_is_false_at_l2():
    # the often-quoted lower bound 1 - l(l-1)/n - l(l-1)^2/n^2 fails for
    # l = 2 at every n >= 4: gamma(n, 2) = 1 - 2/(n-1) undershoots it by
    # exactly 2/((n-1) n^2).  Pin the counterexample so the defect and its
    # extent stay documented.
    for n in (4, 10, 100, 500):
        g = gamma_exact(n, 2)
        stated = 1 - Fraction(2, n) - Fraction(2, n * n)
        assert g < stated
        assert stated - g == Fraction(2, (n - 1) * n * n)
    # and l = 2 is the only failing column up to n = 200
    for n in range(2, 201):
        for l in range(1, n // 2 + 1):
            if l == 2:
                continue
            stated = 1 - Fraction(l * (l - 1), n) - Fraction(l * (l - 1) ** 2, n * n)
            assert gamma_exact(n, l) >= stated, (n, l)


@given(st.integers(2, 500))
@settings(max_examples=80, deadline=None)
def test_gamma_bounds_property(n):
    for l in range(1, n // 2 + 1):
        g = gamma_exact(n, l)
        low = (
            1
            - Fraction(l * (l - 1), n - 1)
            - Fraction(l * (l - 1) ** 2, (n - 1) * (n - 1))
        )
        assert low <= g
        assert g <= 1 - Fraction(l * (l - 1), n) + Fraction(l * (l - 1) ** 3, 2 * n * n)


# ---------------------------------------------------------------- delta


def test_delta_known_values():
    assert delta_exact(3, 2, 1) == Fraction(3, 2)
    assert delta_exact(3, 4, 1) == Fraction(7, 4)
    assert close(delta_coeff(3, 4, 1), mp.mpf(7) / 4, mp.mpf("1e-25"))


def test_delta_s1_closed_form_exact():
    for k in (3, 4, 5, 13):
        for n in range(1, 120):
            closed = (k - 1) * (1 - Fraction(1, n) + Fraction(1, n * (k - 1)))
            assert delta_exact(k, n, 1) == closed


def test_delta_upper_bound():
    for k in (3, 4, 5, 13):
        for n in range(3, 80):
            for s in range(2, delta_smax(n, k) + 1):
                d = delta_exact(k, n, s)
                assert 0 <= d <= (k - 1) ** s * (1 - Fraction(s, n)), (k, n, s)


def test_delta_range_errors():
    with pytest.raises(ValueError):
        delta_exact(2, 5, 1)  # arity too small
    with pytest.raises(ValueError):
        delta_exact(3, 4, 4)  # s beyond the admissible bound (smax=3)...
    with pytest.raises(ValueError):
        delta_exact(3, 4, 0)


def test_delta_stirling_expansion_constant():
    # |delta/(k-1)^s - (1 - s((s+1)k-4)/(2n(k-1)))| <= C s^4 / n^2
    # with the bring-up constant C frozen at 0.5 (measured max ~0.21)
    C = Fraction(1, 2)
    n = 10_000
    for k in (3, 13):
        for s in range(1, 11):
            d = delta_exact(k, n, s)
            approx = 1 - Fraction(s * ((s + 1) * k - 4), 2 * n * (k - 1))
            assert abs(d / (k - 1) ** s - approx) <= C * Fraction(s**4, n * n)


# ---------------------------------------------------------------- scaled b


def test_b_seed_values(bseq1200):
    assert mp.almosteq(bseq1200[2], LN2**2)
    assert mp.almosteq(bseq1200[3], LN2**3)          # one recurrence step
    assert mp.almosteq(bseq1200[3], 2 * LN2**3 / 2)  # scaling B_3 = 2 directly
    assert mp.almosteq(bseq1200[4], mp.mpf(7) / 6 * LN2**4)
    assert bseq1200[0] == bseq1200[1] == 0


def test_b_between_reciprocal_bounds(bseq1200):
    for n in range(25, 1001):
        assert 1 / mp.mpf(n) < bseq1200[n] < 1 / mp.sqrt(n), n


def test_b_eps_bound(bseq1200):
    for n in range(3, 1201):
        assert 0 <= bseq1200[n] <= mp.mpf(n) ** mp.mpf("-0.01")


def test_b_nonnegative_and_decaying(bseq1200):
    assert all(v >= 0 for v in bseq1200.values)
    assert bseq1200[1200] < bseq1200[100] < bseq1200[10]


def test_scaled_from_exact_binary_agrees(btab300, bseq1200, prec30):
    bx = scaled_from_exact(btab300, prec30)
    tol = prec30.tolerance()
    assert mp.almosteq(bx[2], LN2**2)
    for n in range(2, 301):
        assert abs(bx[n] - bseq1200[n]) <= tol * bseq1200[n]


def test_dual_route_agreement_to_1000(bseq1200, prec30):
    from witrees.exact import count_binary_upto

    bx = scaled_from_exact(count_binary_upto(1000), prec30)
    tol = prec30.tolerance()
    for n in range(2, 1001):
        assert abs(bx[n] - bseq1200[n]) <= tol * bseq1200[n], n


def test_scaled_from_exact_kary(htab3_60, prec30):
    hx = scaled_from_exact(htab3_60, prec30)
    assert mp.almosteq(hx[1], LN2 / 2)
    h = scaled_h_recurrence(3, 60, prec30)
    tol = prec30.tolerance()
    for n in range(1, 61):
        assert abs(hx[n] - h[n]) <= tol * h[n]


@pytest.mark.parametrize("digits", [15, 30])
def test_b_is_ln2_times_shifted_binary_h(digits):
    # b_n = ln 2 * h_{n-1} at k = 2, since B_n = H_{n-1}
    p = Precision(digits)
    N = 300
    b = scaled_b_recurrence(N, p)
    h = scaled_from_exact(count_kary_upto(2, N - 1), p)
    tol = p.tolerance()
    with mp.workdps(p.dps):
        for n in range(2, N + 1):
            assert abs(b[n] - mp.ln(2) * h[n - 1]) <= tol * b[n], n


def test_gamma_is_binary_delta():
    # gamma(n+1, s) is the k = 2 case of delta_{n,s} = C(1+(n-s)(k-1), s) / C(n, s)
    for n in range(1, 201):
        top = (n + 1) // 2
        assert top == exact.kary_smax(n, 2)
        for s in range(1, top + 1):
            assert gamma_exact(n + 1, s) == Fraction(math.comb(1 + (n - s), s), math.comb(n, s))
        with pytest.raises(ValueError):
            gamma_exact(n + 1, top + 1)


def test_precision_robustness_1000():
    b15 = scaled_b_recurrence(1000, Precision(15))
    b30 = scaled_b_recurrence(1000, Precision(30))
    for n in (2, 10, 100, 500, 1000):
        assert abs(b15[n] - b30[n]) <= mp.mpf(10) ** -10 * b30[n]


def test_log_gamma_matches_mpmath(prec30):
    with mp.workdps(prec30.dps):
        for x in (1, 2, 7, 39, 40, 1001, mp.mpf("2.5"), mp.mpf("123.25")):
            mine = log_gamma(x, prec30)
            ref = mp.loggamma(x)
            assert abs(mine - ref) <= mp.mpf(10) ** -(prec30.dps - 5) * max(1, abs(ref))


# ---------------------------------------------------------------- correction


def test_a_small_values(aseq1200):
    assert aseq1200[2] == 0
    assert aseq1200[3] == 0
    assert mp.almosteq(aseq1200[4], -(LN2**4) / 12)


def test_a_envelope_frozen(aseq1200):
    # bring-up measured max of n^2 |a_n| over 10..1000 as ~0.0324
    for n in range(10, 1001):
        assert n * n * abs(aseq1200[n]) <= 0.05


def test_identity_residual(bseq1200, aseq1200, prec30):
    tol = prec30.tolerance()
    for n in (3, 4, 17, 100, 555, 1200):
        assert asy.an_identity_residual(bseq1200, aseq1200, n) <= tol


def test_identity_starts_at_three(bseq1200, aseq1200):
    with pytest.raises(ValueError):
        asy.an_identity_residual(bseq1200, aseq1200, 2)


# ---------------------------------------------------------------- scaled h


def test_h_seed_values(hseq3_2000):
    assert mp.almosteq(hseq3_2000[1], LN2 / 2)
    assert mp.almosteq(hseq3_2000[2], 3 * LN2**2 / 8)


def test_h_power_bound(hseq3_2000):
    for n in range(1, 2001):
        assert 0 <= hseq3_2000[n] <= mp.mpf(n) ** -LN2


def test_h_requires_k3():
    with pytest.raises(ValueError):
        scaled_h_recurrence(2, 10)


# ---------------------------------------------------------------- estimators


def test_alpha_binary(btab300):
    est = estimate_alpha(btab300)
    assert est.kind == "alpha" and est.method == "ratio"
    assert abs(est.value - 1 / LN2) < mp.mpf("1e-10")
    assert est.error >= 0


def test_alpha_raw_ratio_at_13_is_far():
    # unaccelerated ratio at n=13: 6314171932 / (13 * 386354366) ~ 1.257
    raw = mp.mpf(6314171932) / (13 * 386354366)
    assert abs(raw - mp.mpf("1.257")) < 1e-3
    assert abs(raw - 1 / LN2) > mp.mpf("0.18")


def test_alpha_kary():
    est = estimate_alpha(count_kary_upto(3, 150))
    assert abs(est.value - 2 / LN2) < mp.mpf("1e-6")


def test_alpha_refuses_short_tables():
    import witrees.exact as exact

    with pytest.raises(ValueError, match="at least 100"):
        estimate_alpha(exact.count_binary_upto(60))


def test_eta_extrapolation(bseq1200):
    est = estimate_eta_extrapolation(bseq1200, 1200)
    assert est.method == "extrapolation"
    assert abs(est.value - mp.mpf("0.647852")) <= 1e-3
    assert est.error <= 1e-6


def test_eta_insufficient_range(bseq1200):
    with pytest.raises(ValueError, match=">= 1000"):
        estimate_eta_extrapolation(bseq1200, 800)


def test_second_order_residual_bounded(bseq1200):
    est = estimate_eta_extrapolation(bseq1200, 1200)
    worst = max(
        asy.second_order_residual(bseq1200, est.value, n) for n in range(100, 1001)
    )
    assert worst <= 0.005  # frozen bring-up bound (measured ~0.0039)


def test_prefactor_limit_matches_closed_form(prec30):
    limit = asy.g_regular(1, prec30)
    closed = asy.asymptotic_prefactor(prec30)
    assert abs(limit - closed) <= mp.mpf(10) ** -25 * closed
    assert asy.g_regular(0, prec30) == 1


def test_eta_integral_route_agrees(bseq1200, aseq1200):
    p = Precision(15)  # quadrature tolerance far below the 1% target
    est_int = estimate_eta_integral(aseq1200, p)
    est_ext = estimate_eta_extrapolation(bseq1200, 1200)
    assert est_int.method == "integral"
    assert abs(est_int.value - est_ext.value) <= mp.mpf("0.01") * est_ext.value
    assert est_int.error < mp.mpf("0.01")


def test_eta_integral_rejects_short_sequences(bseq1200):
    a = correction_a(120, bseq1200)
    with pytest.raises(RuntimeError, match="extend the sequence"):
        estimate_eta_integral(a, Precision(15))


def test_kary_exponent(hseq3_2000):
    est = estimate_kary_exponent(hseq3_2000)
    target = kary_exponent_target(3)
    assert est.method == "slope-fit"
    assert abs(est.value - target) < mp.mpf("1e-6")
    assert abs(target - mp.mpf("-1.0198603854")) < 1e-9


def test_kary_exponent_magnitude_near_002():
    # the tree-level power of m for k=3: (2 - 3 ln 2)/4 ~ -0.0199
    power = kary_exponent_target(3) + 1
    assert abs(abs(power) - mp.mpf("0.0199")) < 2e-4
    assert power < 0


def test_kary_target_reduces_to_binary_exponent():
    assert mp.almosteq(kary_exponent_target(2), -LN2)


def test_kary_exponent_insufficient_range(prec30):
    h = scaled_h_recurrence(3, 500, prec30)
    with pytest.raises(ValueError, match="2000"):
        estimate_kary_exponent(h)


def test_kary_prefactor_stabilizes(hseq3_2000):
    est = asy.estimate_kary_prefactor(hseq3_2000)
    assert est.kind == "eta_k" and est.k == 3
    assert est.value > 0
    # the fitted constant has settled: the half-range drift is small
    assert est.error <= mp.mpf("1e-3") * est.value


# ---------------------------------------------------------------- records


def test_estimate_record_format(btab300):
    est = estimate_alpha(btab300)
    fields = est.record().split(",")
    assert fields[0] == "alpha"
    assert fields[3] == "ratio"
    assert fields[4:] == ["300", "2", "30"]


def test_scaled_csv_rows(bseq1200):
    rows = list(bseq1200.csv_rows())
    assert rows[0] == "0,0.0"
    assert rows[2].startswith("2,0.480453013918201")
