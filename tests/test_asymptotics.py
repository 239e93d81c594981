import functools
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witrees import asymptotics as asy
from witrees import exact
from witrees.asymptotics import (
    Precision,
    correction_a,
    delta_exact,
    delta_smax,
    estimate_alpha,
    estimate_eta_extrapolation,
    estimate_eta_integral,
    estimate_kary_exponent,
    gamma_exact,
    kary_exponent_target,
    scaled_b_recurrence,
    scaled_from_exact,
    scaled_h_recurrence,
)
from witrees.exact import count_kary_upto

LN2 = mp.mpf(mp.ln(2))


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
    with pytest.raises(ValueError, match="^arity must be >= 2$"):
        delta_exact(1, 5, 1)
    for n in range(2, 201):  # k = 2 is gamma, on the same domain
        for l in range(1, n // 2 + 1):
            assert delta_exact(2, n - 1, l) == gamma_exact(n, l)
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
    tol = prec30.tolerance()
    for table in (htab3_60, count_kary_upto(2, 60)):
        k = table.k
        hx = scaled_from_exact(table, prec30)
        assert mp.almosteq(hx[1], LN2 / (k - 1))
        h = scaled_h_recurrence(k, 60, prec30)
        for n in range(1, 61):
            assert abs(hx[n] - h[n]) <= tol * h[n], (k, n)


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


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize("k, M", [(2, 300), (3, 300), (13, 150)])
def test_scaled_from_exact_is_the_exact_rational_rounded_once(digits, k, M):
    # V (ln 2)^n / (m! (k-1)^m), m = n - offset, evaluated 40 digits finer:
    # the route rounds once, so it sits within a unit or two in the last place
    table = exact.count_binary_upto(M) if k == 2 else count_kary_upto(k, M)
    p = Precision(digits)
    x = scaled_from_exact(table, p)
    with mp.workdps(p.dps):
        rel = mp.mpf(2) ** (1 - mp.mp.prec)
    assert x[0] == 0
    with mp.workdps(p.dps + 40):
        ln2 = mp.ln(2)
        for n in range(1, table.max_index + 1):
            m = n - table.offset
            ref = table.entry(n) * ln2**n / (math.factorial(m) * (k - 1) ** m)
            assert abs(x[n] - ref) <= rel * ref, n


def _scaled_h_per_index(k, N, seed):
    """Reference: the kernel loop that rebuilt its weights and cutoff test at every n."""
    base = mp.ln(2) / (k - 1)
    cutoff = mp.mpf(10) ** (-(mp.mp.dps + 3))
    h = [mp.mpf(0), seed]
    for n in range(2, N + 1):
        acc = mp.mpf(0)
        u = base
        scale = k - 1
        for s in range(1, delta_smax(n, k) + 1):
            if u * scale < cutoff:
                break
            num = math.comb(1 + (n - s) * (k - 1), s)
            acc += u * mp.mpf(num) / math.comb(n, s) * h[n - s]
            u *= base / (s + 1)
            scale *= k - 1
        h.append(acc)
    return h


def _max_rel_error(values, k, N, digits):
    """Largest |v_n / h_n - 1| over n = 1..N against the mpf loop run 40 digits higher."""
    with mp.workdps(Precision(digits + 40).dps):
        finer = _scaled_h_per_index(k, N, mp.ln(2) / (k - 1))
        return max(abs(v / x - 1) for v, x in zip(values[1:], finer[1:]))


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize("k", [2, 3, 13])
def test_scaled_h_matches_the_per_index_loop(k, digits):
    # the fixed-point kernel rounds differently from the mpf loop, so the
    # two agree at D digits and both sit far inside the D-digit ulp
    with mp.workdps(Precision(digits).dps):
        seed = mp.ln(2) / (k - 1)
        fast = asy._scaled_h(k, 400, seed)
        slow = _scaled_h_per_index(k, 400, seed)
    assert len(fast) == len(slow) == 401
    assert [mp.nstr(v, digits) for v in fast] == [mp.nstr(v, digits) for v in slow]
    assert _max_rel_error(fast, k, 400, digits) <= mp.mpf(10) ** -(digits + 12)


@pytest.mark.parametrize("k", [13, 49])
def test_scaled_h_keeps_the_relative_precision_of_small_weights(k):
    # w[s] = (ln 2/(k-1))^s / s! falls like (k-1)^-s while delta_{n,s} can
    # reach (k-1)^s: a fixed-point w[s] loses digits that the product needs
    digits = 30
    with mp.workdps(Precision(digits).dps):
        fast = asy._scaled_h(k, 1000, mp.ln(2) / (k - 1))
    assert _max_rel_error(fast, k, 1000, digits) <= mp.mpf(10) ** -(digits + 12)


@functools.lru_cache(maxsize=None)
def _scaled_h_reference(k, digits):
    with mp.workdps(Precision(digits).dps):
        return _scaled_h_per_index(k, 600, mp.ln(2) / (k - 1))


# k and N are capped (N <= 600, four arities) to keep the mpf reference cheap
@pytest.mark.parametrize("digits", [15, 30])
@given(k=st.sampled_from([2, 3, 13, 49]), N=st.integers(1, 600))
@settings(max_examples=12, deadline=None)
def test_fixed_point_scaled_h_agrees_with_the_mpf_loop(digits, k, N):
    p = Precision(digits)
    reference = _scaled_h_reference(k, digits)
    with mp.workdps(p.dps):
        fast = asy._scaled_h(k, N, mp.ln(2) / (k - 1))
        assert len(fast) == N + 1
        for n, (v, x) in enumerate(zip(fast, reference)):
            assert abs(v - x) <= p.tolerance() * x, n


def _scaled_h_per_term(k, N, seed):
    """Reference: the fixed-point kernel with fresh binomials for every term."""
    fx = asy._Fixed()
    c = k - 1
    weights = [fx.of(ws * c ** s) for s, ws in enumerate(asy._weights(k))]
    scales = [c ** s << fx.bits for s in range(len(weights))]
    h = [0, fx.of(seed)]
    for n in range(2, N + 1):
        acc = 0
        for s in range(1, min(exact.kary_smax(n, k) + 1, len(weights))):
            b = math.comb(1 + (n - s) * (k - 1), s)
            acc += weights[s] * h[n - s] * b // (math.comb(n, s) * scales[s])
        h.append(acc)
    return [fx.to_mpf(v) for v in h]


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize("k", [2, 3, 13, 49, 10**6])
def test_stepped_scaled_h_equals_the_per_term_sum(k, digits):
    # the stepped binomials give every summand the same integer, so the
    # values are equal, not merely close
    with mp.workdps(Precision(digits).dps):
        seed = mp.ln(2) / (k - 1)
        reference = _scaled_h_per_term(k, 300, seed)
        for N in (1, 2, 3, 4, 57, 300):
            assert asy._scaled_h(k, N, seed) == reference[: N + 1], N


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


def test_h_requires_k2():
    with pytest.raises(ValueError, match="^arity must be >= 2$"):
        scaled_h_recurrence(1, 10)


@pytest.mark.parametrize("kind, k, message", [
    ("b", 3, "kind 'b' sequences are binary"),
    ("a", 13, "kind 'a' sequences are binary"),
    ("h", 1, "arity must be >= 2"),
    ("b", 0, "arity must be >= 2"),
])
def test_scaled_sequence_checks_its_arity(kind, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        asy.ScaledSequence(kind, k, (mp.mpf(0),), Precision(15))


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
    est = estimate_eta_extrapolation(bseq1200)
    assert est.method == "extrapolation"
    assert abs(est.value - mp.mpf("0.647852")) <= 1e-3
    assert est.error <= 1e-6


def test_eta_insufficient_range(prec30):
    with pytest.raises(ValueError, match=">= 1000"):
        estimate_eta_extrapolation(scaled_b_recurrence(800, prec30))


def test_second_order_residual_bounded(bseq1200):
    est = estimate_eta_extrapolation(bseq1200)
    worst = max(
        asy.second_order_residual(bseq1200, est.value, n) for n in range(100, 1001)
    )
    assert worst <= 0.005  # frozen bring-up bound (measured ~0.0039)


def test_prefactor_limit_matches_closed_form(prec30):
    limit = asy.g_regular(1, prec30)
    closed = asy.asymptotic_prefactor(prec30)
    assert abs(limit - closed) <= mp.mpf(10) ** -25 * closed
    assert asy.g_regular(0, prec30) == 1


# w = 1 - t in [0, 1]; tiny floats reach w < 1e-40, where 1 - w rounds to 1
unit_w = st.one_of(st.floats(0, 1), st.floats(0, 1e-40))


@pytest.mark.parametrize("digits", [15, 30])
@given(w=unit_w)
@example(w=0.0)
@example(w=1.0)
@example(w=1e-45)
@settings(max_examples=15, deadline=None)
def test_closed_form_g_reg_matches_the_phi_reg_quadrature(digits, w):
    p = Precision(digits)
    with mp.workdps(p.dps):
        w = mp.mpf(w)
        closed = mp.exp(-asy._neg_log_g_reg(w, asy._expm1_ratio(w)))
        reference = mp.exp(-mp.quad(asy._phi_reg, [0, 1 - w]))
        assert abs(closed - reference) <= p.tolerance() * reference


def test_g_regular_refuses_t_outside_the_unit_interval(prec30):
    for t in (-0.5, 1.5, 2, mp.mpf("1.0000001"), mp.nan):
        with pytest.raises(ValueError, match=r"^g_regular needs t in \[0, 1\], got t = "):
            asy.g_regular(t, prec30)
    assert asy.g_regular("0.5", prec30) > 0


def _li2_reference(w):
    """Li2(1 - 2^-w) by mpmath's polylog, 20 digits finer, on an exact argument."""
    with mp.workdps(mp.mp.dps + 20):
        return +mp.polylog(2, -mp.expm1(-mp.mpf(w) * mp.ln(2)))


@pytest.mark.parametrize("digits", [15, 30])
@given(w=unit_w)
@example(w=0.0)
@example(w=1.0)
@example(w=1e-45)
@settings(max_examples=30, deadline=None)
def test_fixed_point_li2_matches_the_polylog(digits, w):
    with mp.workdps(Precision(digits).dps):
        w = mp.mpf(w)
        value = asy._li2_one_minus_pow2(w)
        reference = _li2_reference(w)
        assert abs(value - reference) <= mp.mpf(10) ** -(digits + 10) * reference
        if w == 0:
            assert value == 0


@pytest.mark.parametrize("digits", [15, 30, 330])
def test_li2_coefficients_are_the_floored_bernoulli_ratios(digits):
    with mp.workdps(Precision(digits).dps):
        bits = asy._Fixed().bits
        coeffs = asy._li2_coefficients(bits)
    expected = []
    for n in range(len(coeffs)):
        p, q = mp.bernfrac(n)
        expected.append((p << bits) // (q * math.factorial(n + 1)))
    assert coeffs == expected[::-1]


def test_fixed_point_li2_past_1024_bits():
    # at D = 330 the fixed-point width exceeds 1024 bits, beyond a float's range
    digits = 330
    with mp.workdps(Precision(digits).dps):
        assert asy._Fixed().bits > 1024
        for w in ("1e-45", "0.3", "1"):
            w = mp.mpf(w)
            reference = _li2_reference(w)
            error = abs(asy._li2_one_minus_pow2(w) - reference)
            assert error <= mp.mpf(10) ** -(digits + 10) * reference, w


@functools.lru_cache(maxsize=None)
def _correction_sequence(digits):
    p = Precision(digits)
    return correction_a(400, scaled_b_recurrence(400, p))


def _correction_a_mpf(N, b):
    """Reference: the mpf correction sequence with an exact-rational bracket."""
    w = asy._weights(2)
    a = [mp.mpf(0)] * (N + 1)
    for n in range(3, N + 1):
        acc = mp.mpf(0)
        for l in range(1, min(n // 2 + 1, len(w))):
            bracket = gamma_exact(n, l) - 1 + Fraction(l * (l - 1), n)
            acc += w[l] * (mp.mpf(bracket.numerator) / bracket.denominator) * b[n - l]
        for l in range(n // 2 + 1, min(n - 1, len(w))):
            acc -= w[l] * (1 - mp.mpf(l * (l - 1)) / n) * b[n - l]
        a[n] = acc
    return a


@functools.lru_cache(maxsize=None)
def _correction_reference(digits):
    p = Precision(digits)
    b = scaled_b_recurrence(600, p)
    with mp.workdps(p.dps):
        return b, _correction_a_mpf(600, b)


def _correction_a_per_term(N, b):
    """Reference: the fixed-point correction sequence with fresh binomials for every term."""
    fx = asy._Fixed()
    w = [fx.of(x) for x in asy._weights(2)]
    bf = [fx.of(x) for x in b.values[: N + 1]]
    a = [0] * (N + 1)
    for n in range(3, N + 1):
        acc = 0
        for l in range(1, min(n // 2 + 1, len(w))):
            g = math.comb(n - l, l)
            c = math.comb(n - 1, l)
            num = n * (g - c) + l * (l - 1) * c
            acc += w[l] * bf[n - l] * num // (n * c << fx.bits)
        for l in range(n // 2 + 1, min(n - 1, len(w))):
            acc -= w[l] * bf[n - l] * (n - l * (l - 1)) // (n << fx.bits)
        a[n] = acc
    return [fx.to_mpf(v) for v in a]


@pytest.mark.parametrize("digits", [15, 30])
def test_stepped_correction_a_equals_the_per_term_sum(digits):
    b = scaled_b_recurrence(300, Precision(digits))
    with mp.workdps(b.precision.dps):
        reference = _correction_a_per_term(300, b)
    for N in (3, 4, 5, 57, 300):
        assert list(correction_a(N, b).values) == reference[: N + 1], N


# N is capped at 600 to keep the mpf reference cheap
@pytest.mark.parametrize("digits", [15, 30])
@given(N=st.integers(3, 600))
@settings(max_examples=12, deadline=None)
def test_fixed_point_correction_a_agrees_with_the_mpf_loop(digits, N):
    b, reference = _correction_reference(digits)
    p = b.precision
    a = correction_a(N, b)
    assert a.max_index == N
    with mp.workdps(p.dps):
        for n, (v, x) in enumerate(zip(a.values, reference)):
            assert abs(v - x) <= p.tolerance() * abs(x), n


@pytest.mark.parametrize("digits", [15, 30])
@given(w=unit_w)
@example(w=0.0)
@example(w=1.0)
@example(w=1e-45)
@settings(max_examples=40, deadline=None)
def test_fixed_point_w_prime_matches_the_mpf_horner_sum(digits, w):
    a = _correction_sequence(digits)
    p = a.precision
    with mp.workdps(p.dps):
        w = mp.mpf(w)
        t = 1 - w
        acc = mp.mpf(0)
        for n in range(a.max_index, 3, -1):
            acc = acc * t + n * a[n]
        reference = acc * t ** 3 + 2 * mp.ln(2) ** 2 * t
        assert abs(asy._w_prime(a)(w) - reference) <= p.tolerance() * abs(reference)


def test_eta_integral_route_agrees(bseq1200):
    p = Precision(15)  # quadrature tolerance far below the 1% target
    est_int = estimate_eta_integral(correction_a(1200, scaled_b_recurrence(1200, p)))
    est_ext = estimate_eta_extrapolation(bseq1200)
    assert est_int.method == "integral"
    assert abs(est_int.value - est_ext.value) <= mp.mpf("0.01") * est_ext.value
    assert est_int.error < mp.mpf("0.01")


def _prefix(seq, N):
    """seq truncated at index N: every kernel value is independent of the length."""
    return asy.ScaledSequence(seq.kind, seq.k, seq.values[: N + 1], seq.precision)


@functools.lru_cache(maxsize=None)
def _scaled_b(N, digits):
    return scaled_b_recurrence(N, Precision(digits))


@pytest.mark.parametrize("route, N", [
    ("extrapolation", 1000), ("extrapolation", 2000), ("extrapolation", 4000),
    ("integral", 300), ("integral", 600), ("integral", 1200),
])
def test_eta_error_bars_cover_the_distance_to_the_reference(route, N):
    # each bar covers the distance to extrapolation at N = 8000, D = 30,
    # with that reference's own bar added
    ref = estimate_eta_extrapolation(_scaled_b(8000, 30))
    if route == "extrapolation":
        est = estimate_eta_extrapolation(_prefix(_scaled_b(8000, 30), N))
    else:
        est = estimate_eta_integral(correction_a(N, _scaled_b(1200, 15)))
    assert est.method == route and est.n_used == N
    with mp.workdps(Precision(30).dps):
        assert abs(est.value - ref.value) + ref.error <= est.error


@pytest.mark.parametrize("k, N", [(2, 300), (2, 600), (2, 1200), (3, 150), (3, 300)])
def test_alpha_error_bars_cover_the_distance_to_the_closed_form(k, N):
    # the limit is (k-1)/ln 2; each table is a slice of one memoized build
    est = estimate_alpha(exact.count_binary_upto(N) if k == 2 else count_kary_upto(k, N))
    assert est.n_used == N
    with mp.workdps(Precision(30).dps):
        assert abs(est.value - (k - 1) / mp.ln(2)) <= est.error


@functools.lru_cache(maxsize=None)
def _scaled_h3(N):
    return scaled_h_recurrence(3, N, Precision(30))


@pytest.mark.parametrize("N", [2000, 3000])
def test_kary_exponent_error_bars_cover_the_distance_to_the_closed_form(N, hseq3_2000):
    h = hseq3_2000 if N == 2000 else _scaled_h3(N)
    est = estimate_kary_exponent(h)
    assert est.n_used == N
    with mp.workdps(h.precision.dps):
        assert abs(est.value - kary_exponent_target(3, h.precision)) <= est.error


def test_eta_integral_rejects_short_sequences():
    # long enough for the size floor, but a_n ~ n^-2 decays too slowly for
    # its truncation tail to meet the target accuracy
    p = Precision(15)
    with mp.workdps(p.dps):
        values = tuple(mp.mpf(n) ** -2 if n >= 3 else mp.mpf(0) for n in range(301))
    a = asy.ScaledSequence("a", 2, values, p)
    with pytest.raises(RuntimeError, match="extend the sequence"):
        estimate_eta_integral(a)


def test_eta_integral_names_its_size_floor(bseq1200):
    a = correction_a(120, bseq1200)
    with pytest.raises(ValueError, match=r"needs the correction sequence up to n >= 200, got 120$"):
        estimate_eta_integral(a)


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
    est = estimate_eta_extrapolation(hseq3_2000)
    assert (est.kind, est.method, est.n_used, est.k) == ("eta_k", "extrapolation", 2000, 3)
    assert est.value > 0
    # the constant has settled: the order-1 and order-2 fits agree closely
    assert est.error <= mp.mpf("1e-7") * est.value


def test_eta_refuses_a_correction_sequence(aseq1200):
    with pytest.raises(ValueError, match="kind-'b' or kind-'h'"):
        estimate_eta_extrapolation(aseq1200)


@functools.lru_cache(maxsize=None)
def _scaled_h(k, N, digits):
    return scaled_h_recurrence(k, N, Precision(digits))


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize("k", [3, 13, 49])
def test_kary_constant_error_bars_cover_the_distance_to_longer_runs(k, digits):
    # the bar at N = 1000 covers the distance to the same estimator at 2N,
    # 4N and 8N (D = 30), with that reference's own bar added
    est = estimate_eta_extrapolation(_scaled_h(k, 1000, digits))
    assert (est.kind, est.n_used, est.k, est.digits) == ("eta_k", 1000, k, digits)
    h = _scaled_h(k, 8000, 30)
    for N in (2000, 4000, 8000):
        ref = estimate_eta_extrapolation(_prefix(h, N))
        with mp.workdps(h.precision.dps):
            assert abs(est.value - ref.value) + ref.error <= est.error, N


@pytest.mark.parametrize("N", [1000, 2000])
def test_binary_eta_is_ln2_times_the_k2_constant(N, prec30):
    # b_n = ln 2 h_{n-1} at k = 2, so eta = ln 2 K within the two bars
    eta = estimate_eta_extrapolation(_scaled_b(N, 30))
    K = estimate_eta_extrapolation(_scaled_h(2, N, 30))
    assert (eta.kind, K.kind, K.k) == ("eta", "eta_k", 2)
    with mp.workdps(prec30.dps):
        ln2 = mp.ln(2)
        assert abs(eta.value - ln2 * K.value) <= eta.error + ln2 * K.error


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
