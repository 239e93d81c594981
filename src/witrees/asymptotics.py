"""Scaled sequences and numerical routes to the asymptotic constants.

The exact counts grow superexponentially (B_n >= (n-1)! already), so all
asymptotic work happens on scaled sequences with at most polynomial decay:

* arity k: h_m = H_m * (ln 2)^m / ((k-1)^m * m!), decaying like a power of m
  with the irrational exponent (2 - k ln 2) / (2(k-1)) - 1,
* binary:  b_n = B_n * (ln 2)^n / (n-1)!   with  b_n -> eta * n^{-ln 2}.

The binary sequence is the k = 2 view: B_n = H_{n-1} gives
b_n = ln 2 * h_{n-1}, and the exponent is -ln 2 at k = 2.  One kernel
evaluates the scaled recurrence

    h_m = sum_s ((ln 2 / (k-1))^s / s!) * delta_{m,s} * h_{m-s},
    delta_{m,s} = C(1+(m-s)(k-1), s) / C(m, s) = gamma(m+1, s) at k = 2,

whose summands are nonnegative, to essentially full working precision;
``scaled_from_exact`` is the independent log-domain route from an exact
count table.  gamma, a_n and the integral route stay binary.

Three estimators are provided for the constants:

* ``estimate_alpha``: accelerated ratio estimate of the exponential growth
  factor (1/ln 2 for binary, (k-1)/ln 2 for the k-ary table);
* ``estimate_eta_extrapolation``: extrapolates b_n * n^{ln 2} with the
  known first-order 1 + ln(2)/(2n) correction divided out;
* ``estimate_eta_integral``: independently recovers eta from the
  first-order linear ODE satisfied by the generating function b(z) of the
  scaled sequence, via variation of constants and numerical quadrature.

For the integral route, write w(z) for the correction series: the defect
between b(z) and the smoothed form of its own recurrence, *including* the
z^2 seed term of the recurrence (the elementwise correction sequence a_n
is defined for n >= 3 only, so w'(t) = a'(t) + 2 (ln 2)^2 t).  Then

    (2 - 2^z) b'(z) + ln(2) (z ln 2 - 1) 2^z b(z) = w'(z),

    b(z) = g(z) * Int_0^z w'(t) / ((2 - 2^t) g(t)) dt,

with g the homogeneous solution normalized to g(0) = 1.  Near z = 1 the
solution behaves like beta * (1-z)^{-(1 - ln 2)}, and a Tauberian transfer
gives eta = beta / Gamma(1 - ln 2).  The integrand's endpoint singularity
(1-t)^{-ln 2} is removed by the substitution t = 1 - u^{1/(1 - ln 2)}, and
g is evaluated through its regular part

    g(t) = (1-t)^{ln 2 - 1} * g_reg(t),
    g_reg(t) = exp(-Int_0^t phi_reg(s) ds),

where phi_reg is the integrand of log g with its simple pole at s = 1
subtracted analytically (so g_reg extends continuously to t = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

# largest admissible second index of delta_{n,s}: n - ceil((n-1)/k)
from .exact import kary_smax as delta_smax

#: Exponential growth factor of B_n / n! for binary trees, 1 / ln 2.
ALPHA = 1.4426950408889634

#: Number of Bernoulli terms in the log-gamma Stirling series (see README).
_LOG_GAMMA_TERMS = 26


@dataclass(frozen=True)
class Precision:
    """Working precision: decimal digits, with derived comparison tolerance.

    Computations run with 15 guard digits; two quantities are considered
    equal at this precision when they agree to a relative 10^-(digits-10).
    """

    digits: int = 30

    def __post_init__(self) -> None:
        if self.digits < 15:
            raise ValueError("precision must be at least 15 digits")

    @property
    def dps(self) -> int:
        """Internal mpmath working digits (guard digits included)."""
        return self.digits + 15

    def tolerance(self) -> mp.mpf:
        """Relative comparison tolerance 10^-(digits-10)."""
        with mp.workdps(self.dps):
            return mp.mpf(10) ** (-(self.digits - 10))


@dataclass(frozen=True)
class ScaledSequence:
    """Extended-precision scaled sequence of kind 'b', 'h' or 'a'."""

    kind: str  # "b" | "h" | "a"
    k: int
    values: tuple
    precision: Precision

    def __post_init__(self) -> None:
        if self.kind not in ("b", "h", "a"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> mp.mpf:
        if not 0 <= n <= self.max_index:
            raise ValueError(f"index {n} outside computed range 0..{self.max_index}")
        return self.values[n]

    def csv_rows(self, digits: Optional[int] = None):
        """Yield 'n,value' rows at full working precision."""
        d = digits if digits is not None else self.precision.digits
        for n, v in enumerate(self.values):
            yield f"{n},{mp.nstr(v, d)}"


@dataclass(frozen=True)
class AsymptoticEstimate:
    """A constant estimate with method tag and error bar."""

    kind: str  # "alpha" | "eta" | "eta_k" | "exponent"
    value: mp.mpf
    error: mp.mpf
    method: str  # "ratio" | "extrapolation" | "integral" | "slope-fit"
    n_used: int
    k: int
    digits: int

    def __post_init__(self) -> None:
        if not (self.error >= 0 and mp.isfinite(self.value)):
            raise ValueError("estimate must be finite with a nonnegative error bar")

    def record(self) -> str:
        """Single-line export: ``kind,value,error,method,N,k,D``."""
        return (
            f"{self.kind},{mp.nstr(self.value, self.digits)},"
            f"{mp.nstr(self.error, 3)},{self.method},{self.n_used},{self.k},{self.digits}"
        )


# --------------------------------------------------------------------------
# Elementary coefficient families
# --------------------------------------------------------------------------


def gamma_exact(n: int, l: int) -> Fraction:
    """gamma(n, l) = C(n-l, l) / C(n-1, l) as an exact rational."""
    if n < 2 or not 1 <= l <= n // 2:
        raise ValueError(f"gamma requires n >= 2 and 1 <= l <= n//2, got ({n}, {l})")
    return Fraction(math.comb(n - l, l), math.comb(n - 1, l))


def gamma_coeff(n: int, l: int, precision: Precision = Precision()) -> mp.mpf:
    """Ratio of falling factorials weighting the scaled binary recurrence.

    Equals ((n-l)(n-l-1)...(n-2l+1)) / ((n-1)(n-2)...(n-l)); evaluated from
    an exact integer ratio, so no factorial overflow and no cancellation.
    """
    g = gamma_exact(n, l)
    with mp.workdps(precision.dps):
        return mp.mpf(g.numerator) / g.denominator


def delta_exact(k: int, n: int, s: int) -> Fraction:
    """delta_{n,s} = C(1+(n-s)(k-1), s) / C(n, s) as an exact rational."""
    if k < 3:
        raise ValueError("delta is defined for arity >= 3")
    if n < 1 or not 1 <= s <= delta_smax(n, k):
        raise ValueError(
            f"delta requires 1 <= s <= {delta_smax(n, k)} for n={n}, got s={s}"
        )
    return Fraction(math.comb(1 + (n - s) * (k - 1), s), math.comb(n, s))


def delta_coeff(k: int, n: int, s: int, precision: Precision = Precision()) -> mp.mpf:
    """Falling-factorial ratio weighting the scaled k-ary recurrence.

    Equals (1+(n-s)(k-1))! (n-s)! / ((1+(n-s)(k-1)-s)! n!), evaluated as a
    ratio of two binomials so that no full factorial is ever formed.
    """
    d = delta_exact(k, n, s)
    with mp.workdps(precision.dps):
        return mp.mpf(d.numerator) / d.denominator


# --------------------------------------------------------------------------
# log-gamma (fixed, reproducible algorithm; see README)
# --------------------------------------------------------------------------


def log_gamma(x, precision: Precision = Precision()) -> mp.mpf:
    """ln Gamma(x) for x > 0 by a Stirling series with fixed term count.

    Uses the asymptotic series with ``_LOG_GAMMA_TERMS`` Bernoulli terms
    after shifting the argument up to max(40, working digits) through the
    recurrence ln Gamma(x) = ln Gamma(x+1) - ln x.  The fixed algorithm
    keeps dual-route comparisons reproducible across environments.
    """
    with mp.workdps(precision.dps):
        return _log_gamma(mp.mpf(x))


def _log_gamma(x: mp.mpf) -> mp.mpf:
    if x <= 0:
        raise ValueError("log_gamma requires a positive argument")
    threshold = max(40, mp.mp.dps)
    shift = 0 if x >= threshold else int(mp.ceil(threshold - x))
    y = x + shift
    s = (y - mp.mpf(1) / 2) * mp.log(y) - y + mp.log(2 * mp.pi) / 2
    y2 = y * y
    ypow = y
    for j in range(1, _LOG_GAMMA_TERMS + 1):
        s += mp.bernoulli(2 * j) / ((2 * j) * (2 * j - 1) * ypow)
        ypow *= y2
    for i in range(shift):
        s -= mp.log(x + i)
    return s


# --------------------------------------------------------------------------
# Scaled sequences
# --------------------------------------------------------------------------


def _term_cutoff() -> mp.mpf:
    # summands below this are beyond the working ulp of every partial sum
    # of interest (all sums here are O(1) and bounded below by ~n^-1)
    return mp.mpf(10) ** (-(mp.mp.dps + 3))


def scaled_b_recurrence(N: int, precision: Precision = Precision()) -> ScaledSequence:
    """b_2..b_N seeded with b_2 = (ln 2)^2: the k = 2 kernel, b_n = ln 2 h_{n-1}.

    All summands are nonnegative, so the relative error is O(N ulp).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    with mp.workdps(precision.dps):
        b = (mp.mpf(0), *_scaled_h(2, N - 1, mp.ln(2) ** 2))
        return ScaledSequence("b", 2, b, precision)


def scaled_from_exact(table, precision: Precision = Precision()) -> ScaledSequence:
    """Scale an exact count table in the log domain.

    For a k-ary H-table this yields h_m = H_m (ln 2)^m / ((k-1)^m m!); for
    the binary view (index n = m + 1), b_n = B_n (ln 2)^n / (n-1)!.  Values
    are computed as exp(ln V + n ln ln 2 - ...) so that no factorial-sized
    number is formed.
    """
    with mp.workdps(precision.dps):
        lnln2 = mp.log(mp.ln(2))
        lnk1 = mp.log(table.k - 1)
        values = [mp.mpf(0)] * (table.max_index + 1)
        for n in range(1, table.max_index + 1):
            v = table.entry(n)
            if v:
                m = n - table.offset
                values[n] = mp.exp(
                    mp.log(mp.mpf(v)) + n * lnln2 - m * lnk1 - _log_gamma(mp.mpf(m + 1))
                )
        return ScaledSequence("b" if table.offset else "h", table.k, tuple(values), precision)


def correction_a(N: int, b: ScaledSequence) -> ScaledSequence:
    """Correction sequence a_n: the defect of the smoothed scaled recurrence.

    For n >= 3,

        a_n =   sum_{l <= n/2} ((ln 2)^l / l!) (gamma(n,l) - 1 + l(l-1)/n) b_{n-l}
              - sum_{l > n/2}  ((ln 2)^l / l!) (1 - l(l-1)/n) b_{n-l},

    so that b_n = a_n + sum_{l=1}^{n} ((ln 2)^l / l!) (1 - l(l-1)/n) b_{n-l}
    holds identically for n >= 3 (the recurrence defining b is seeded at
    n = 2, so the identity starts at 3 and a_2 = 0).  The bracket
    gamma - 1 + l(l-1)/n is O(l^4 / n^2) and is evaluated in exact rational
    arithmetic to avoid cancellation; a_n itself decays like n^{-2-ln 2}.
    """
    if b.kind != "b":
        raise ValueError("correction_a expects a kind-'b' sequence")
    if N > b.max_index:
        raise ValueError(f"b covers only 0..{b.max_index}, need {N}")
    precision = b.precision
    with mp.workdps(precision.dps):
        ln2 = mp.ln(2)
        ln_ln2 = math.log(math.log(2.0))
        cutoff = _term_cutoff()
        ln_cutoff = math.log(10.0) * (-(mp.mp.dps + 3))
        a = [mp.mpf(0)] * (N + 1)
        for n in range(3, N + 1):
            acc = mp.mpf(0)
            w = ln2
            for l in range(1, n // 2 + 1):
                if w < cutoff:
                    break
                if n - l >= 2:
                    bracket = (
                        Fraction(math.comb(n - l, l), math.comb(n - 1, l))
                        - 1
                        + Fraction(l * (l - 1), n)
                    )
                    acc += w * (mp.mpf(bracket.numerator) / bracket.denominator) * b[n - l]
                w *= ln2 / (l + 1)
            l0 = n // 2 + 1
            # skip the l > n/2 block once its leading weight is below cutoff
            if l0 * ln_ln2 - math.lgamma(l0 + 1) > ln_cutoff:
                w = mp.power(ln2, l0) / mp.factorial(l0)
                for l in range(l0, n - 1):
                    if w < cutoff:
                        break
                    acc -= w * (1 - mp.mpf(l * (l - 1)) / n) * b[n - l]
                    w *= ln2 / (l + 1)
            a[n] = acc
        return ScaledSequence("a", 2, tuple(a), precision)


def an_identity_residual(b: ScaledSequence, a: ScaledSequence, n: int) -> mp.mpf:
    """|b_n - a_n - sum_{l=1}^n ((ln 2)^l / l!)(1 - l(l-1)/n) b_{n-l}|, n >= 3."""
    if n < 3:
        raise ValueError("the smoothed identity holds for n >= 3")
    with mp.workdps(b.precision.dps):
        ln2 = mp.ln(2)
        cutoff = _term_cutoff()
        s = mp.mpf(0)
        w = ln2
        for l in range(1, n + 1):
            if w < cutoff:
                break
            if n - l >= 2:
                s += w * (1 - mp.mpf(l * (l - 1)) / n) * b[n - l]
            w *= ln2 / (l + 1)
        return abs(b[n] - a[n] - s)


def _scaled_h(k: int, N: int, seed: mp.mpf) -> list:
    """h_0..h_N of the scaled k-ary recurrence with h_1 = ``seed`` (N >= 1).

    h_n = sum_s ((ln 2/(k-1))^s / s!) delta_{n,s} h_{n-s}; since
    delta_{n,s} <= (k-1)^s the terms decay at least like (ln 2)^s / s!, and
    the inner sum stops once that bound drops below the working epsilon.
    Runs at the caller's working precision.
    """
    ln2 = mp.ln(2)
    base = ln2 / (k - 1)
    cutoff = _term_cutoff()
    h = [mp.mpf(0), seed]
    for n in range(2, N + 1):
        acc = mp.mpf(0)
        u = base  # (ln2/(k-1))^s / s!
        scale = k - 1  # (k-1)^s, so u*scale bounds the term weight
        for s in range(1, delta_smax(n, k) + 1):
            if u * scale < cutoff:
                break
            if n - s >= 1:
                num = math.comb(1 + (n - s) * (k - 1), s)
                acc += u * mp.mpf(num) / math.comb(n, s) * h[n - s]
            u *= base / (s + 1)
            scale *= k - 1
        h.append(acc)
    return h


def scaled_h_recurrence(
    k: int, N: int, precision: Precision = Precision()
) -> ScaledSequence:
    """h_1..h_N for arity k >= 3, seeded with h_1 = ln(2)/(k-1)."""
    if k < 3:
        raise ValueError("scaled_h_recurrence requires arity >= 3")
    if N < 1:
        raise ValueError("N must be >= 1")
    with mp.workdps(precision.dps):
        h = _scaled_h(k, N, mp.ln(2) / (k - 1))
        return ScaledSequence("h", k, tuple(h), precision)


# --------------------------------------------------------------------------
# Constant estimators
# --------------------------------------------------------------------------


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    ys = list(ys)
    m = len(xs)
    for level in range(1, m):
        for i in range(m - level):
            ys[i] = (xs[i] * ys[i + 1] - xs[i + level] * ys[i]) / (xs[i] - xs[i + level])
    return ys[0]


def estimate_alpha(
    table, precision: Precision = Precision(), window: int = 6
) -> AsymptoticEstimate:
    """Accelerated ratio estimate of the exponential growth factor.

    The raw ratio V_n / (n V_{n-1}) converges like alpha (1 - c/n); the last
    ``window`` ratios are evaluated in the log domain and extrapolated to
    n = infinity by polynomial extrapolation in 1/n.  The error bar is the
    change from dropping the oldest point.  Converges to 1/ln 2 on a binary
    table and to (k-1)/ln 2 on a k-ary H-table.
    """
    N = table.max_index
    if N < 100:
        raise ValueError(
            f"ratio estimation needs a table up to at least 100, got {N}"
        )
    with mp.workdps(precision.dps):
        ns = list(range(N - window + 1, N + 1))
        ratios = [
            mp.exp(
                mp.log(mp.mpf(table.entry(n)))
                - mp.log(mp.mpf(table.entry(n - 1)))
                - mp.log(n)
            )
            for n in ns
        ]
        xs = [mp.mpf(1) / n for n in ns]
        full = _neville_at_zero(xs, ratios)
        dropped = _neville_at_zero(xs[1:], ratios[1:])
        return AsymptoticEstimate(
            "alpha", full, abs(full - dropped), "ratio", N, table.k, precision.digits
        )


def eta_refined(b: ScaledSequence, n: int) -> mp.mpf:
    """b_n n^{ln 2} with the first-order 1 + ln(2)/(2n) correction removed."""
    with mp.workdps(b.precision.dps):
        ln2 = mp.ln(2)
        return b[n] * mp.mpf(n) ** ln2 / (1 + ln2 / (2 * n))


def estimate_eta_extrapolation(
    b: ScaledSequence, N: Optional[int] = None
) -> AsymptoticEstimate:
    """Limit constant of b_n n^{ln 2} by order-2 extrapolation.

    After dividing out the first-order correction the residual is O(n^-2);
    degree-2 polynomial extrapolation in 1/n over n = N/4, N/2, N removes
    it to O(n^-3).  The error bar is the distance to the order-1 result.
    """
    if b.kind != "b":
        raise ValueError("eta is estimated from a kind-'b' sequence")
    N = b.max_index if N is None else N
    if N > b.max_index:
        raise ValueError(f"b covers only 0..{b.max_index}, need {N}")
    if N < 1000:
        raise ValueError("eta extrapolation needs N >= 1000")
    with mp.workdps(b.precision.dps):
        pts = [N // 4, N // 2, N]
        xs = [mp.mpf(1) / p for p in pts]
        ys = [eta_refined(b, p) for p in pts]
        order2 = _neville_at_zero(xs, ys)
        order1 = _neville_at_zero(xs[1:], ys[1:])
        return AsymptoticEstimate(
            "eta", order2, abs(order2 - order1), "extrapolation", N, 2,
            b.precision.digits,
        )


def second_order_residual(b: ScaledSequence, eta, n: int) -> mp.mpf:
    """n^2 |b_n n^{ln 2} / eta - 1 - ln(2)/(2n)|: the O(n^-2) remainder."""
    with mp.workdps(b.precision.dps):
        ln2 = mp.ln(2)
        return n * n * abs(b[n] * mp.mpf(n) ** ln2 / eta - 1 - ln2 / (2 * n))


# ----- integral route -----------------------------------------------------


def _expm1_ratio(w: mp.mpf) -> mp.mpf:
    """E(w) = (1 - 2^-w) / (w ln 2), the slope ratio of 2 - 2^t at t = 1-w."""
    if w == 0:
        return mp.mpf(1)
    return -mp.expm1(-w * mp.ln(2)) / (w * mp.ln(2))


def _phi_reg(s: mp.mpf) -> mp.mpf:
    """Regularized log-derivative integrand of the homogeneous solution.

    phi(s) = ln(2) (s ln 2 - 1) 2^s / (2 - 2^s) has a simple pole with
    residue -(1 - ln 2) at s = 1; phi_reg(s) = phi(s) + (1 - ln 2)/(1 - s)
    extends continuously.  Near s = 1 the subtraction is performed through
    the series of T(w) = (2^-w - E(w))/w to avoid cancellation.
    """
    ln2 = mp.ln(2)
    w = 1 - s
    if abs(w) > mp.mpf(1) / 16:
        phi = ln2 * (s * ln2 - 1) * mp.power(2, s) / (2 - mp.power(2, s))
        return phi + (1 - ln2) / w
    ew = _expm1_ratio(w)
    # T(w) = sum_{j>=1} j (-ln2)^j w^{j-1} / (j+1)!
    t_sum = mp.mpf(0)
    term = -ln2 / 2
    j = 1
    eps = mp.mpf(10) ** (-(mp.mp.dps + 5))
    while abs(term) > eps:
        t_sum += term
        j += 1
        term *= (-ln2) * w * j / ((j + 1) * (j - 1))
    return (ln2 - 1) * t_sum / ew - ln2 * mp.power(2, -w) / ew


def g_regular(t, precision: Precision = Precision()) -> mp.mpf:
    """Regular part of the homogeneous solution: g(t) (1-t)^{1 - ln 2}.

    Continuous on [0, 1] with g_regular(0) = 1; its value at 1 is the
    closed-form prefactor returned by ``asymptotic_prefactor``.
    """
    with mp.workdps(precision.dps):
        if t == 0:
            return mp.mpf(1)
        return mp.exp(-mp.quad(_phi_reg, [0, t]))


def asymptotic_prefactor(precision: Precision = Precision()) -> mp.mpf:
    """Closed form of lim_{t->1} g_regular: e^{pi^2/12} alpha^{1-ln 2} / 2^{1-ln(2)/2}."""
    with mp.workdps(precision.dps):
        ln2 = mp.ln(2)
        alpha = 1 / ln2
        return mp.exp(mp.pi ** 2 / 12) * alpha ** (1 - ln2) / mp.power(2, 1 - ln2 / 2)


def estimate_eta_integral(
    a: ScaledSequence, precision: Optional[Precision] = None
) -> AsymptoticEstimate:
    """eta through the ODE route: quadrature against the correction series.

    Evaluates beta = prefactor * Int_0^1 w'(t) / ((2 - 2^t) g(t)) dt with
    w'(t) = 2 (ln 2)^2 t + sum_{n>=4} n a_n t^{n-1} and returns
    eta = beta / Gamma(1 - ln 2).  The series is truncated at the length of
    ``a``; the truncation error is bounded through the fitted envelope
    |a_n| <= C n^{-2-ln 2} and folded into the error bar.  Raises when the
    supplied correction sequence is too short for a sub-percent bound, or
    when the quadrature does not converge.
    """
    if a.kind != "a":
        raise ValueError("the integral route consumes a correction sequence")
    precision = a.precision if precision is None else precision
    N = a.max_index
    if N < 100:
        raise ValueError("correction sequence too short (need a few hundred terms)")
    with mp.workdps(precision.dps):
        ln2 = mp.ln(2)
        omega = 1 - ln2

        # tail bound: sum_{n>N} n |a_n| <= C N^{-ln 2} / ln 2 under the envelope
        env = mp.mpf(0)
        for n in range(max(4, N // 2), N + 1):
            env = max(env, mp.mpf(n) ** (2 + ln2) * abs(a[n]))
        tail = mp.mpf("1.5") * env * mp.mpf(N) ** (-ln2) / ln2
        if tail > mp.mpf("0.002"):
            raise RuntimeError(
                f"correction series truncation error bound {mp.nstr(tail, 3)} "
                "exceeds the target accuracy; extend the sequence"
            )

        coeffs = [(n, n * a[n]) for n in range(4, N + 1)]
        b2_twice = 2 * ln2 ** 2

        def w_prime(t: mp.mpf) -> mp.mpf:
            acc = mp.mpf(0)
            tp = t ** 3
            for _, c in coeffs:
                acc += c * tp
                tp *= t
            return acc + b2_twice * t

        g_cache: dict = {}

        def g_reg(t: mp.mpf) -> mp.mpf:
            v = g_cache.get(t)
            if v is None:
                v = mp.exp(-mp.quad(_phi_reg, [0, t]))
                g_cache[t] = v
            return v

        def integrand(u: mp.mpf) -> mp.mpf:
            # t = 1 - u^{1/omega} flattens the (1-t)^{-ln 2} endpoint
            w = u ** (1 / omega)
            t = 1 - w
            return w_prime(t) / (2 * ln2 * _expm1_ratio(w) * g_reg(t))

        quad_val, quad_err = mp.quad(integrand, [0, 1], error=True)
        integral = quad_val / omega
        if quad_err > mp.mpf("1e-6") * max(1, abs(quad_val)):
            raise RuntimeError(
                f"quadrature did not converge (error estimate {mp.nstr(quad_err, 3)})"
            )

        prefactor = asymptotic_prefactor(precision)
        gamma_factor = mp.gamma(omega)
        eta = prefactor * integral / gamma_factor
        # 1/((2-2^t) g(t)) integrates to at most 1/(omega * 2 ln2 * min(E g_reg))
        tail_weight = 1 / (omega * 2 * ln2 * _expm1_ratio(mp.mpf(1)))
        error = prefactor * (quad_err / omega + tail * tail_weight) / gamma_factor
        return AsymptoticEstimate(
            "eta", eta, error, "integral", N, 2, precision.digits
        )


# ----- k-ary exponent ------------------------------------------------------


def kary_exponent_target(k: int, precision: Precision = Precision()) -> mp.mpf:
    """Closed-form decay exponent of h_n: (2 - k ln 2) / (2(k-1)) - 1."""
    if k < 2:
        raise ValueError("arity must be >= 2")
    with mp.workdps(precision.dps):
        ln2 = mp.ln(2)
        return (2 - k * ln2) / (2 * (k - 1)) - 1


def estimate_kary_prefactor(h: ScaledSequence) -> AsymptoticEstimate:
    """Fitted leading constant of h_n ~ K n^target at the top of the range.

    Uses the closed-form target exponent; the error bar is the drift of the
    fitted constant between n = N/2 and n = N.
    """
    if h.kind != "h":
        raise ValueError("the prefactor is fitted from a kind-'h' sequence")
    N = h.max_index
    if N < 100:
        raise ValueError("prefactor fitting needs the sequence up to n >= 100")
    with mp.workdps(h.precision.dps):
        target = kary_exponent_target(h.k, h.precision)
        at_n = h[N] / mp.mpf(N) ** target
        at_half = h[N // 2] / mp.mpf(N // 2) ** target
        return AsymptoticEstimate(
            "eta_k", at_n, abs(at_n - at_half), "slope-fit", N, h.k,
            h.precision.digits,
        )


def estimate_kary_exponent(
    h: ScaledSequence, k: Optional[int] = None
) -> AsymptoticEstimate:
    """Decay exponent of h_n from dyadic slopes log2(h_{2n} / h_n).

    Slopes at n = N/8, N/4, N/2 are extrapolated to n = infinity in 1/n;
    the error bar is the distance from the largest-n raw slope.
    """
    if h.kind != "h":
        raise ValueError("the exponent is estimated from a kind-'h' sequence")
    k = h.k if k is None else k
    N = h.max_index
    if N < 2000:
        raise ValueError("exponent estimation needs the sequence up to n >= 2000")
    with mp.workdps(h.precision.dps):
        ln2 = mp.ln(2)
        pts = [N // 8, N // 4, N // 2]
        xs = [mp.mpf(1) / p for p in pts]
        ys = [mp.log(h[2 * p] / h[p]) / ln2 for p in pts]
        fitted = _neville_at_zero(xs, ys)
        return AsymptoticEstimate(
            "exponent", fitted, abs(fitted - ys[-1]), "slope-fit", N, k,
            h.precision.digits,
        )
