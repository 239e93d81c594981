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
``scaled_from_exact`` is the independent route from an exact count table:
each value is one exact rational times (ln 2)^n, rounded once.  The
coefficient families share one exact ratio: gamma(n, l) = delta_{n-1,l}
at k = 2.  a_n and the integral route stay binary.

The weights (ln 2 / (k-1))^s / s! decay superexponentially, so every sum
over s stops at one index L, fixed per call: ``_weights(k)`` lists them up
to L once, and the b/h kernel, ``correction_a`` and ``an_identity_residual``
all read that list.  The b/h kernel, ``correction_a`` and the integral
route's w' and Li2 sum on fixed-point Python ints with 64 bits beyond the
working precision (``_Fixed``) and round each value once to an mpf.  The
kernels compute no binomial per term: they read each binomial ratio as a
ratio of falling factorials (p)_s = p (p-1) ... (p-s+1), step a row of
them by one shifted multiply per index, (n)_s = n (n-1)_(s-1), and take
the size recurrence's falling factorials by the columns of ``exact``.

Four estimators are provided for the constants:

* ``estimate_alpha``: accelerated ratio estimate of the exponential growth
  factor (1/ln 2 for binary, (k-1)/ln 2 for the k-ary table);
* ``estimate_eta_extrapolation``: the leading constant of a b or h
  sequence for every arity, extrapolated from three points: eta from
  b_n * n^{ln 2} with the known first-order 1 + ln(2)/(2n) correction
  divided out, and the constant K of h_m ~ K m^rho from h_m * m^{-rho},
  rho = (2 - k ln 2) / (2(k-1)) - 1;
* ``estimate_kary_exponent``: the decay exponent rho of h from dyadic
  slopes;
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
subtracted analytically (so g_reg extends continuously to t = 1).  The
integral of phi_reg has a closed form in w = 1 - t,

    Int_0^t phi_reg = (1 - ln 2) ln(2 ln 2 E(w)) + (ln 2)^2 / 2 - pi^2 / 12
                      + Li2(1 - 2^-w),      E(w) = (1 - 2^-w) / (w ln 2),

so each quadrature node needs no inner quadrature.  Li2(1 - 2^-w) is the
Bernoulli series u sum_n B_n u^n / (n+1)! in u = w ln 2 <= ln 2, and it and
w'(t) are summed by Horner's rule in fixed-point integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import floordiv, mul

import mpmath as mp
from mpmath.libmp import from_rational, mpf_ln2, mpf_mul, mpf_pow_int, round_nearest, to_fixed

# the largest admissible second index of delta_{n,s}: n - ceil((n-1)/k),
# and the size recurrence's columns (see exact._columns)
from .exact import _columns, kary_smax as delta_smax

#: Smallest table or sequence index N each estimator accepts.
ALPHA_MIN_N = 100
ETA_EXTRAPOLATION_MIN_N = 1000
ETA_INTEGRAL_MIN_N = 200
EXPONENT_MIN_N = 2000


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
        if self.k < 2:
            raise ValueError("arity must be >= 2")
        if self.kind != "h" and self.k != 2:
            raise ValueError(f"kind {self.kind!r} sequences are binary")

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> mp.mpf:
        if not 0 <= n <= self.max_index:
            raise ValueError(f"index {n} outside computed range 0..{self.max_index}")
        return self.values[n]

    def csv_rows(self):
        """Yield 'n,value' rows at the sequence's own precision."""
        for n, v in enumerate(self.values):
            yield f"{n},{mp.nstr(v, self.precision.digits)}"


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
    return delta_exact(2, n - 1, l)  # gamma(n, l) = delta_{n-1,l} at k = 2


def delta_exact(k: int, n: int, s: int) -> Fraction:
    """delta_{n,s} = C(1+(n-s)(k-1), s) / C(n, s) as an exact rational."""
    if k < 2:
        raise ValueError("arity must be >= 2")
    if n < 1 or not 1 <= s <= delta_smax(n, k):
        raise ValueError(
            f"delta requires 1 <= s <= {delta_smax(n, k)} for n={n}, got s={s}"
        )
    return Fraction(math.comb(1 + (n - s) * (k - 1), s), math.comb(n, s))


# --------------------------------------------------------------------------
# Scaled sequences
# --------------------------------------------------------------------------


class _Fixed:
    """Fixed-point numbers at the working precision, for the b/h/a/w' kernels.

    A real x is held as the Python int floor(x 2^bits), bits = mp.prec + 64:
    the 64 guard bits absorb the one-unit floor error of every summand of a
    recurrence, and each finished value is rounded once, to nearest, back
    to an mpf of the working precision.  Converting an mpf whose magnitude
    exceeds 2^-64 is exact.
    """

    def __init__(self) -> None:
        self.bits = mp.mp.prec + 64

    def of(self, x: mp.mpf) -> int:
        return to_fixed(x._mpf_, self.bits)

    def to_mpf(self, v: int) -> mp.mpf:
        return mp.mpf((v, -self.bits))

    def horner(self, coeffs: list, x: int) -> int:
        """sum_j c_j x^j in fixed point, the coefficients listed highest degree first."""
        bits = self.bits
        acc = 0
        for c in coeffs:
            acc = (acc * x >> bits) + c
        return acc


def _term_cutoff() -> mp.mpf:
    # summands below this are beyond the working ulp of every partial sum
    # of interest (all sums here are O(1) and bounded below by ~n^-1)
    return mp.mpf(10) ** (-(mp.mp.dps + 3))


def _weights(k: int) -> list:
    """w[s] = (ln 2/(k-1))^s / s! for s = 0..L, at the working precision.

    delta_{n,s} <= (k-1)^s, so a summand is at most w[s] (k-1)^s times an
    O(1) value; the list ends before the first s where that bound falls
    below ``_term_cutoff()``, and each kernel stops its sums there.  At
    k = 2 dividing and multiplying by 1 is exact, so the list is the
    binary (ln 2)^l / l! bit for bit.  The fixed-point b/h kernel converts
    w[s] (k-1)^s, not w[s], so that no weight loses relative precision.
    """
    base = mp.ln(2) / (k - 1)
    cutoff = _term_cutoff()
    w = [mp.mpf(1)]
    u, scale = base, k - 1
    while u * scale >= cutoff:
        w.append(u)
        u *= base / len(w)
        scale *= k - 1
    return w


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
    """Scale an exact count table by one exact division per value.

    For a k-ary H-table this yields h_m = H_m (ln 2)^m / ((k-1)^m m!); for
    the binary view (index n = m + 1), b_n = B_n (ln 2)^n / (n-1)!.  The
    denominator d = m! (k-1)^m is a running integer, advanced by one small
    multiply per index, and V / d is an exact rational.  (ln 2)^n carries
    guard bits for the n-fold growth of the error in ln 2, and each value is
    rounded once, to nearest, to the working precision.
    """
    with mp.workdps(precision.dps):
        prec = mp.mp.prec
        wp = prec + table.max_index.bit_length() + 10
        ln2 = mpf_ln2(wp)
        values = [mp.mpf(0)] * table.offset
        d = 1
        for m, v in enumerate(table.values[table.offset:]):
            scale = mpf_pow_int(ln2, m + table.offset, wp)
            values.append(mp.mpf(mpf_mul(from_rational(v, d, wp), scale, prec, round_nearest)))
            d *= (m + 1) * (table.k - 1)
        return ScaledSequence("b" if table.offset else "h", table.k, tuple(values), precision)


def correction_a(N: int, b: ScaledSequence) -> ScaledSequence:
    """Correction sequence a_n: the defect of the smoothed scaled recurrence.

    For n >= 3,

        a_n =   sum_{l <= n/2} ((ln 2)^l / l!) (gamma(n,l) - 1 + l(l-1)/n) b_{n-l}
              - sum_{l > n/2}  ((ln 2)^l / l!) (1 - l(l-1)/n) b_{n-l},

    so that b_n = a_n + sum_{l=1}^{n} ((ln 2)^l / l!) (1 - l(l-1)/n) b_{n-l}
    holds identically for n >= 3 (the recurrence defining b is seeded at
    n = 2, so the identity starts at 3 and a_2 = 0).  The bracket
    gamma - 1 + l(l-1)/n is O(l^4 / n^2); it is one exact integer ratio,

        (n C(n-l, l) - n C(n-1, l) + l(l-1) C(n-1, l)) / (n C(n-1, l)),

    so nothing cancels in rounding, and a_n itself decays like
    n^{-2-ln 2}.  Its terms are read as falling factorials,
    (p)_l = p (p-1) ... (p-l+1) = l! C(p, l), which gives the same ratio
    and so the same floor.  They are stepped along n, not recomputed:
    (n-1)_l is a row stepped by one shifted multiply,
    (m)_l = m (m-1)_(l-1), and (n-l)_l is column j = n - 1 - l of
    ``exact._columns`` at k = 2, m = n - 1 and x_j = 1.  Both sums read
    the one truncated weight list of ``_weights(2)`` and run on ``_Fixed``
    integers (b converts to them exactly); each a_n is rounded once to an
    mpf.
    """
    if b.kind != "b":
        raise ValueError("correction_a expects a kind-'b' sequence")
    if N > b.max_index:
        raise ValueError(f"b covers only 0..{b.max_index}, need {N}")
    precision = b.precision
    with mp.workdps(precision.dps):
        fx = _Fixed()
        w = [fx.of(x) for x in _weights(2)]
        L = len(w)
        bf = [fx.of(x) for x in b.values[: N + 1]]
        a = [0] * (N + 1)
        row = [1, 1] + [0] * (L - 2)  # row[l] = (m)_l, here at m = 1
        for m, lo, col in _columns(2, [1] * (N + 1), 2, N - 1, L):
            n = m + 1
            row[1:] = map(m.__mul__, row[:-1])
            acc = 0
            for l in range(1, m - lo + 1):
                g, c = col[m - l - lo], row[l]  # (n-l)_l, (n-1)_l
                num = n * (g - c) + l * (l - 1) * c
                acc += w[l] * bf[n - l] * num // (n * c << fx.bits)
            for l in range(n // 2 + 1, min(n - 1, L)):
                acc -= w[l] * bf[n - l] * (n - l * (l - 1)) // (n << fx.bits)
            a[n] = acc
        return ScaledSequence("a", 2, tuple(fx.to_mpf(v) for v in a), precision)


def an_identity_residual(b: ScaledSequence, a: ScaledSequence, n: int) -> mp.mpf:
    """|b_n - a_n - sum_{l=1}^n ((ln 2)^l / l!)(1 - l(l-1)/n) b_{n-l}|, n >= 3."""
    if n < 3:
        raise ValueError("the smoothed identity holds for n >= 3")
    with mp.workdps(b.precision.dps):
        w = _weights(2)
        s = mp.mpf(0)
        for l in range(1, min(n - 1, len(w))):
            s += w[l] * (1 - mp.mpf(l * (l - 1)) / n) * b[n - l]
        return abs(b[n] - a[n] - s)


def _scaled_h(k: int, N: int, seed: mp.mpf) -> list:
    """h_0..h_N of the scaled k-ary recurrence with h_1 = ``seed`` (N >= 1).

    h_n = sum_s ((ln 2/(k-1))^s / s!) delta_{n,s} h_{n-s}, with s running
    up to the smaller of delta's last index and the last index L of the
    weight list ``_weights(k)``, built once per call.  The sums run on
    ``_Fixed`` integers: the weights are stored as W[s] = w[s] (k-1)^s,
    which keeps their relative precision for k >= 3 (w[s] alone falls
    like (k-1)^-s), and (k-1)^s joins the integer denominator of each
    summand, W[s] h_{n-s} C(1+(n-s)(k-1), s) // (C(n, s) (k-1)^s).  Each
    value is rounded once to an mpf at the caller's working precision.

    No binomial is computed.  C(a, s) / C(n, s) is the ratio of the
    falling factorials (a)_s / (n)_s, (p)_s = p (p-1) ... (p-s+1), so each
    summand is W[s] h_{n-s} (1+(n-s)(k-1))_s // ((n)_s (k-1)^s 2^bits): the
    same rational, and so the same integer, as in a term-by-term sum of
    binomials.  The denominators (n)_s (k-1)^s 2^bits form a row stepped
    by one shifted multiply per n, den[s] <- n (k-1) den[s-1], and the
    numerators are summed by the columns j = n - s of ``exact._columns``
    with x_j = h_j.
    """
    fx = _Fixed()
    c = k - 1
    weights = [fx.of(ws * c ** s) for s, ws in enumerate(_weights(k))]
    L = len(weights)
    den = [1 << fx.bits, c << fx.bits] + [0] * (L - 2)  # den[s] at n = 1
    h = [0, fx.of(seed)]
    for n, lo, col in _columns(k, h, 2, N, L):
        den[1:] = map((n * c).__mul__, den[:-1])
        h.append(sum(map(
            floordiv, map(mul, weights[n - lo : 0 : -1], col), den[n - lo : 0 : -1]
        )))
    return [fx.to_mpf(v) for v in h]


def scaled_h_recurrence(
    k: int, N: int, precision: Precision = Precision()
) -> ScaledSequence:
    """h_1..h_N for arity k >= 2, seeded with h_1 = ln(2)/(k-1)."""
    if k < 2:
        raise ValueError("arity must be >= 2")
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


def _extrapolate_with_bar(pts, ys):
    """Extrapolation of ys to x = 0 at x = 1/p, and as its error bar the
    move from dropping the first point (the lowest-order fit)."""
    xs = [mp.mpf(1) / p for p in pts]
    full = _neville_at_zero(xs, ys)
    return full, abs(full - _neville_at_zero(xs[1:], ys[1:]))


def estimate_alpha(table, precision: Precision = Precision()) -> AsymptoticEstimate:
    """Accelerated ratio estimate of the exponential growth factor.

    The raw ratio V_n / (n V_{n-1}) converges like alpha (1 - c/n); the last
    six ratios are evaluated in the log domain and extrapolated to
    n = infinity by polynomial extrapolation in 1/n.  The error bar is the
    change from dropping the oldest point.  Converges to 1/ln 2 on a binary
    table and to (k-1)/ln 2 on a k-ary H-table.
    """
    N = table.max_index
    if N < ALPHA_MIN_N:
        raise ValueError(
            f"ratio estimation needs a table up to at least {ALPHA_MIN_N}, got {N}"
        )
    with mp.workdps(precision.dps):
        ns = list(range(N - 5, N + 1))
        ratios = [
            mp.exp(
                mp.log(mp.mpf(table.entry(n)))
                - mp.log(mp.mpf(table.entry(n - 1)))
                - mp.log(n)
            )
            for n in ns
        ]
        full, bar = _extrapolate_with_bar(ns, ratios)
        return AsymptoticEstimate("alpha", full, bar, "ratio", N, table.k, precision.digits)


def estimate_eta_extrapolation(seq: ScaledSequence) -> AsymptoticEstimate:
    """Leading constant of a kind-'b' or kind-'h' sequence by order-2 extrapolation.

    On b it is eta of b_n ~ eta n^{-ln 2}, read from b_n n^{ln 2} with the
    first-order 1 + ln(2)/(2n) correction divided out (record kind "eta").
    On h of arity k it is K of h_m ~ K m^rho, rho = ``kary_exponent_target(k)``,
    read from h_m m^{-rho} (record kind "eta_k").  Degree-2 polynomial
    extrapolation in 1/n over n = N/4, N/2, N, with N the last index,
    removes the terms of order n^-1 and n^-2.  The error bar is the
    distance to the order-1 result.
    """
    if seq.kind == "a":
        raise ValueError("the leading constant is estimated from a kind-'b' or kind-'h' sequence")
    N = seq.max_index
    if N < ETA_EXTRAPOLATION_MIN_N:
        raise ValueError(f"eta extrapolation needs N >= {ETA_EXTRAPOLATION_MIN_N}")
    with mp.workdps(seq.precision.dps):
        pts = [N // 4, N // 2, N]
        if seq.kind == "b":
            ln2 = mp.ln(2)  # not kary_exponent_target(2), which can differ in the last bit
            ys = [seq[n] * mp.mpf(n) ** ln2 / (1 + ln2 / (2 * n)) for n in pts]
        else:
            rho = kary_exponent_target(seq.k, seq.precision)
            ys = [seq[n] / mp.mpf(n) ** rho for n in pts]
        value, bar = _extrapolate_with_bar(pts, ys)
        return AsymptoticEstimate(
            "eta" if seq.kind == "b" else "eta_k", value, bar, "extrapolation", N, seq.k,
            seq.precision.digits,
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
    the series of T(w) = (2^-w - E(w))/w to avoid cancellation.  This is
    the reference integrand: ``_neg_log_g_reg`` is its integral in closed
    form, and the tests check the two against each other.
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


def _neg_log_g_reg(w: mp.mpf) -> mp.mpf:
    """Int_0^{1-w} phi_reg(s) ds in closed form, so g_reg(1-w) = exp(-this).

    Integrating phi by parts gives, with t = 1 - w,

        Int_0^t phi = -(t ln2 - 1) ln(2 - 2^t) + t ln^2 2
                      - Li2(2^(t-1)) + Li2(1/2).

    Write ln(2 - 2^t) = ln 2 + ln w + ln ln 2 + ln E(w) and take Li2(2^-w)
    by reflection through Li2(1 - 2^-w), where 1 - 2^-w = w ln2 E(w).  The
    pole term -(1 - ln 2) ln w and every w ln w term cancel analytically:

        Int_0^t phi_reg = (1 - ln2) ln(2 ln2 E(w)) + ln^2 2 / 2 - pi^2 / 12
                          + Li2(w ln2 E(w)),

    with the polylogarithm argument in [0, 1/2] for w in [0, 1].
    The dilogarithm is ``_li2_one_minus_pow2(w)``, a fixed-point series.
    """
    ln2 = mp.ln(2)
    ew = _expm1_ratio(w)
    return (
        (1 - ln2) * mp.log(2 * ln2 * ew) + ln2 ** 2 / 2 - mp.pi ** 2 / 12
        + _li2_one_minus_pow2(w)
    )


#: Fixed-point coefficients of the Li2 series, per ``_Fixed().bits``.
_LI2_COEFFS: dict[int, list[int]] = {}


def _li2_coefficients(bits: int) -> list:
    """floor(B_n 2^bits / (n+1)!) for n = M, ..., 1, 0, highest degree first.

    Built once per width from exact rationals b_n = B_n / n!: b_0 = 1,
    sum_{j<=n} b_j / (n+1-j)! = 0 for n >= 1 (the coefficients of
    u/(e^u - 1) times (e^u - 1)/u = 1), and b_n = 0 for odd n > 1.
    mp.bernfrac gives the same numbers but leaves caches of its own behind
    for every n.  For u <= ln 2 < 7/10 the list ends before the first even
    n with |c_n| 7^n < 10^n, whose term is below one unit; the terms after
    it shrink by (u/2 pi)^2 < 1/80 per even step.
    """
    coeffs = _LI2_COEFFS.get(bits)
    if coeffs is None:
        coeffs, b, n = [], [Fraction(1)], 0
        while True:
            c = (b[n].numerator << bits) // (b[n].denominator * (n + 1))
            if n % 2 == 0 and abs(c) * 7 ** n < 10 ** n:
                break
            coeffs.append(c)
            n += 1
            odd = n % 2 and n > 1
            b.append(Fraction(0) if odd else -sum(
                bj / math.factorial(n + 1 - j) for j, bj in enumerate(b) if bj
            ))
        coeffs.reverse()
        _LI2_COEFFS[bits] = coeffs
    return coeffs


def _li2_one_minus_pow2(w: mp.mpf) -> mp.mpf:
    """Li2(1 - 2^-w) for w in [0, 1], without calling a polylogarithm.

    With u = w ln 2, d/du Li2(1 - e^-u) = u / (e^u - 1), so

        Li2(1 - e^-u) = u sum_{n>=0} B_n u^n / (n+1)!,

    which converges for u < 2 pi.  The sum is Horner's rule on ``_Fixed``
    ints (coefficients from ``_li2_coefficients``) and is O(1); it is
    rounded once and multiplied by u as an mpf, so the value keeps its
    relative precision as w -> 0 and is exactly 0 at w = 0.
    """
    fx = _Fixed()
    u = w * mp.ln(2)
    return u * fx.to_mpf(fx.horner(_li2_coefficients(fx.bits), fx.of(u)))


def g_regular(t, precision: Precision = Precision()) -> mp.mpf:
    """Regular part of the homogeneous solution: g(t) (1-t)^{1 - ln 2}.

    Continuous on [0, 1] with g_regular(0) = 1; its value at 1 is the
    closed-form prefactor returned by ``asymptotic_prefactor``.  Evaluated
    as exp(-Int_0^t phi_reg) through the closed form of the integral in
    w = 1 - t (``_neg_log_g_reg``), with no quadrature.  Raises ValueError
    for t outside [0, 1].
    """
    with mp.workdps(precision.dps):
        t = mp.mpf(t)
        if not 0 <= t <= 1:
            raise ValueError(f"g_regular needs t in [0, 1], got t = {t}")
        if t == 0:
            return mp.mpf(1)
        return mp.exp(-_neg_log_g_reg(1 - t))


def _w_prime(a: ScaledSequence):
    """w'(t) = 2 (ln 2)^2 t + sum_{n>=4} n a_n t^{n-1} as a function of w = 1 - t.

    The coefficients are converted once to ``_Fixed`` integers; each
    evaluation is Horner's rule on those ints at t = 1 - w, formed exactly
    in fixed point, and rounds once to an mpf.  Runs at the caller's
    working precision.
    """
    fx = _Fixed()
    one = 1 << fx.bits
    # coefficient of t^j, highest degree first: j = N-1, ..., 3 from a, then t^2, t^1, t^0
    coeffs = [fx.of(n * a[n]) for n in range(a.max_index, 3, -1)]
    coeffs += [0, fx.of(2 * mp.ln(2) ** 2), 0]

    def w_prime(w: mp.mpf) -> mp.mpf:
        return fx.to_mpf(fx.horner(coeffs, one - fx.of(w)))

    return w_prime


def asymptotic_prefactor(precision: Precision = Precision()) -> mp.mpf:
    """Closed form of lim_{t->1} g_regular: e^{pi^2/12} alpha^{1-ln 2} / 2^{1-ln(2)/2}."""
    with mp.workdps(precision.dps):
        ln2 = mp.ln(2)
        alpha = 1 / ln2
        return mp.exp(mp.pi ** 2 / 12) * alpha ** (1 - ln2) / mp.power(2, 1 - ln2 / 2)


def estimate_eta_integral(a: ScaledSequence) -> AsymptoticEstimate:
    """eta through the ODE route: quadrature against the correction series.

    Evaluates beta = prefactor * Int_0^1 w'(t) / ((2 - 2^t) g(t)) dt with
    w'(t) = 2 (ln 2)^2 t + sum_{n>=4} n a_n t^{n-1} and returns
    eta = beta / Gamma(1 - ln 2), at the precision of ``a``.  The series is
    truncated at the length of ``a``; the truncation error is bounded
    through the fitted envelope |a_n| <= C n^{-2-ln 2} and folded into the
    error bar.  Raises when the supplied correction sequence is too short
    for a sub-percent bound, or when the quadrature does not converge.
    """
    if a.kind != "a":
        raise ValueError("the integral route consumes a correction sequence")
    precision = a.precision
    N = a.max_index
    if N < ETA_INTEGRAL_MIN_N:
        raise ValueError(
            f"the integral route needs the correction sequence up to n >= "
            f"{ETA_INTEGRAL_MIN_N}, got {N}"
        )
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

        w_prime = _w_prime(a)

        def integrand(u: mp.mpf) -> mp.mpf:
            # t = 1 - u^{1/omega} flattens the (1-t)^{-ln 2} endpoint
            w = u ** (1 / omega)
            g_reg = mp.exp(-_neg_log_g_reg(w))
            return w_prime(w) / (2 * ln2 * _expm1_ratio(w) * g_reg)

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


def estimate_kary_exponent(h: ScaledSequence) -> AsymptoticEstimate:
    """Decay exponent of h_n from dyadic slopes log2(h_{2n} / h_n).

    Slopes at n = N/8, N/4, N/2 are extrapolated to n = infinity in 1/n;
    the error bar is the distance from the largest-n raw slope.
    """
    if h.kind != "h":
        raise ValueError("the exponent is estimated from a kind-'h' sequence")
    N = h.max_index
    if N < EXPONENT_MIN_N:
        raise ValueError(f"exponent estimation needs the sequence up to n >= {EXPONENT_MIN_N}")
    with mp.workdps(h.precision.dps):
        ln2 = mp.ln(2)
        pts = [N // 8, N // 4, N // 2]
        xs = [mp.mpf(1) / p for p in pts]
        ys = [mp.log(h[2 * p] / h[p]) / ln2 for p in pts]
        fitted = _neville_at_zero(xs, ys)
        return AsymptoticEstimate(
            "exponent", fitted, abs(fitted - ys[-1]), "slope-fit", N, h.k,
            h.precision.digits,
        )
