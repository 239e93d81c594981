"""Command-line front-end.

Subcommands: count, table, sample, scaled, estimate, figure, oeis-check,
cache.  All data output is deterministic given the flags; progress and
diagnostics go to stderr so stdout can be piped.  Every command exits 0 on
success and nonzero with a one-line message on failure.
"""

from __future__ import annotations

import argparse
import bisect
import math
import os
import sys

import mpmath as mp

from . import asymptotics, cache, exact, oeis, sampler, trees
from .exact import MAX_BUILD_BITS, TREE_SLOT_BITS, h_index


def _default_cache_dir() -> str:
    env = os.environ.get("WITREES_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "witrees")


def _build_table(k: int, kind: str, upto: int):
    if kind == "B":
        return exact.count_binary_upto(upto)
    if kind == "H":
        return exact.count_kary_upto(k, upto)
    return exact.count_by_max_label(upto)


def _made_dir(path: str) -> str:
    """``path``, created as a directory if missing; an OSError is raised
    again, of its own class, as one line naming ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise type(exc)(f"cannot create {path}: {exc.strerror or exc}") from None
    return path


def _write_lines(path: str | None, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        cache._atomic_write(path, text)


# --------------------------------------------------------------------------
# size limits (MAX_BUILD_BITS and TREE_SLOT_BITS live in ``exact``, beside
# the tree guard that ``enumerate_all`` checks with them, and so does the
# size -> H-index map, h_index)
# --------------------------------------------------------------------------


def _table_bits(k: int, M: int) -> float:
    """Exact table H_0..H_M: about M^2 log2(M (k-1)) / 2 bits."""
    M = max(M, 0)
    return M * M * math.log2(max(2, M * (k - 1))) / 2


def _cubic_bits(k: int, M: int) -> float:
    """About M rows of a table: held by the label-stratified table, and a
    stand-in for work (not memory, kept so that an accepted size does not
    run for hours): of the exact table build behind the sampler, and, at
    M + 1 and times k - 1, of the series route's sweep, whose rows are
    stepped k - 1 times per H-index."""
    return 2 * max(M, 0) * _table_bits(k, M) / 3


def _brute_bits(k: int, n: int) -> int:
    """Every tree up to size n at TREE_SLOT_BITS a slot: an over-count.

    The exhaustive route holds one flat tree and one canonical encoding
    per tree, not the trees themselves; the bound is kept as its check.
    """
    M = min(h_index(k, n), 64)  # 64 labels are far beyond any enumeration
    return exact._h_counts(k, max(M, 1))[-1] * n * TREE_SLOT_BITS


def _sample_bits(k: int, n: int) -> float:
    """The sampler's table and one tree of size n, plus M tables standing
    for the work of building the exact table (its check is taken modulo a
    prime and costs far less): work, not memory, kept so that an accepted
    size does not run for hours."""
    M = h_index(k, n)
    return _table_bits(k, M) + _cubic_bits(k, M) + n * TREE_SLOT_BITS


def _sequence_bits(N: int, digits: int) -> float:
    """A scaled sequence up to N: N + 1 values and at most digits + 25
    weights, about digits + 315 bytes each (measured: 295 at D = 30)."""
    return 8 * (N + digits + 26) * (digits + 315)


def _check_size(flag: str, value: int, bits) -> None:
    """Refuse ``value`` of ``flag`` when ``bits(value)`` exceeds MAX_BUILD_BITS."""

    def fits(v: int) -> bool:
        try:
            return bits(v) <= MAX_BUILD_BITS
        except OverflowError:  # too large for a float estimate
            return False

    if fits(value):
        return
    hi = 1  # footprints grow with the size and fits(0) holds: the largest fit is below hi
    while fits(hi):
        hi *= 2
    most = bisect.bisect_left(range(hi), True, key=lambda v: not fits(v)) - 1
    raise ValueError(
        f"{flag} {value} is too large: at most {most} fits the "
        f"{MAX_BUILD_BITS >> 33} GiB build limit"
    )


def _check_least(flag: str, value: int, least: int) -> None:
    """Refuse ``value`` of ``flag`` below ``least``, the smallest value its builder accepts."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


def _check_sequences(flag: str, N: int, digits: int, count: int = 1) -> None:
    """Refuse ``count`` sequences up to N: the precision on its own, then N
    at that precision."""
    _check_size("--digits", digits, lambda d: count * _sequence_bits(0, d))
    _check_size(flag, N, lambda n: count * _sequence_bits(n, digits))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_count(args) -> int:
    k = args.k
    if args.n is None and args.upto is None:
        raise ValueError("count needs --n or --upto")
    if args.n is not None and args.upto is not None:
        raise ValueError("--n and --upto cannot be used together")
    bound = args.upto if args.upto is not None else args.n
    if bound < 0:
        raise ValueError(f"size must be nonnegative, got {bound}")
    flag = "--n" if args.upto is None else "--upto"
    if args.route == "funceq":
        _check_size(flag, bound,
                    lambda n: (k - 1) * _cubic_bits(k, h_index(k, n) + 1) if n >= k else 0)
        table = (exact.count_binary_funceq(max(bound, 2)) if k == 2
                 else exact.count_kary_funceq(k, max(1, h_index(k, bound))))
        get = table.g
    elif args.route == "brute":
        _check_size(flag, bound, lambda n: _brute_bits(k, n))
        get = lambda n: exact.brute_force_count(k, n)  # noqa: E731
    else:
        _check_size(flag, bound, lambda n: _table_bits(k, h_index(k, n)))
        get = exact.count_upto_size(k, bound).g

    if args.upto is None:
        print(get(args.n))
        return 0
    sep = "," if args.format == "csv" else "\t"
    if args.format == "csv":
        print("n,count")
    # streamed: with a large --k the table is tiny but --upto rows are not
    for n in range(args.upto + 1):
        print(f"{n}{sep}{get(n)}")
    return 0


def cmd_table(args) -> int:
    kind = args.kind or ("B" if args.k == 2 else "H")
    if kind != "H" and args.k != 2:
        raise ValueError(f"kind {kind} tables are binary; use --k 2 or --kind H")
    _check_least("--upto", args.upto, 1 if kind == "H" else 2)
    footprint = _cubic_bits if kind == "Bmn" else _table_bits
    _check_size("--upto", args.upto, lambda M: footprint(args.k, M))
    table = _build_table(args.k, kind, args.upto)
    out = args.out
    if out is None:
        out = os.path.join(_made_dir(args.cache_dir), f"wit-{kind}-k{args.k}-{args.upto}.txt")
    cache.cache_save(table, out)
    print(out)
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    _check_size("--n", args.n, lambda n: _sample_bits(args.k, n))
    ctx = sampler.SamplerContext.create(args.k, args.n, args.seed)
    if args.format == "encoding":
        render = lambda t: trees.canonical_encoding(t).hex()  # noqa: E731
    else:
        render = trees.render_graph if args.format == "graph" else trees.render_indented
    for _ in range(args.count):
        print(render(sampler.sample_uniform(ctx, args.n)))
    return 0


def cmd_scaled(args) -> int:
    if args.kind != "h" and args.k != 2:
        raise ValueError(f"kind {args.kind} sequences are binary; use --k 2 or --kind h")
    _check_least("--upto", args.upto, 1 if args.kind == "h" else 2)
    _check_sequences("--upto", args.upto, args.digits, 2 if args.kind == "a" else 1)
    p = asymptotics.Precision(args.digits)
    if args.kind == "b":
        seq = asymptotics.scaled_b_recurrence(args.upto, p)
    elif args.kind == "h":
        seq = asymptotics.scaled_h_recurrence(args.k, args.upto, p)
    else:
        b = asymptotics.scaled_b_recurrence(args.upto, p)
        seq = asymptotics.correction_a(args.upto, b)
    _write_lines(args.out, ["n,value", *seq.csv_rows()])
    return 0


#: per target: the default --N, then each method with its smallest --N;
#: the first method is the default
_ESTIMATES = {
    "alpha": (2000, {"ratio": asymptotics.ALPHA_MIN_N}),
    "eta": (5000, {"extrapolation": asymptotics.ETA_EXTRAPOLATION_MIN_N,
                   "integral": asymptotics.ETA_INTEGRAL_MIN_N}),
    "exponent": (4000, {"slope-fit": asymptotics.EXPONENT_MIN_N}),
}


def cmd_estimate(args) -> int:
    target = args.target
    default_N, methods = _ESTIMATES[target]
    method = args.method or next(iter(methods))
    if method not in methods:
        raise ValueError(f"method {method!r} is not valid for target {target!r}")
    if method == "integral" and args.k != 2:
        raise ValueError("the integral route is binary; use --k 2")
    N = default_N if args.N is None else args.N
    if N < methods[method]:
        raise ValueError(f"estimate {target} needs --N >= {methods[method]}, got {N}")
    if target == "alpha":
        _check_size("--digits", args.digits, lambda d: _sequence_bits(0, d))
        _check_size("--N", N, lambda M: _table_bits(args.k, M))
    else:
        _check_sequences("--N", N, args.digits, 2 if method == "integral" else 1)
    p = asymptotics.Precision(args.digits)

    if target == "alpha":
        table = _build_table(args.k, "B" if args.k == 2 else "H", N)
        est = asymptotics.estimate_alpha(table, p)
    elif target == "eta" and args.k == 2:
        b = asymptotics.scaled_b_recurrence(N, p)
        if method == "extrapolation":
            est = asymptotics.estimate_eta_extrapolation(b)
        else:
            print(
                "note: integral route uses the interpreted reading f(t) = 1/g(t); "
                "it is cross-validated against the extrapolation route, not "
                "independently normative",
                file=sys.stderr,
            )
            a = asymptotics.correction_a(N, b)
            est = asymptotics.estimate_eta_integral(a)
    else:
        h = asymptotics.scaled_h_recurrence(args.k, N, p)
        est = (asymptotics.estimate_eta_extrapolation(h) if target == "eta"
               else asymptotics.estimate_kary_exponent(h))
    print(est.record())
    return 0


def cmd_figure(args) -> int:
    _check_size("--digits", args.digits, lambda d: 3 * _sequence_bits(1000, d))
    p = asymptotics.Precision(args.digits)
    # each figure: its CSV header and the values of the row for n
    if args.which == "fig2":
        b = asymptotics.scaled_b_recurrence(1000, p)
        header = "n,b_n,inv_sqrt_n,inv_n"

        def values(n):
            return b[n], 1 / mp.sqrt(n), mp.mpf(1) / n
    else:
        ks = (3, 13, 49)
        seqs = {k: asymptotics.scaled_h_recurrence(k, 1000, p) for k in ks}
        header = ",".join(["n", *(f"h_n_k{k}" for k in ks), *(f"asymptote_k{k}" for k in ks)])
        with mp.workdps(p.dps):
            targets = {k: asymptotics.kary_exponent_target(k, p) for k in ks}
            # fitted at the last row, so that each asymptote meets h_n there
            prefs = {k: seqs[k][1000] / mp.mpf(1000) ** targets[k] for k in ks}

        def values(n):
            return [seqs[k][n] for k in ks] + [prefs[k] * mp.mpf(n) ** targets[k] for k in ks]
    lines = [header]
    with mp.workdps(p.dps):
        for n in range(25, 1001):
            lines.append(f"{n}," + ",".join(mp.nstr(x, p.digits) for x in values(n)))
    _write_lines(args.out, lines)
    return 0


def cmd_oeis_check(args) -> int:
    sources = [flag for flag, on in (("--self", args.self_check), ("--bfile", args.bfile),
                                     ("--fetch", args.fetch)) if on]
    if not sources:
        raise ValueError("oeis-check needs --bfile PATH, --fetch, or --self")
    if len(sources) > 1:
        raise ValueError(f"{' and '.join(sources)} cannot be used together")
    _check_least("--upto", args.upto, 9)  # find_shift needs 10 matching values, n = 0..9
    _check_size("--upto", args.upto, lambda N: _table_bits(2, N))
    table = exact.count_binary_upto(args.upto)
    if args.self_check:
        bfile = oeis.OeisBFile(
            args.id, tuple((n, table.entry(n)) for n in range(args.upto + 1))
        )
    elif args.bfile:
        bfile = oeis.load_bfile(args.bfile, args.id)
    else:
        dest = os.path.join(_made_dir(args.cache_dir), f"b{args.id[1:]}.txt")
        oeis.fetch_bfile(args.id, dest)
        print(f"fetched {oeis.bfile_url(args.id)} -> {dest}", file=sys.stderr)
        bfile = oeis.load_bfile(dest, args.id)
    report = oeis.find_shift(table, bfile, args.upto)
    status = "ok" if report.matched >= args.upto - abs(report.offset) else "short-match"
    print(
        f"{report.seq_id} offset={report.offset} matched={report.matched} "
        f"overlap={report.overlap} status={status}"
    )
    if report.first_mismatch:
        n, ours, theirs = report.first_mismatch
        print(f"first mismatch at n={n}: computed {ours}, catalogued {theirs}")
    return 0 if status == "ok" and report.full_prefix else 1


def cmd_cache(args) -> int:
    table = cache.cache_load(args.path, expect_kind=args.kind, expect_k=args.expect_k)
    if isinstance(table, exact.LabelStratifiedTable):
        print(f"ok kind=Bmn k=2 entries={len(table.values)} max_n={table.size_bound}")
    else:
        print(f"ok kind={table.kind} k={table.k} entries={len(table.values)}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=argparse.SUPPRESS,
                        help="working decimal digits (default 30)")
    common.add_argument("--cache-dir", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="random seed (sampling; default 0)")
    arity = argparse.ArgumentParser(add_help=False)
    arity.add_argument("--k", type=int, default=2)

    ap = argparse.ArgumentParser(
        prog="witrees",
        parents=[common],
        description="Exact counting, uniform sampling and asymptotics for "
        "weakly increasing k-ary trees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common, arity], help="exact number of trees of a given size")
    p.add_argument("--n", type=int)
    p.add_argument("--upto", type=int)
    p.add_argument("--route", choices=("recurrence", "funceq", "brute"), default="recurrence")
    p.add_argument("--format", choices=("plain", "csv"), default="plain")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", parents=[common, arity], help="compute a count table and save it as a cache file")
    p.add_argument("--kind", choices=("B", "H", "Bmn"))
    p.add_argument("--upto", type=int, required=True,
                   help="size bound (kind B/Bmn) or H-index bound (kind H)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sample", parents=[common, arity], help="draw exactly uniform random trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--format", choices=("text", "graph", "encoding"), default="text")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("scaled", parents=[common, arity], help="export a scaled sequence as CSV")
    p.add_argument("--kind", choices=("b", "h", "a"), default="b")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scaled)

    p = sub.add_parser("estimate", parents=[common, arity], help="estimate an asymptotic constant")
    p.add_argument("target", choices=("alpha", "eta", "exponent"))
    p.add_argument("--N", type=int)
    p.add_argument("--method", choices=("ratio", "extrapolation", "integral", "slope-fit"))
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("figure", parents=[common], help="emit figure data as CSV")
    p.add_argument("which", choices=("fig2", "fig3"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("oeis-check", parents=[common], help="cross-validate counts against an OEIS b-file")
    p.add_argument("--id", default="A171792")
    p.add_argument("--bfile")
    p.add_argument("--fetch", action="store_true")
    p.add_argument("--self", dest="self_check", action="store_true",
                   help="check the computed table against itself")
    p.add_argument("--upto", type=int, default=50)
    p.set_defaults(func=cmd_oeis_check)

    p = sub.add_parser("cache", parents=[common], help="validate a cache file")
    p.add_argument("action", choices=("verify",))
    p.add_argument("path")
    p.add_argument("--kind", choices=("B", "H", "Bmn"))
    p.add_argument("--k", dest="expect_k", type=int)
    p.set_defaults(func=cmd_cache)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # global flags use SUPPRESS so that either position wins; fill the rest
    for name, value in (("digits", 30), ("cache_dir", None), ("seed", 0)):
        if not hasattr(args, name):
            setattr(args, name, value if name != "cache_dir" else _default_cache_dir())
    try:
        with exact.unlimited_int_digits():
            return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"witrees: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
