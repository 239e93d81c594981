"""Command-line front-end.

Subcommands: count, table, sample, scaled, estimate, figure, oeis-check,
cache.  All data output is deterministic given the flags; progress and
diagnostics go to stderr so stdout can be piped.  Every command exits 0 on
success and nonzero with a one-line message on failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import mpmath as mp

from . import asymptotics, cache, exact, oeis, sampler, trees


def _default_cache_dir() -> str:
    env = os.environ.get("WITREES_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "witrees")


def _fmt(x, digits: int) -> str:
    return mp.nstr(x, digits)


def _build_table(k: int, kind: str, upto: int):
    if kind == "B":
        return exact.count_binary_upto(upto)
    if kind == "H":
        return exact.count_kary_upto(k, upto)
    if kind == "Bmn":
        return exact.count_by_max_label(upto)
    raise ValueError(f"unknown table kind {kind!r}")


def _write_lines(path: str | None, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        cache._atomic_write(path, text)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_count(args) -> int:
    k = args.k
    if args.n is None and args.upto is None:
        raise ValueError("count needs --n or --upto")
    bound = args.upto if args.upto is not None else args.n
    if bound < 0:
        raise ValueError(f"size must be nonnegative, got {bound}")
    if args.route == "funceq":
        if k != 2:
            raise ValueError("the functional-equation route is binary only")
        table = exact.count_binary_funceq(max(bound, 2))
        get = table.g
    elif args.route == "brute":
        get = lambda n: exact.brute_force_count(k, n)  # noqa: E731
    else:
        get = exact.count_upto_size(k, bound).g

    if args.upto is None:
        print(get(args.n))
        return 0
    rows = [(n, get(n)) for n in range(args.upto + 1)]
    if args.format == "csv":
        print("n,count")
        for n, v in rows:
            print(f"{n},{v}")
    else:
        for n, v in rows:
            print(f"{n}\t{v}")
    return 0


def cmd_table(args) -> int:
    kind = args.kind or ("B" if args.k == 2 else "H")
    if kind != "H" and args.k != 2:
        raise ValueError(f"kind {kind} tables are binary; use --k 2 or --kind H")
    table = _build_table(args.k, kind, args.upto)
    out = args.out
    if out is None:
        os.makedirs(args.cache_dir, exist_ok=True)
        out = os.path.join(args.cache_dir, f"wit-{kind}-k{args.k}-{args.upto}.txt")
    cache.cache_save(table, out)
    print(out)
    return 0


def cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be positive")
    ctx = sampler.SamplerContext.create(args.k, args.n, args.seed)
    for i in range(args.count):
        t = sampler.sample_uniform(ctx, args.n)
        if args.format == "encoding":
            print(trees.canonical_encoding(t).hex())
        elif args.format == "graph":
            sys.stdout.write(trees.render_graph(t))
            print()
        else:
            sys.stdout.write(trees.render_indented(t))
            print()
    return 0


def cmd_scaled(args) -> int:
    p = asymptotics.Precision(args.digits)
    if args.kind == "b":
        seq = asymptotics.scaled_b_recurrence(args.upto, p)
    elif args.kind == "h":
        if args.k < 3:
            raise ValueError("kind 'h' needs --k >= 3")
        seq = asymptotics.scaled_h_recurrence(args.k, args.upto, p)
    else:
        b = asymptotics.scaled_b_recurrence(args.upto, p)
        seq = asymptotics.correction_a(args.upto, b)
    _write_lines(args.out, ["n,value", *seq.csv_rows()])
    return 0


_DEFAULT_N = {"alpha": 2000, "eta": 5000, "exponent": 4000}
_VALID_METHODS = {
    "alpha": ("ratio",),
    "eta": ("extrapolation", "integral"),
    "exponent": ("slope-fit",),
}


def cmd_estimate(args) -> int:
    target = args.target
    method = args.method or _VALID_METHODS[target][0]
    if method not in _VALID_METHODS[target]:
        raise ValueError(f"method {method!r} is not valid for target {target!r}")
    N = args.N or _DEFAULT_N[target]
    p = asymptotics.Precision(args.digits)

    if target == "alpha":
        if args.k == 2:
            table = exact.count_binary_upto(N)
        else:
            table = exact.count_kary_upto(args.k, N)
        est = asymptotics.estimate_alpha(table, p)
    elif target == "eta":
        b = asymptotics.scaled_b_recurrence(N, p)
        if method == "extrapolation":
            est = asymptotics.estimate_eta_extrapolation(b, N)
        else:
            print(
                "note: integral route uses the interpreted reading f(t) = 1/g(t); "
                "it is cross-validated against the extrapolation route, not "
                "independently normative",
                file=sys.stderr,
            )
            a = asymptotics.correction_a(N, b)
            est = asymptotics.estimate_eta_integral(a, p)
    else:
        if args.k < 3:
            raise ValueError("exponent estimation needs --k >= 3")
        h = asymptotics.scaled_h_recurrence(args.k, N, p)
        est = asymptotics.estimate_kary_exponent(h)
    print(est.record())
    return 0


def cmd_figure(args) -> int:
    p = asymptotics.Precision(args.digits)
    lines = []
    if args.which == "fig2":
        b = asymptotics.scaled_b_recurrence(1000, p)
        lines.append("n,b_n,inv_sqrt_n,inv_n")
        with mp.workdps(p.dps):
            for n in range(25, 1001):
                inv_sqrt = 1 / mp.sqrt(n)
                inv = mp.mpf(1) / n
                lines.append(
                    f"{n},{_fmt(b[n], p.digits)},{_fmt(inv_sqrt, p.digits)},{_fmt(inv, p.digits)}"
                )
    else:
        ks = (3, 13, 49)
        seqs = {k: asymptotics.scaled_h_recurrence(k, 1000, p) for k in ks}
        lines.append(
            "n," + ",".join(f"h_n_k{k}" for k in ks) + ","
            + ",".join(f"asymptote_k{k}" for k in ks)
        )
        with mp.workdps(p.dps):
            targets = {k: asymptotics.kary_exponent_target(k, p) for k in ks}
            prefs = {k: asymptotics.estimate_kary_prefactor(seqs[k]).value for k in ks}
            for n in range(25, 1001):
                hs = ",".join(_fmt(seqs[k][n], p.digits) for k in ks)
                asym = ",".join(
                    _fmt(prefs[k] * mp.mpf(n) ** targets[k], p.digits) for k in ks
                )
                lines.append(f"{n},{hs},{asym}")
    _write_lines(args.out, lines)
    return 0


def cmd_oeis_check(args) -> int:
    table = exact.count_binary_upto(max(args.upto, 2))
    if args.self_check:
        bfile = oeis.OeisBFile(
            args.id, tuple((n, table.entry(n)) for n in range(args.upto + 1))
        )
    elif args.bfile:
        bfile = oeis.load_bfile(args.bfile, args.id)
    elif args.fetch:
        os.makedirs(args.cache_dir, exist_ok=True)
        dest = os.path.join(args.cache_dir, f"b{args.id[1:]}.txt")
        oeis.fetch_bfile(args.id, dest)
        print(f"fetched {oeis.bfile_url(args.id)} -> {dest}", file=sys.stderr)
        bfile = oeis.load_bfile(dest, args.id)
    else:
        raise ValueError("oeis-check needs --bfile PATH, --fetch, or --self")
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

    ap = argparse.ArgumentParser(
        prog="witrees",
        parents=[common],
        description="Exact counting, uniform sampling and asymptotics for "
        "weakly increasing k-ary trees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="exact number of trees of a given size")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--upto", type=int)
    p.add_argument("--route", choices=("recurrence", "funceq", "brute"), default="recurrence")
    p.add_argument("--format", choices=("plain", "csv"), default="plain")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", parents=[common], help="compute a count table and save it as a cache file")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--kind", choices=("B", "H", "Bmn"))
    p.add_argument("--upto", type=int, required=True,
                   help="size bound (kind B/Bmn) or H-index bound (kind H)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sample", parents=[common], help="draw exactly uniform random trees")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--format", choices=("text", "graph", "encoding"), default="text")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("scaled", parents=[common], help="export a scaled sequence as CSV")
    p.add_argument("--kind", choices=("b", "h", "a"), default="b")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scaled)

    p = sub.add_parser("estimate", parents=[common], help="estimate an asymptotic constant")
    p.add_argument("target", choices=("alpha", "eta", "exponent"))
    p.add_argument("--k", type=int, default=2)
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
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    # global flags use SUPPRESS so that either position wins; fill the rest
    for name, value in (("digits", 30), ("cache_dir", None), ("seed", 0)):
        if not hasattr(args, name):
            setattr(args, name, value if name != "cache_dir" else _default_cache_dir())
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"witrees: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
