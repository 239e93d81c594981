"""Workloads of the witrees benchmark: inputs from a seed, one pass, checks.

Each workload is a closed loop with one client: the next request starts
only after the previous one returned.  ``run_pass`` runs one pass of a
workload in the calling process and checks every output; a request that
raises, exits nonzero or returns a wrong output counts as failed.

Run as a script, this module is the worker that ``run.py`` starts once per
pass, so that every pass runs in a fresh interpreter with an empty cache
directory:

    python3 perfbench/workloads.py --workload tables --seed 1 [--trace] [--setup-only]

It prints one JSON object describing the pass.  With ``--setup-only`` it
stops after the set-up (importing witrees and building the inputs).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "b171792.txt")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import mpmath as mp  # noqa: E402
import witrees  # noqa: E402
from witrees import cli, sampler, trees  # noqa: E402

if not os.path.abspath(witrees.__file__).startswith(SRC + os.sep):
    raise ImportError(f"witrees was imported from {witrees.__file__}, not from {SRC}")

WORKLOADS = ("tables", "asymptotics", "sampling")

ETA = 0.647852
ETA_TOL = 1e-3
ALPHA_TOL = {2: 2e-3, 3: 5e-3}
EXPONENT_TOL = 0.05

#: Number of binary trees of each size, for the exhaustive route.
BRUTE_COUNTS = {6: 214, 7: 1652, 8: 15121}

#: sha256 of the ``witrees count --k K --upto ...`` lines for n = 0..L, by (K, L).
PINNED_DIGESTS = {
    (2, 100): "25fe07e737b68470277941e2c267ec5b06b17d0a094cfb230199a125578fd96d",
    (2, 1190): "80dc29d68e46ff2698f95bc92a87215d8e5bf4a97f93bdec4a9c6290d89c8412",
    (3, 150): "39b06887c48d6b220c18399707fd4f40e21be30ee1f6468aa3ead4428ffc4ed0",
    (3, 1590): "43b869cb9487afc5973980219b08aae1ca12211a987cf3c2b2a5fc71c9f7ce09",
}


def make_inputs(workload: str, seed: int) -> dict:
    """Sizes and sampler seed of one workload; the same seed gives the same inputs.

    The seed shifts each size within a narrow band around its nominal value.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        return {
            "n2": 1200 + rng.randint(-3, 3),
            "m3": 800 + rng.randint(-3, 3),
            "funceq_upto": 250 + rng.randint(-3, 3),
            "pin2": 1190,
            "pin3": 1590,
        }
    if workload == "asymptotics":
        return {
            "eta_n": 3000 + rng.randint(-20, 20),
            "integral_n": 600 + rng.randint(-3, 3),
            "exponent_n": 2000 + rng.randint(0, 10),  # the estimator needs N >= 2000
        }
    if workload == "sampling":
        return {
            "n": 256 + rng.randint(-2, 2),
            "samples": 100,
            "sampler_seed": rng.getrandbits(32),
            "brute_n": 8,
        }
    raise ValueError(f"unknown workload {workload!r}")


class CheckFailed(Exception):
    """A request returned a wrong output."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Pass:
    """Runs the requests of one pass, timing and checking each."""

    def __init__(self, workdir: str, tracer=None) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.ops: list[dict] = []

    def request(self, step: str, call, check=None):
        """Time ``call()``, then check its result; returns it, or None on failure."""
        error = None
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed request is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if error is None and check is not None:
            try:
                check(result)
            except Exception as exc:  # a wrong or unparseable output
                error = f"{type(exc).__name__}: {exc}"
        self.ops.append({"step": step, "seconds": seconds, "error": error})
        return None if error is not None else result

    def cli(self, step: str, argv: list[str], check=None):
        """One ``witrees`` command; its standard output is what gets checked."""
        return self.request(step, lambda: self._main(argv), check)

    def _main(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([*argv, "--cache-dir", self.workdir])
        if rc != 0:
            raise CheckFailed(f"exit {rc}: {err.getvalue().strip()[-300:]}")
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.stdout_bytes"] += len(text.encode())
        return text


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def check_counts(out: str, upto: int, k: int, pin: int) -> None:
    lines = out.splitlines(keepends=True)
    expect(len(lines) == upto + 1, f"expected {upto + 1} rows, got {len(lines)}")
    for n, line in enumerate(lines):
        expect(line.startswith(f"{n}\t"), f"row {n} is {line[:40]!r}")
    digest = hashlib.sha256("".join(lines[: pin + 1]).encode()).hexdigest()
    expect(digest == PINNED_DIGESTS[(k, pin)], f"k={k} counts 0..{pin} differ from the pinned digest")


def check_estimate(out: str, kind: str, n: int, target: float, tol: float) -> None:
    fields = out.strip().split(",")
    expect(len(fields) == 7 and fields[0] == kind, f"bad record {out.strip()!r}")
    expect(int(fields[4]) == n, f"record used N={fields[4]}, requested {n}")
    value = float(fields[1])
    expect(abs(value - target) <= tol, f"{kind} = {value}, expected {target} +- {tol}")


def check_fig3(path: str) -> None:
    with open(path) as fh:
        rows = fh.read().splitlines()
    expect(rows[0] == "n,h_n_k3,h_n_k13,h_n_k49,asymptote_k3,asymptote_k13,asymptote_k49",
           f"bad header {rows[0]!r}")
    expect(len(rows) == 1 + 976, f"expected 976 data rows, got {len(rows) - 1}")
    for i, row in enumerate(rows[1:]):
        fields = row.split(",")
        expect(len(fields) == 7 and int(fields[0]) == 25 + i, f"bad row {row[:60]!r}")
        expect(all(float(x) > 0 for x in fields[1:]), f"nonpositive value in {row[:60]!r}")
    # the prefactor is fitted at the last row, where each asymptote meets h_n
    last = [float(x) for x in rows[-1].split(",")[1:]]
    for h, asym in zip(last[:3], last[3:]):
        expect(abs(h / asym - 1) < 1e-12, f"asymptote {asym} does not meet h_n = {h}")


def roundtrip(tree, n: int) -> None:
    """Validate a sampled tree and round-trip its canonical encoding."""
    expect(trees.validate(tree, 2).ok, "sampled tree does not validate")
    expect(tree.size == n, f"sampled tree has size {tree.size}, not {n}")
    data = trees.canonical_encoding(tree)
    again = trees.canonical_encoding(trees.decode_encoding(data))
    expect(again == data, "encoding does not round-trip byte for byte")


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def tables(p: Pass, inp: dict) -> None:
    """Exact big-integer tables: the same B and H tables are rebuilt per request."""
    n2, m3, nf = inp["n2"], inp["m3"], inp["funceq_upto"]
    counts = p.cli("count", ["count", "--k", "2", "--upto", str(n2)],
                   lambda out: check_counts(out, n2, 2, inp["pin2"]))
    p.cli("alpha", ["estimate", "alpha", "--N", str(n2)],
          lambda out: check_estimate(out, "alpha", n2, 1 / math.log(2), ALPHA_TOL[2]))
    path = os.path.join(p.workdir, f"wit-B-k2-{n2}.txt")
    p.cli("table_roundtrip", ["table", "--k", "2", "--upto", str(n2)],
          lambda out: expect(out == path + "\n" and os.path.isfile(path), f"table saved as {out!r}"))
    p.cli("table_roundtrip", ["cache", "verify", path, "--kind", "B", "--k", "2"],
          lambda out: expect(out == f"ok kind=B k=2 entries={n2 + 1}\n", f"verify said {out!r}"))
    upto3 = 2 * m3 + 1
    p.cli("kary", ["count", "--k", "3", "--upto", str(upto3)],
          lambda out: check_counts(out, upto3, 3, inp["pin3"]))
    p.cli("kary", ["estimate", "alpha", "--k", "3", "--N", str(m3)],
          lambda out: check_estimate(out, "alpha", m3, 2 / math.log(2), ALPHA_TOL[3]))

    def same_as_recurrence(out: str) -> None:
        expect(counts is not None, "no recurrence counts to compare with")
        prefix = "".join(counts.splitlines(keepends=True)[: nf + 1])
        expect(out == prefix, f"series route differs from the recurrence below n={nf}")

    p.cli("funceq", ["count", "--route", "funceq", "--upto", str(nf)], same_as_recurrence)
    p.cli("oeis", ["oeis-check", "--bfile", FIXTURE],
          lambda out: expect("status=ok" in out, f"oeis-check said {out.strip()!r}"))


def asymptotics(p: Pass, inp: dict) -> None:
    """Scaled b/h/a kernels at D = 30 and D = 15, and the nested quadrature."""
    n = inp["eta_n"]
    p.cli("eta_extrap", ["estimate", "eta", "--N", str(n)],
          lambda out: check_estimate(out, "eta", n, ETA, ETA_TOL))
    n = inp["integral_n"]
    p.cli("eta_integral", ["estimate", "eta", "--method", "integral", "--N", str(n), "--digits", "15"],
          lambda out: check_estimate(out, "eta", n, ETA, ETA_TOL))
    n = inp["exponent_n"]
    target = (2 - 3 * math.log(2)) / 4 - 1
    p.cli("exponent", ["estimate", "exponent", "--k", "3", "--N", str(n)],
          lambda out: check_estimate(out, "exponent", n, target, EXPONENT_TOL))
    path = os.path.join(p.workdir, "fig3.csv")
    p.cli("fig3", ["figure", "fig3", "--out", path], lambda out: check_fig3(path))


def sampling(p: Pass, inp: dict) -> None:
    """Exact uniform samples at one size, each round-tripped, then exhaustive generation."""
    n = inp["n"]
    ctx = p.request("context", lambda: sampler.SamplerContext.create(2, n, inp["sampler_seed"]))
    if ctx is not None:
        if p.tracer is not None:
            # same seed and stream; counts getrandbits calls for draw_accept_ratio
            ctx.rng = p.tracer.counting_random(ctx.seed)
        for _ in range(inp["samples"]):
            tree = p.request("sample", lambda: sampler.sample_uniform(ctx, n))
            p.request("codec", lambda: roundtrip(tree, n))
    bn = inp["brute_n"]
    p.cli("enumerate", ["count", "--route", "brute", "--n", str(bn)],
          lambda out: expect(out == f"{BRUTE_COUNTS[bn]}\n", f"brute count said {out.strip()!r}"))


PASSES = {"tables": tables, "asymptotics": asymptotics, "sampling": sampling}


def run_pass(workload: str, inputs: dict, workdir: str, tracer=None) -> dict:
    """One pass of ``workload``; with a tracer, also its per-layer metrics."""
    p = Pass(workdir, tracer)
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        PASSES[workload](p, inputs)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"workload": workload, "trace": tracer is not None, "wall_s": wall, "ops": p.ops}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one pass of a witrees benchmark workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=workroot)
    try:
        result = run_pass(args.workload, inputs, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        inputs=inputs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=sys.version.split()[0],
        mpmath=mp.__version__,
        mpmath_backend=mp.libmp.BACKEND,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
