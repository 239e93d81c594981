"""Compare this checkout with another one by alternating single benchmark passes.

    python3 tools/paired_bench.py --against DIR --label NAME

Each of the three workloads runs ten pairs.  A pair is one pass of
``perfbench/workloads.py`` from this checkout and one from DIR, with the
same seed (1, 2 and 3 in turn, so the ratios span the inputs' small spread
of sizes), each in a fresh interpreter that imports its own ``src/``; which
side goes first alternates from pair to pair.  Each
side also times one ``--setup-only`` start per pair.  Slow spells of a
shared host tend to last longer than one pass, so both passes of a pair see
them, and the pair's ratio (this / DIR) cancels most of them.

For ``setup_s``, ``wall_s``, ``peak_rss_mb`` and the seconds of each step,
the tool prints the median of the per-pair ratios and a distribution-free
interval for it: the order statistics x_(j) and x_(n+1-j) of the n ratios,
with the largest j whose binomial coverage is still at least 95% (j = 2 of
10, 97.9%).  A ratio below 1 means this checkout is lower.  Beside it are
the pairs in which this checkout is lower, each side's median and the
interquartile range of DIR's values, the spread a claimed gain must exceed.
The record goes to ``BENCH_<label>.json`` at this checkout's root, with
every pair's ratio and both sides' values; each side is named by its HEAD
commit and by a sha256 of its ``src/witrees`` sources, which also tells
uncommitted edits apart.  Every output is checked by the worker; the tool
exits 1 if any request failed, after writing the record.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tables", "asymptotics", "sampling")
SEEDS = (1, 2, 3)
PAIRS = 10
LEVEL = 0.95


def median_interval(values: list) -> tuple[float, float, float]:
    """(lo, hi, coverage) of the order-statistic interval for the median of ``values``.

    [x_(j), x_(n+1-j)] holds the median with probability
    1 - 2 P(Bin(n, 1/2) < j); j is the largest that keeps this at least
    LEVEL, and 1 when none does.
    """
    xs = sorted(values)
    n = len(xs)

    def coverage(j: int) -> float:
        return 1 - 2 * sum(math.comb(n, i) for i in range(j)) / 2**n

    j = 1
    while j < (n + 1) // 2 and coverage(j + 1) >= LEVEL:
        j += 1
    return xs[j - 1], xs[n - j], coverage(j)


def pass_metrics(record: dict, setup_s: float) -> dict:
    """End-to-end metrics and per-step seconds of one worker pass."""
    out = {"setup_s": setup_s, "wall_s": record["wall_s"], "peak_rss_mb": record["peak_rss_mb"]}
    for op in record["ops"]:
        key = f"{op['step']}_s"
        out[key] = out.get(key, 0.0) + op["seconds"]
    return out


def spawn(checkout: str, workload: str, seed: int, *flags: str) -> tuple[float, str]:
    """Run one worker from ``checkout``; its wall time and standard output."""
    worker = os.path.join(checkout, "perfbench", "workloads.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, worker, "--workload", workload, "--seed", str(seed), *flags]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise RuntimeError(f"worker in {checkout} exited {proc.returncode}: {tail[0]}")
    return seconds, proc.stdout


def one_side(checkout: str, workload: str, seed: int) -> tuple[dict, list]:
    """One set-up and one pass from ``checkout``: their metrics and failed requests."""
    setup_s = spawn(checkout, workload, seed, "--setup-only")[0]
    record = json.loads(spawn(checkout, workload, seed)[1].strip().splitlines()[-1])
    failures = [f"{op['step']}: {op['error']}" for op in record["ops"] if op["error"] is not None]
    return pass_metrics(record, setup_s), failures


def compare(workload: str, against: str) -> dict:
    """Run PAIRS alternating pairs of passes; the summary of their ratios."""
    this_runs, other_runs, failures = [], [], []
    for i in range(PAIRS):
        seed = SEEDS[i % len(SEEDS)]
        sides = ((ROOT, this_runs), (against, other_runs))
        for checkout, runs in sides if i % 2 == 0 else sides[::-1]:
            metrics, failed = one_side(checkout, workload, seed)
            runs.append(metrics)
            failures += failed
    summary = {}
    for name in this_runs[0]:
        ratios = [a[name] / b[name] for a, b in zip(this_runs, other_runs)
                  if name in a and b.get(name)]
        if len(ratios) < PAIRS:
            continue  # a step that took no time on the other side, or is missing there
        lo, hi, cover = median_interval(ratios)
        summary[name] = {
            "median_ratio": statistics.median(ratios),
            "lo": lo,
            "hi": hi,
            "coverage": cover,
            "ratios": ratios,
            "this_runs": [r[name] for r in this_runs],
            "against_runs": [r[name] for r in other_runs],
        }
    return {"metrics": summary, "failed": len(failures), "failures": failures[:20]}


def describe(name: str, m: dict) -> str:
    """One printed line: the ratio and its interval, the pairs in which this
    checkout is lower, both medians and the other side's interquartile range."""
    q1, _, q3 = statistics.quantiles(m["against_runs"], n=4)
    lower = sum(r < 1 for r in m["ratios"])
    return (f"{name}: ratio {m['median_ratio']:.3f} [{m['lo']:.3f}, {m['hi']:.3f}] "
            f"({m['coverage']:.1%}); lower in {lower}/{len(m['ratios'])} pairs; "
            f"this {statistics.median(m['this_runs']):.4g}, "
            f"against {statistics.median(m['against_runs']):.4g} (IQR {q3 - q1:.3g})")


def provenance(checkout: str) -> dict:
    """The commit and a digest of the package sources of one checkout."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    package = os.path.join(checkout, "src", "witrees")
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit or None, "source_sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", required=True, help="the other checkout's root")
    ap.add_argument("--label", required=True, help="names the record BENCH_<label>.json")
    args = ap.parse_args(argv)
    against = os.path.abspath(args.against)
    if not os.path.isfile(os.path.join(against, "perfbench", "workloads.py")):
        ap.error(f"{against} has no perfbench/workloads.py")
    record = {
        "label": args.label,
        "seeds": SEEDS,
        "pairs": PAIRS,
        "level": LEVEL,
        "this": provenance(ROOT),
        "against": provenance(against),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": {},
    }
    for workload in WORKLOADS:
        result = compare(workload, against)
        record["workloads"][workload] = result
        for name, m in result["metrics"].items():
            print(f"{workload} {describe(name, m)}")
        for failure in result["failures"]:
            print(f"{workload} FAILED {failure}")
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 1 if any(w["failed"] for w in record["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
