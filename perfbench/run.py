"""Benchmark of witrees: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run times the set-up (a fresh interpreter that
imports witrees and builds the inputs) twice before each pass, and runs
passes of the workload until the next one would end after ``--seconds``.
Every pass runs in a fresh worker interpreter (``workloads.py``) with an
empty cache directory, so a pass pays what a user pays in one session.
With ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer metrics instead.  Every output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with per-step timings and provenance, is written to ``results/`` next to
this file.  The run exits nonzero, printing no result, when the witrees
sources are missing or a worker crashes.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "witrees")
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("tables", "asymptotics", "sampling")

#: Set-ups timed before each untraced pass, and at least per run; their
#: median is ``setup_s``.
SETUPS_PER_PASS = 2
MIN_SETUPS = 5
#: Every run must end within 180 s; a worker still running after this is killed.
HARD_LIMIT_S = 170.0

#: (name, unit) of the end-to-end metrics, reported by every workload.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

#: Per-step timings of each workload, reported beside the end-to-end metrics.
STEPS = {
    "tables": ("count", "alpha", "table_roundtrip", "kary", "funceq", "oeis"),
    "asymptotics": ("eta_extrap", "eta_integral", "exponent", "fig3"),
    "sampling": ("context", "enumerate", "codec"),
}


class WorkerFailed(RuntimeError):
    """A worker interpreter crashed, timed out or printed no record."""


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> tuple[float, str]:
    """Run the worker once; returns its wall time and standard output."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(flags) or 'pass'} timed out") from None
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise WorkerFailed(f"worker exited {proc.returncode}: {tail[0]}")
    return seconds, proc.stdout


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    start = perf_counter()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    modes = (False, True) if trace else (False,)
    setups, passes = [], []

    def time_setup() -> None:
        setups.append(spawn(workload, seed, hard, "--setup-only")[0])

    while True:
        t0 = perf_counter()
        if not trace:
            # interleaved with the passes, so that the median spans the run
            for _ in range(SETUPS_PER_PASS):
                time_setup()
        out = spawn(workload, seed, hard, *(("--trace",) if modes[len(passes) % len(modes)] else ()))[1]
        try:
            passes.append(json.loads(out.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            raise WorkerFailed("worker printed no pass record") from None
        now = perf_counter()
        if len(passes) >= len(modes) and now + (now - t0) > deadline:
            break
    while not trace and len(setups) < MIN_SETUPS:
        time_setup()
    return setups, passes


def step_metrics(workload: str, passes: list) -> dict:
    """Median over passes of the time of each step, and sample latencies."""
    out = {}
    for step in STEPS[workload]:
        out[f"{step}_s"] = statistics.median(
            sum(op["seconds"] for op in p["ops"] if op["step"] == step) for p in passes
        )
    samples = [op["seconds"] * 1e3 for p in passes for op in p["ops"] if op["step"] == "sample"]
    if samples:
        out["sample_p50_ms"] = statistics.median(samples)
        out["sample_p90_ms"] = statistics.quantiles(samples, n=10)[8]
        out["samples"] = len(samples)
    return out


def summarize(workload: str, setups: list, passes: list) -> dict:
    """The run's record: checked-output counts, metrics and per-step timings."""
    plain = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    wall = statistics.median(p["wall_s"] for p in plain)
    if traced:
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace_overhead_frac":
                value = statistics.median(p["wall_s"] for p in traced) / wall - 1
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
        "failed_frac": len(failed) / len(ops),
        "failures": [f"{op['step']}: {op['error']}" for op in failed[:20]],
        "steps": step_metrics(workload, plain),
    }


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, naming the code even outside git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args, passes: list) -> dict:
    first = passes[0]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "sizes": first["inputs"],
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": first["python"],
        "mpmath": first["mpmath"],
        "mpmath_backend": first["mpmath_backend"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"perfbench: no witrees sources under {PACKAGE}", file=sys.stderr)
        return 2
    try:
        setups, passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = summarize(args.workload, setups, passes)
    record["provenance"] = provenance(args, passes)
    record["passes"] = [
        {k: p.get(k) for k in ("trace", "wall_s", "peak_rss_mb", "layers")} for p in passes
    ]
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    filename = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, filename), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"failed={record['failed']}/{record['attempted']}")
    for name, value in record["steps"].items():
        print(f"# step {name} = {value}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
