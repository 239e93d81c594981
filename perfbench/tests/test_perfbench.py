"""Tests of the benchmark itself, on small inputs so that they run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from witrees import asymptotics, exact  # noqa: E402

SMALL = {
    "tables": {"n2": 120, "m3": 100, "funceq_upto": 40, "pin2": 100, "pin3": 150},
    "sampling": {"n": 40, "samples": 12, "sampler_seed": 5, "brute_n": 6},
}

#: per-layer counts that are computed, not timed; they must repeat exactly
COMPUTED = (
    "cli.stdout_bytes",
    "exact.recurrence_terms",
    "exact.builds",
    "exact.redundant_builds",
    "asymptotics.kernel_terms",
    "sampler.growth_steps",
    "trees.encoded_bytes",
    "cache.bytes_written",
    "cache.bytes_read",
)


def one_pass(workload, tmp_path, trace):
    workdir = tmp_path / f"{workload}-{trace}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    t = tracer.Tracer() if trace else None
    result = workloads.run_pass(workload, SMALL[workload], str(workdir), t)
    result["peak_rss_mb"] = 1.0
    return result


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    spec = declared()
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for workload in ("tables", "sampling"):
        plain = one_pass(workload, tmp_path, False)
        traced = one_pass(workload, tmp_path, True)
        e2e = run.summarize(workload, [0.1, 0.2, 0.3], [plain])
        assert e2e["correct"], e2e["failures"]
        layers = run.summarize(workload, [], [plain, traced])
        for section, record in (("end_to_end", e2e), ("per_layer", layers)):
            emitted = record["metrics"]
            assert list(emitted) == [m["name"] for m in spec[section]]
            for m in spec[section]:
                assert emitted[m["name"]]["unit"] == m["unit"]
                assert isinstance(emitted[m["name"]]["value"], (int, float))


def test_untouched_code_is_not_traced_after_a_pass(tmp_path):
    original = exact.count_binary_upto
    one_pass("tables", tmp_path, True)
    assert exact.count_binary_upto is original
    assert asymptotics._phi_reg.__module__ == "witrees.asymptotics"
    assert not hasattr(asymptotics._phi_reg, "__wrapped__")


def test_injected_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    real = exact.count_binary_funceq

    def off_by_one(N, *args, **kwargs):
        table = real(N, *args, **kwargs)
        values = list(table.values)
        values[-1] += 1
        return exact.CountTable(table.k, table.kind, table.route, tuple(values))

    monkeypatch.setattr(exact, "count_binary_funceq", off_by_one)
    record = run.summarize("tables", [0.1], [one_pass("tables", tmp_path, False)])
    assert not record["correct"]
    assert record["failed"] == 1
    assert record["failed_frac"] == 1 / record["attempted"]
    assert record["failures"][0].startswith("funceq:")


def test_injected_bad_sample_counts_as_failed(tmp_path, monkeypatch):
    from witrees import trees

    monkeypatch.setattr(trees, "decode_encoding", lambda data: trees.root_tree(2))
    record = run.summarize("sampling", [0.1], [one_pass("sampling", tmp_path, False)])
    assert record["failed"] == SMALL["sampling"]["samples"]  # every round trip


def test_computed_counts_repeat_for_one_seed(tmp_path):
    for workload in ("tables", "sampling"):
        first = one_pass(workload, tmp_path, True)["layers"]
        second = one_pass(workload, tmp_path, True)["layers"]
        for name in COMPUTED:
            assert first[name] == second[name], name
    assert first["sampler.growth_steps"] > 0 and first["trees.encoded_bytes"] > 0


def test_kernel_terms_repeat_and_follow_the_cutoff():
    def traced_kernels():
        t = tracer.Tracer()
        t.install()
        try:
            p = asymptotics.Precision(15)
            b = asymptotics.scaled_b_recurrence(200, p)
            asymptotics.correction_a(200, b)
            asymptotics.scaled_h_recurrence(3, 150)
        finally:
            t.uninstall()
        return t.counts["asymptotics.kernel_terms"]

    assert traced_kernels() == traced_kernels() > 0
    # below the truncation every summand l <= n/2 is used
    assert tracer.binary_kernel_terms(20, 45) == sum(n // 2 for n in range(3, 21))
    assert tracer.binary_kernel_terms(2000, 45) < sum(n // 2 for n in range(3, 2001))


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert len({workloads.make_inputs("sampling", s)["sampler_seed"] for s in range(5)}) == 5


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["tables", "sampling"])
def test_pinned_inputs_cover_every_size_in_the_band(workload):
    for seed in range(50):
        inp = workloads.make_inputs(workload, seed)
        if workload == "tables":
            assert inp["n2"] >= inp["pin2"] and 2 * inp["m3"] + 1 >= inp["pin3"]
            assert (2, inp["pin2"]) in workloads.PINNED_DIGESTS
        else:
            assert inp["brute_n"] in workloads.BRUTE_COUNTS
