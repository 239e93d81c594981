import importlib.util
import math
import os
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def test_the_median_interval_is_the_widest_order_statistic_pair_at_95():
    n = paired_bench.PAIRS
    values = [10.0 + i for i in range(n)][::-1]  # unsorted on purpose
    lo, hi, cover = paired_bench.median_interval(values)
    assert (n, lo, hi) == (10, 11.0, 18.0)  # x_(2) and x_(9) of ten
    tail = lambda t: sum(math.comb(n, i) for i in range(t)) / 2**n  # noqa: E731
    assert cover == 1 - 2 * tail(2) >= 0.95 > 1 - 2 * tail(3)


def test_a_pass_record_sums_each_steps_requests():
    record = {"wall_s": 2.0, "peak_rss_mb": 30.0, "ops": [
        {"step": "count", "seconds": 0.5, "error": None},
        {"step": "kary", "seconds": 0.25, "error": None},
        {"step": "count", "seconds": 0.75, "error": None},
    ]}
    assert paired_bench.pass_metrics(record, 0.1) == {
        "setup_s": 0.1, "wall_s": 2.0, "peak_rss_mb": 30.0, "count_s": 1.25, "kary_s": 0.25,
    }


def test_a_printed_line_counts_lower_pairs_and_the_other_sides_spread():
    m = {"median_ratio": 0.7, "lo": 0.6, "hi": 0.8, "coverage": 0.9785, "ratios": [0.7, 1.1, 0.6],
         "this_runs": [0.7, 1.1, 0.6], "against_runs": [1.0, 1.0, 1.0]}
    assert paired_bench.describe("wall_s", m) == (
        "wall_s: ratio 0.700 [0.600, 0.800] (97.9%); lower in 2/3 pairs; "
        "this 0.7, against 1 (IQR 0)")


def test_both_sides_run_from_copies_of_one_path_length_that_write_no_bytecode(tmp_path):
    # two checkouts at different depths, each with stale bytecode
    checkouts = []
    for name in ("a", os.path.join("deeper", "checkout")):
        root = tmp_path / name
        (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (root / "src" / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"stale")
        (root / "src" / "pkg" / "__init__.py").write_text("")
        (root / "src" / "pkg" / "mod.py").write_text("VALUE = 7\n")
        (root / "perfbench" / "__pycache__").mkdir(parents=True)
        (root / "perfbench" / "workloads.py").write_text(
            "import os, sys\n"
            "sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), '..', 'src'))\n"
            "from pkg import mod\n"
            "print(mod.VALUE, os.path.abspath(__file__))\n")
        (root / "tests" / "fixtures").mkdir(parents=True)
        (root / "tests" / "fixtures" / "data.txt").write_text("1\n")
        checkouts.append(str(root))
    parent = tmp_path / "copies"
    copies = paired_bench.stage(tuple(checkouts), str(parent))
    workers = []
    for copy in copies:
        out = paired_bench.spawn(copy, "sampling", 1)[1].split()
        assert out[0] == "7" and out[1].startswith(copy + os.sep)
        workers.append(out[1])
        assert os.path.isfile(os.path.join(copy, "tests", "fixtures", "data.txt"))
    assert workers[0] != workers[1] and len(workers[0]) == len(workers[1])
    assert not [d for d, _, _ in os.walk(parent) if os.path.basename(d) == "__pycache__"]
