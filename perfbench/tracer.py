"""Per-layer tracing of witrees, installed from outside the package.

Each of the seven witrees modules is a layer.  ``Tracer.install`` replaces
every public function of a layer, in every witrees namespace that binds it
(``sampler.evolution_step`` as well as ``trees.evolution_step``), by a
wrapper that records a span: calls, total time and self time.  A span's
self time is its duration minus the durations of the spans nested in it,
so the self times of all layers add up to the traced time spent inside
witrees; the rest of a pass is reported as ``unattributed_s``.

Spans are aggregated in memory per function.  A few functions carry hooks
that record counts where the work happens (table builds, kernel terms,
encoded bytes, cache bytes, sampler phases).  ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import random
from collections import Counter, defaultdict
from time import perf_counter

import mpmath as mp

LAYERS = ("cli", "exact", "asymptotics", "sampler", "trees", "cache", "oeis")

#: Functions of the exact layer that build a count table; each call is one build.
TABLE_FUNCTIONS = (
    "exact.count_binary_upto",
    "exact.count_kary_upto",
    "exact.count_binary_funceq",
    "exact.count_by_max_label",
)

#: Private hot functions whose calls are counted without a span.
COUNTED = ("asymptotics._phi_reg", "sampler._randbelow")

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("exact.self_s", "s"),
    ("exact.build_s", "s"),
    ("exact.builds", "count"),
    ("exact.redundant_builds", "count"),
    ("exact.build_reuse_ratio", "ratio"),
    ("exact.recurrence_terms", "count"),
    ("exact.max_count_bits", "bits"),
    ("asymptotics.self_s", "s"),
    ("asymptotics.scaled_b_s", "s"),
    ("asymptotics.scaled_h_s", "s"),
    ("asymptotics.correction_a_s", "s"),
    ("asymptotics.integral_self_s", "s"),
    ("asymptotics.phi_reg_calls", "count"),
    ("asymptotics.kernel_terms", "count"),
    ("sampler.self_s", "s"),
    ("sampler.descent_s", "s"),
    ("sampler.growth_s", "s"),
    ("sampler.growth_steps", "count"),
    ("sampler.draw_accept_ratio", "ratio"),
    ("trees.self_s", "s"),
    ("trees.evolution_step_s", "s"),
    ("trees.evolution_step_calls", "count"),
    ("trees.bullet_positions_s", "s"),
    ("trees.bullet_positions_calls", "count"),
    ("trees.encode_s", "s"),
    ("trees.decode_s", "s"),
    ("trees.validate_s", "s"),
    ("trees.encoded_bytes", "bytes"),
    ("cache.self_s", "s"),
    ("cache.save_s", "s"),
    ("cache.load_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("cache.bytes_read", "bytes"),
    ("oeis.self_s", "s"),
    ("oeis.find_shift_s", "s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


class CountingRandom(random.Random):
    """``random.Random`` that counts ``getrandbits`` calls; same stream."""

    def __init__(self, seed, counts: Counter):
        self.counts = counts
        super().__init__(seed)

    def getrandbits(self, k: int) -> int:
        self.counts["getrandbits"] += 1
        return super().getrandbits(k)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _cutoff():
    # the scaled kernels' ``_term_cutoff`` at the current working precision
    return mp.mpf(10) ** (-(mp.mp.dps + 3))


def binary_kernel_terms(N: int, dps: int) -> int:
    """Inner-loop terms of ``scaled_b_recurrence(N)`` at ``dps`` digits."""
    with mp.workdps(dps):
        ln2, cutoff = mp.ln(2), _cutoff()
        w, L = ln2, 0  # L weights (ln 2)^l / l! are not below the cutoff
        while w >= cutoff:
            L += 1
            w *= ln2 / (L + 1)
    return sum(min(n // 2, L) for n in range(3, N + 1))


def kary_kernel_terms(k: int, N: int, dps: int) -> int:
    """Inner-loop terms of ``scaled_h_recurrence(k, N)`` at ``dps`` digits."""
    with mp.workdps(dps):
        cutoff = _cutoff()
        base = mp.ln(2) / (k - 1)
        u, scale, S = base, k - 1, 0
        while u * scale >= cutoff:
            S += 1
            u *= base / (S + 1)
            scale *= k - 1
    return sum(min(n - (n + k - 2) // k, S) for n in range(2, N + 1))


def correction_kernel_terms(N: int, dps: int) -> int:
    """Inner-loop terms of ``correction_a(N, b)`` for ``b`` at ``dps`` digits."""
    terms = binary_kernel_terms(N, dps)
    ln_ln2 = math.log(math.log(2.0))
    ln_cutoff = math.log(10.0) * (-(dps + 3))
    with mp.workdps(dps):
        ln2, cutoff = mp.ln(2), _cutoff()
        for n in range(3, N + 1):
            l0 = n // 2 + 1
            if l0 * ln_ln2 - math.lgamma(l0 + 1) <= ln_cutoff:
                continue
            w = mp.power(ln2, l0) / mp.factorial(l0)
            for l in range(l0, n - 1):
                if w < cutoff:
                    break
                terms += 1
                w *= ln2 / (l + 1)
    return terms


def table_recurrence_terms(qual: str, table) -> int:
    """Summands the size recurrence adds up to build ``table``."""
    if qual == "exact.count_binary_upto":
        return sum(n // 2 for n in range(3, table.max_index + 1))
    if qual == "exact.count_kary_upto":
        k = table.k
        return sum(m - (m + k - 2) // k for m in range(2, table.max_index + 1))
    return 0  # the series and stratified routes are not the size recurrence


class Tracer:
    """Wraps witrees' public functions and aggregates their spans."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[float] = []  # time of nested spans, per open span
        self._undo: list[tuple] = []
        self._built: dict = {}  # (function, k) -> largest index built
        self._sample_growth_t0 = None
        self._in_sample = False
        self._enter = {
            "sampler.sample_uniform": self._sample_start,
            "trees.root_tree": self._growth_start,
            "trees.evolution_step": self._growth_step,
        }
        self._leave = {
            "sampler.sample_uniform": self._sample_done,
            "asymptotics.scaled_b_recurrence": self._scaled_b_done,
            "asymptotics.scaled_h_recurrence": self._scaled_h_done,
            "asymptotics.correction_a": self._correction_done,
            "trees.canonical_encoding": self._encoded,
            "cache.cache_save": self._saved,
            "cache.cache_load": self._loaded,
        }
        for qual in TABLE_FUNCTIONS:
            self._leave[qual] = functools.partial(self._table_built, qual)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("witrees")]
        modules += [importlib.import_module(f"witrees.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, fn in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)  # its work runs in the caller
                ):
                    continue
                wrappers[id(fn)] = self._span(f"{layer}.{name}", fn)
        for qual in COUNTED:
            layer, name = qual.split(".")
            fn = getattr(modules[1 + LAYERS.index(layer)], name)
            wrappers[id(fn)] = self._counter(qual, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            mod, name, obj = self._undo.pop()
            setattr(mod, name, obj)

    def counting_random(self, seed) -> CountingRandom:
        return CountingRandom(seed, self.counts)

    def _counter(self, qual: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, qual: str, fn):
        open_spans = self._open
        enter = self._enter.get(qual)
        leave = self._leave.get(qual)
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if enter is not None:
                enter()
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                nested = open_spans.pop()
                calls[qual] += 1
                total[qual] += dur
                self_time[qual] += dur - nested
                if open_spans:
                    open_spans[-1] += dur
            if leave is not None:
                leave(fn, args, kwargs, result, t0, t1)
            if open_spans:
                # hook time belongs to no layer: the parent's self time
                # excludes it, so it lands in ``unattributed_s``
                open_spans[-1] += perf_counter() - t1
            return result

        return span

    # -- hooks ----------------------------------------------------------------

    def _sample_start(self) -> None:
        self._in_sample = True
        self._sample_growth_t0 = None

    def _growth_start(self) -> None:
        if self._in_sample and self._sample_growth_t0 is None:
            self._sample_growth_t0 = perf_counter()

    def _growth_step(self) -> None:
        if self._in_sample:
            self.counts["sampler.growth_steps"] += 1

    def _sample_done(self, fn, args, kwargs, result, t0, t1) -> None:
        self._in_sample = False
        mark = self._sample_growth_t0
        if mark is not None:
            self.total["sampler.descent"] += mark - t0
            self.total["sampler.growth"] += t1 - mark

    def _table_built(self, qual, fn, args, kwargs, result, t0, t1) -> None:
        size = getattr(result, "max_index", None)
        if size is None:  # label-stratified table
            size, k = result.size_bound, 2
            bits = max(v.bit_length() for v in result.values.values())
        else:
            k = result.k
            bits = result.values[-1].bit_length()  # counts increase with size
        key = (qual, k)
        if self._built.get(key, -1) >= size:
            self.counts["exact.redundant_builds"] += 1
        self._built[key] = max(self._built.get(key, -1), size)
        self.counts["exact.builds"] += 1
        self.counts["exact.recurrence_terms"] += table_recurrence_terms(qual, result)
        self.counts["exact.max_count_bits"] = max(self.counts["exact.max_count_bits"], bits)

    def _scaled_b_done(self, fn, args, kwargs, result, t0, t1) -> None:
        a = _bound(fn, args, kwargs)
        self.counts["asymptotics.kernel_terms"] += binary_kernel_terms(
            a["N"], a["precision"].dps
        )

    def _scaled_h_done(self, fn, args, kwargs, result, t0, t1) -> None:
        a = _bound(fn, args, kwargs)
        self.counts["asymptotics.kernel_terms"] += kary_kernel_terms(
            a["k"], a["N"], a["precision"].dps
        )

    def _correction_done(self, fn, args, kwargs, result, t0, t1) -> None:
        a = _bound(fn, args, kwargs)
        self.counts["asymptotics.kernel_terms"] += correction_kernel_terms(
            a["N"], a["b"].precision.dps
        )

    def _encoded(self, fn, args, kwargs, result, t0, t1) -> None:
        self.counts["trees.encoded_bytes"] += len(result)

    def _saved(self, fn, args, kwargs, result, t0, t1) -> None:
        self.counts["cache.bytes_written"] += os.path.getsize(_bound(fn, args, kwargs)["path"])

    def _loaded(self, fn, args, kwargs, result, t0, t1) -> None:
        self.counts["cache.bytes_read"] += os.path.getsize(_bound(fn, args, kwargs)["path"])

    # -- report ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for q, v in self.self_time.items() if q.startswith(prefix)), 0.0)

    def metrics(self, traced_wall_s: float) -> dict:
        """Per-layer metrics of everything traced so far.

        ``trace_overhead_frac`` needs an untraced pass and is filled in by
        the caller.
        """
        c, tot, calls = self.counts, self.total, self.calls
        builds = c["exact.builds"]
        draws = c["getrandbits"]
        m = {
            "cli.stdout_bytes": c["cli.stdout_bytes"],
            "exact.build_s": sum(tot[q] for q in TABLE_FUNCTIONS),
            "exact.builds": builds,
            "exact.redundant_builds": c["exact.redundant_builds"],
            "exact.build_reuse_ratio": c["exact.redundant_builds"] / builds if builds else 0.0,
            "exact.recurrence_terms": c["exact.recurrence_terms"],
            "exact.max_count_bits": c["exact.max_count_bits"],
            "asymptotics.scaled_b_s": tot["asymptotics.scaled_b_recurrence"],
            "asymptotics.scaled_h_s": tot["asymptotics.scaled_h_recurrence"],
            "asymptotics.correction_a_s": tot["asymptotics.correction_a"],
            "asymptotics.integral_self_s": self.self_time["asymptotics.estimate_eta_integral"],
            "asymptotics.phi_reg_calls": c["asymptotics._phi_reg"],
            "asymptotics.kernel_terms": c["asymptotics.kernel_terms"],
            "sampler.descent_s": tot["sampler.descent"],
            "sampler.growth_s": tot["sampler.growth"],
            "sampler.growth_steps": c["sampler.growth_steps"],
            "sampler.draw_accept_ratio": c["sampler._randbelow"] / draws if draws else 0.0,
            "trees.evolution_step_s": tot["trees.evolution_step"],
            "trees.evolution_step_calls": calls["trees.evolution_step"],
            "trees.bullet_positions_s": tot["trees.bullet_positions"],
            "trees.bullet_positions_calls": calls["trees.bullet_positions"],
            "trees.encode_s": tot["trees.canonical_encoding"],
            "trees.decode_s": tot["trees.decode_encoding"],
            "trees.validate_s": tot["trees.validate"],
            "trees.encoded_bytes": c["trees.encoded_bytes"],
            "cache.save_s": tot["cache.cache_save"],
            "cache.load_s": tot["cache.cache_load"],
            "cache.bytes_written": c["cache.bytes_written"],
            "cache.bytes_read": c["cache.bytes_read"],
            "oeis.find_shift_s": tot["oeis.find_shift"],
        }
        attributed = 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self(layer)
            attributed += m[f"{layer}.self_s"]
        m["traced_wall_s"] = traced_wall_s
        m["unattributed_s"] = traced_wall_s - attributed
        return m
