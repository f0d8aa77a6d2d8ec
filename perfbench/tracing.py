"""The traced pass: timing wrappers around each layer's public functions.

Tracing lives in the benchmark, not in the program.  :func:`patched`
replaces module and class attributes with wrappers that record a span per
call and restores the originals on exit.  A name bound with
``from … import`` is looked up in the importing module at call time, so
it is patched there; a method is patched on its class; a function the
program imports lazily is patched on its own module.

A span holds its name, start, end, parent span and job id and stays in
memory.  A layer's time is *self time*: the span's duration minus the time
its child spans cover.  Spans opened on another thread (the serving
draw executor) start their own tree there.

Two counters read private memos to tell new work from reuse:
``ParentIndexCache._flat`` (parent-index misses) and
``CandidateScorer._score_memo`` (new candidates).  A change that renames
them breaks the traced pass loudly, with a ``AttributeError``.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = "job"

#: Every per-layer metric: ``(unit, better)``, in report order.  Counts of
#: work done are better lower; only the ratios of useful outcomes to
#: attempts are better higher.
LAYER_METRICS = {
    "data.marginals.count_s": ("s", "lower"),
    "data.marginals.count_calls": ("count", "lower"),
    "data.marginals.cells": ("count", "lower"),
    "bn.quality.parent_index_s": ("s", "lower"),
    "bn.quality.parent_index_misses": ("count", "lower"),
    "bn.quality.parent_index_hit_ratio": ("fraction", "higher"),
    "bn.quality.parent_index_mb": ("MB", "lower"),
    "data.io.csv_read_s": ("s", "lower"),
    "data.io.csv_rows_read": ("count", "lower"),
    "data.chunks.passes": ("count", "lower"),
    "data.chunks.rows_scanned": ("count", "lower"),
    "data.chunks.count_s": ("s", "lower"),
    "data.io.csv_write_s": ("s", "lower"),
    "data.io.csv_bytes_written": ("bytes", "lower"),
    "core.greedy_bayes.network_s": ("s", "lower"),
    "core.greedy_bayes.rounds": ("count", "lower"),
    "core.scoring.score_batch_self_s": ("s", "lower"),
    "core.scoring.candidates": ("count", "lower"),
    "core.scoring.candidates_new": ("count", "lower"),
    "core.scoring.memo_hit_ratio": ("fraction", "higher"),
    "core.score_kernels.kernel_s": ("s", "lower"),
    "core.score_kernels.kernel_calls": ("count", "lower"),
    "core.parent_sets.enum_s": ("s", "lower"),
    "core.parent_sets.enum_calls": ("count", "lower"),
    "dp.mechanisms.select_s": ("s", "lower"),
    "dp.mechanisms.select_calls": ("count", "lower"),
    "core.noisy_conditionals.learn_s": ("s", "lower"),
    "core.noisy_conditionals.count_s": ("s", "lower"),
    "core.sampler.sample_s": ("s", "lower"),
    "core.sampler.rows": ("count", "lower"),
    "serve.coalescer.draw_s": ("s", "lower"),
    "serve.coalescer.draws": ("count", "lower"),
    "serve.coalescer.requests_per_draw": ("count", "higher"),
    "serve.coalescer.loop_share": ("fraction", "lower"),
    "proc.cpu_per_wall": ("ratio", "lower"),
    "proc.minflt": ("count", "lower"),
    "proc.sys_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.coverage_without_network": ("fraction", "higher"),
}

#: The span around the whole greedy loop.  Its self time takes in every
#: part of network learning no other wrapper names, so coverage is also
#: reported without it: a layer the tracing misses shows as lost coverage.
CATCH_ALL = "core.greedy_bayes.network"

#: Span name -> the ``*_s`` metric that reports its self time.
SELF_TIME_METRICS = {
    "data.marginals.count": "data.marginals.count_s",
    "bn.quality.parent_index": "bn.quality.parent_index_s",
    "data.io.csv_read": "data.io.csv_read_s",
    "data.chunks.count": "data.chunks.count_s",
    "data.io.csv_write": "data.io.csv_write_s",
    "core.greedy_bayes.network": "core.greedy_bayes.network_s",
    "core.scoring.score_batch": "core.scoring.score_batch_self_s",
    "core.score_kernels.kernel": "core.score_kernels.kernel_s",
    "core.parent_sets.enum": "core.parent_sets.enum_s",
    "dp.mechanisms.select": "dp.mechanisms.select_s",
    "core.noisy_conditionals.learn": "core.noisy_conditionals.learn_s",
    "core.noisy_conditionals.count": "core.noisy_conditionals.count_s",
    "core.sampler.sample": "core.sampler.sample_s",
    "serve.coalescer.draw": "serve.coalescer.draw_s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_time")

    def __init__(self, name: str, parent: Optional["Span"], job: int) -> None:
        self.name = name
        self.parent = parent
        self.job = job
        self.child_time = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Spans and counters of the traced jobs, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.job = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.job)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[self.job][name] += amount

    def layer_metrics(self, job: int) -> Dict[str, float]:
        """Per-layer metrics of one traced job (zero for idle layers)."""
        values = {name: 0.0 for name in LAYER_METRICS}
        counts = self.counts[job]
        for name in values:
            values[name] = float(counts.get(name, 0.0))
        root = None
        draw_total = 0.0
        layer_total = 0.0
        catch_all = 0.0
        for span in self.spans:
            if span.job != job:
                continue
            if span.name == ROOT:
                root = span
                continue
            values[SELF_TIME_METRICS[span.name]] += span.self_time
            layer_total += span.self_time
            if span.name == CATCH_ALL:
                catch_all += span.self_time
            if span.name == "serve.coalescer.draw":
                draw_total += span.duration
        values["data.io.csv_rows_read"] = (
            counts.get("data.io.schema_rows", 0.0) + values["data.chunks.rows_scanned"]
        )
        calls = counts.get("bn.quality.parent_index_calls", 0.0)
        if calls:
            values["bn.quality.parent_index_hit_ratio"] = (
                1.0 - values["bn.quality.parent_index_misses"] / calls
            )
        if values["core.scoring.candidates"]:
            values["core.scoring.memo_hit_ratio"] = (
                1.0
                - values["core.scoring.candidates_new"]
                / values["core.scoring.candidates"]
            )
        if values["serve.coalescer.draws"]:
            values["serve.coalescer.requests_per_draw"] = (
                counts["serve.coalescer.requests"] / values["serve.coalescer.draws"]
            )
        if root is not None:
            values["job_s"] = root.duration
            # Layer self times over the job's wall time.  On one thread this
            # is the share not spent directly in the job's own frame; the
            # serving draws run on the executor thread, beside the loop.
            values["trace.coverage"] = layer_total / root.duration
            values["trace.coverage_without_network"] = (
                layer_total - catch_all
            ) / root.duration
            if draw_total:
                values["serve.coalescer.loop_share"] = 1.0 - draw_total / root.duration
        return values


def _wrap(
    recorder: Recorder,
    name: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(*args, **kwargs) if before else None
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after:
            after(token, result, *args, **kwargs)
        return result

    return wrapper


def _wrap_generator(
    recorder: Recorder, name: str, fn: Callable, start: Callable, item: Callable
) -> Callable:
    """Time each step of a generator: its work runs inside ``next``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start()
        iterator = fn(*args, **kwargs)
        try:
            while True:
                span = recorder.open(name)
                try:
                    value = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.close(span)
                item(value)
                yield value
        finally:
            iterator.close()

    return wrapper


def _patch_table(rec: Recorder):
    """``(owner, attribute, replacement factory)`` for every traced call."""
    import repro.core.greedy_bayes as greedy_bayes
    import repro.core.privbayes as privbayes
    import repro.core.sampler as sampler
    import repro.core.scoring as scoring
    import repro.data.chunks as chunks
    import repro.data.io as csv_io
    import repro.serve.coalescer as coalescer
    from repro.bn.quality import ParentIndexCache
    from repro.core.noisy_conditionals import JointCounter
    from repro.data.io import CsvSource

    def plain(name, before=None, after=None):
        return lambda fn: _wrap(rec, name, fn, before, after)

    def counted(*metrics):
        def after(token, result, *a, **k):
            for metric in metrics:
                rec.count(metric)

        return after

    def joint_cells(token, result, *a, **k):
        rec.count("data.marginals.count_calls")
        rec.count("data.marginals.cells", result[0].size)

    def index_miss(cache, parents):
        return parents not in cache._flat

    def index_after(miss, result, *a, **k):
        rec.count("bn.quality.parent_index_calls")
        if miss:
            rec.count("bn.quality.parent_index_misses")
            rec.count("bn.quality.parent_index_mb", result[0].nbytes / 2**20)

    def memo_size(scorer, candidates):
        return len(scorer._score_memo)

    def memo_after(before, result, scorer, candidates):
        rec.count("core.greedy_bayes.rounds")
        rec.count("core.scoring.candidates", len(candidates))
        rec.count("core.scoring.candidates_new", len(scorer._score_memo) - before)

    def schema_rows(token, result, source, *a, **k):
        rec.count("data.io.schema_rows", source.n)

    def bytes_written(token, result, source, path, *a, **k):
        rec.count("data.io.csv_bytes_written", Path(path).stat().st_size)

    def sampled(token, table, *a, **k):
        rec.count("core.sampler.rows", table.n)

    def drawn(token, tables, model, attributes, counts, *a, **k):
        rec.count("serve.coalescer.draws")
        rec.count("serve.coalescer.requests", len(counts))

    def chunk_steps(fn):
        return _wrap_generator(
            rec,
            "data.io.csv_read",
            fn,
            lambda: rec.count("data.chunks.passes"),
            lambda chunk: rec.count(
                "data.chunks.rows_scanned",
                next(iter(chunk.values())).shape[0] if chunk else 0,
            ),
        )

    def sample_steps(fn):
        return _wrap_generator(
            rec, "core.sampler.sample", fn, lambda: None,
            lambda table: rec.count("core.sampler.rows", table.n),
        )

    network = plain("core.greedy_bayes.network")
    learn = plain("core.noisy_conditionals.learn")
    enum = plain("core.parent_sets.enum", after=counted("core.parent_sets.enum_calls"))
    kernel = plain(
        "core.score_kernels.kernel", after=counted("core.score_kernels.kernel_calls")
    )
    sample = plain("core.sampler.sample", after=sampled)
    return [
        (scoring, "stacked_joint_counts", plain("data.marginals.count", after=joint_cells)),
        (scoring, "score_F_batch", kernel),
        (scoring, "score_R_segments", kernel),
        (scoring, "score_I_segments", kernel),
        (scoring.CandidateScorer, "score_batch",
         plain("core.scoring.score_batch", memo_size, memo_after)),
        (greedy_bayes, "exponential_mechanism",
         plain("dp.mechanisms.select", after=counted("dp.mechanisms.select_calls"))),
        (greedy_bayes, "maximal_parent_sets", enum),
        (greedy_bayes, "maximal_parent_sets_generalized", enum),
        (privbayes, "greedy_bayes_fixed_k", network),
        (privbayes, "greedy_bayes_theta", network),
        (privbayes, "noisy_conditionals_fixed_k", learn),
        (privbayes, "noisy_conditionals_general", learn),
        (privbayes, "sample_synthetic", sample),
        (privbayes, "sample_synthetic_chunks", sample_steps),
        (sampler, "sample_synthetic", sample),
        (coalescer, "sample_synthetic_split", plain("serve.coalescer.draw", after=drawn)),
        (ParentIndexCache, "flat", plain("bn.quality.parent_index", index_miss, index_after)),
        (JointCounter, "warm", plain("core.noisy_conditionals.count")),
        (CsvSource, "__init__", plain("data.io.csv_read", after=schema_rows)),
        (CsvSource, "chunks", chunk_steps),
        (csv_io, "write_csv", plain("data.io.csv_write", after=bytes_written)),
        (chunks, "stream_grouped_joint_counts", plain("data.chunks.count")),
    ]


def patch_targets():
    """``(owner, attribute)`` of every patched name, for the tests."""
    return [(owner, attr) for owner, attr, _ in _patch_table(Recorder())]


def original(owner, attr):
    """The attribute as stored on its owner (no descriptor binding)."""
    return vars(owner)[attr]


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Install every wrapper; restore the originals however the block exits."""
    saved = []
    try:
        for owner, attr, factory in _patch_table(recorder):
            fn = original(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, factory(fn))
        yield recorder
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
