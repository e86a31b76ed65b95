"""Span recorder for the traced benchmark run.

Wraps public functions of ``covmem`` from outside, at the name each
caller looks them up under, and records one span per call: name, start,
end and parent.  Counts of work done (batches built, distance pairs,
removals, ...) are recorded at the same boundaries.  Only the traced run
installs it; untraced runs wrap nothing.

A layer's self time is the duration of its spans minus the part their
direct child spans cover.  Spans named ``bench.*`` belong to the
benchmark itself (its correctness gates) and are left out of the layer
split, so they land in the time no layer accounts for.
"""
import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

from covmem import baselines, density, harness, predictors, samples, selection, workloads


class Recorder:
    """Spans and counts of one phase (a set-up build or a measured pass)."""

    def __init__(self):
        self._reset()

    def _reset(self) -> None:
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``before(args)`` runs ahead of the call; ``after(counts, args,
        result, before_value)`` records counts once it returns.
        """
        original = getattr(owner, attr)  # a missing layer fails loudly here

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counts, args, result, pre)
            return result

        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Replace a generator function so that every ``next()`` is a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            items = iter(original(*args, **kwargs))
            while True:
                idx = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        setattr(owner, attr, wrapper)

    def drain(self) -> tuple[dict[str, float], Counter]:
        """Self time per span name and the counts of this phase; then reset."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at the end of a phase")
        durations = np.array(self._ends) - np.array(self._starts)
        children = np.zeros(len(durations))
        parents = np.array(self._parents, dtype=np.int64)
        nested = parents >= 0
        np.add.at(children, parents[nested], durations[nested])
        self_times: dict[str, float] = defaultdict(float)
        for name, own in zip(self._names, durations - children):
            self_times[name] += float(own)
        counts = self.counts
        self._reset()
        return dict(self_times), counts


# Counting callbacks --------------------------------------------------------


def _count_batches(counts, args, result, pre):
    counts["batching.batches_built"] += len(result)


def _count_square_pairs(counts, args, result, pre):
    n = result.shape[0]
    counts["distances.pairs"] += n * (n - 1) // 2


def _count_cross_pairs(counts, args, result, pre):
    counts["distances.pairs"] += result.shape[0] * result.shape[1]


def _count_removal(counts, args, result, pre):
    counts["density.removals"] += 1


def _count_fit(counts, args, result, pre):
    counts["predictors.fit_calls"] += 1


def _pool_size(args):
    memory, new_samples = args[0], args[1]
    return memory.sample_count + len(new_samples)


def _count_select(counts, args, result, pool_size):
    counts["selection.select_calls"] += 1
    counts["selection.samples_discarded"] += pool_size - len(result.kept_ids)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer split reports."""
    wrap = recorder.wrap
    wrap(selection, "select", "selection.select", before=_pool_size, after=_count_select)
    for module in (selection, baselines):
        wrap(module, "bbdr", "batching.bbdr")
        wrap(module, "batch_samples", "batching.batch_samples", after=_count_batches)
    wrap(selection, "distance_matrix", "distances.distance_matrix", after=_count_square_pairs)
    wrap(selection, "cross_distance_matrix", "distances.cross_distance_matrix",
         after=_count_cross_pairs)
    wrap(density.DensityState, "__init__", "density.init")
    wrap(density.DensityState, "remove_batch", "density.remove_batch", after=_count_removal)
    wrap(selection, "discard_probabilities", "selection.discard_draw")
    wrap(selection, "draw_index", "selection.discard_draw")
    wrap(selection, "retrain_decision", "selection.retrain_decision")
    wrap(baselines.RandomStrategy, "select", "baselines.random.select")
    wrap(baselines.FifoStrategy, "select", "baselines.fifo.select")
    wrap(samples.ReplayMemory, "sorted_samples", "samples.sorted_samples")
    wrap(samples.ReplayMemory, "replace_contents", "samples.replace_contents")
    for cls in (predictors.OraclePredictor, predictors.LikelihoodPredictor):
        wrap(cls, "predict_many", "predictors.predict_many")
        wrap(cls, "fit", "predictors.fit", after=_count_fit)
    for module in (workloads, harness):
        recorder.wrap_generator(module, "generate", "workloads.generate")
    wrap(harness, "eval_set", "workloads.eval_set")
    wrap(harness, "write_reports", "harness.write_reports")
    wrap(harness, "run", "harness.run")


# Metric name -> span name whose self time it reports.
LAYER_TIMES = {
    "workloads.generate_s": "workloads.generate",
    "workloads.eval_set_s": "workloads.eval_set",
    "predictors.predict_many_s": "predictors.predict_many",
    "predictors.fit_s": "predictors.fit",
    "batching.bbdr_s": "batching.bbdr",
    "batching.batch_samples_s": "batching.batch_samples",
    "distances.distance_matrix_s": "distances.distance_matrix",
    "distances.cross_distance_matrix_s": "distances.cross_distance_matrix",
    "density.init_s": "density.init",
    "density.remove_batch_s": "density.remove_batch",
    "selection.select_self_s": "selection.select",
    "selection.discard_draw_s": "selection.discard_draw",
    "selection.retrain_decision_s": "selection.retrain_decision",
    "baselines.random.select_s": "baselines.random.select",
    "baselines.fifo.select_s": "baselines.fifo.select",
    "samples.sorted_samples_s": "samples.sorted_samples",
    "samples.replace_contents_s": "samples.replace_contents",
    "harness.run_self_s": "harness.run",
    "harness.write_reports_s": "harness.write_reports",
}

# Counters recorded at the wrapped boundaries; each must repeat exactly.
LAYER_COUNTS = (
    "batching.batches_built",
    "distances.pairs",
    "density.removals",
    "selection.samples_discarded",
    "predictors.fit_calls",
    "selection.select_calls",
)
