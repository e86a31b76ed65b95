"""The traced benchmark run wraps covmem names; each one must still exist.

``perfbench/spans.py`` replaces functions and methods of covmem at the
names its callers look them up under.  A deleted or renamed name breaks
only the traced run, so this test installs the span recorder with a
probe that checks every name it is handed and wraps nothing.
"""
import importlib.util
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np

from covmem import ReplayMemory, Sample, StrategyConfig, generate, rare_patterns, selection
from covmem.density import DensityState
from covmem.harness import scenario_stream

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


class ProbeRecorder:
    """Stands in for ``spans.Recorder``: records what would be wrapped, changes nothing."""

    def __init__(self):
        self.names = []

    def _check(self, owner, attr):
        target = getattr(owner, attr, None)
        assert callable(target), f"{owner.__name__}.{attr} is gone or not callable"
        self.names.append(f"{owner.__name__}.{attr}")

    def wrap(self, owner, attr, name, before=None, after=None):
        self._check(owner, attr)

    def wrap_generator(self, owner, attr, name):
        self._check(owner, attr)


def load_spans():
    spec = importlib.util.spec_from_file_location("covmem_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_and_is_callable():
    probe = ProbeRecorder()
    load_spans().install(probe)
    assert "covmem.selection.select" in probe.names


def test_select_calls_each_timed_layer_once_per_unit_of_work(monkeypatch):
    """Per-layer counts mean what they say: one draw and one removal per discard,
    one table per space, one density state per select.

    ``density.removals`` counts ``DensityState.remove_batch`` calls, and
    the traced split times distances at ``selection.distance_matrix``
    and ``selection.cross_distance_matrix`` and the state's set-up at
    ``DensityState.__init__``.  Each discard draws through
    ``DensityState.draw``, where a traced split would time the draw.
    """
    calls = Counter()

    def count(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in ((selection, "distance_matrix"), (selection, "cross_distance_matrix"),
                        (DensityState, "__init__"), (DensityState, "remove_batch"),
                        (DensityState, "draw")):
        count(owner, attr)

    rng = np.random.default_rng(0)
    cfg = StrategyConfig(capacity=40, batch_size=4, k_pred=3, k_out=3)
    memory = ReplayMemory(capacity=cfg.capacity)

    def chunk(start):
        return [Sample(features=rng.normal(size=2), output_bin=int(rng.integers(3)),
                       prediction=rng.dirichlet(np.ones(3)), arrival_index=start + i)
                for i in range(60)]

    first = selection.select(memory, chunk(0), cfg, None, rng)
    assert first.retrain and memory.last_train_batches
    calls.clear()
    outcome = selection.select(memory, chunk(60), cfg, None, rng)
    assert outcome.trace
    assert calls == {"remove_batch": len(outcome.trace), "draw": len(outcome.trace),
                     "distance_matrix": 2, "cross_distance_matrix": 2, "__init__": 1}


def test_chunks_iterate_as_the_rows_the_gate_reads():
    """``perfbench/child.py`` checks kept ids against each chunk's ids read row by row."""
    clean = generate(rare_patterns(iterations=2, samples_per_iteration=200), seed=7)
    noisy, _ = scenario_stream("gradual_drift", 7, noise_fraction=0.05, iterations=3,
                               samples_per_iteration=200)
    for chunk in chain(clean, noisy):
        # the gate's own expression
        ids = np.fromiter((s.arrival_index for s in chunk), dtype=np.int64, count=len(chunk))
        np.testing.assert_array_equal(ids, chunk.arrival_index)
