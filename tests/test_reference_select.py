"""A paper-literal reference ``select``, as a differential oracle for the fast one.

The reference follows the definitions and takes no shortcut:

- batches come from sorting Python tuples ``(output bin, prediction
  mode, mode probability, arrival)`` and chunking each output run;
- a batch's summaries are its members' mean prediction, the histogram
  of their output bins and their mean features;
- distances are the scalar :func:`covmem.jsd` and ``math.dist``;
- densities are recomputed from scratch over the active batches after
  every removal;
- each discard is one ``rng.random()`` mapped through the cumulative
  sum of the softmax, as ``draw_index`` maps it.

Two float pipelines can only disagree on a draw that sits on a knife
edge: ``u`` within ``EDGE`` of a cumulative-sum edge, or, at ``T = 0``,
a maximum shared within ``EDGE`` by batches with different summaries.
Such a draw is skipped: it is counted, the implementation's pick must be
one of the reference's candidates, and the reference follows that pick.
Ties are common at ``T = 0`` (point masses in different output bins
with equally many neighbours); edges should almost never occur.
"""
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
from hypothesis import event, given, settings, strategies as st

from covmem import ReplayMemory, Sample, StrategyConfig, jsd, select

EDGE = 1e-9
PEAK = 1.0 / math.sqrt(2.0 * math.pi)


class RefBatch(NamedTuple):
    ids: list
    pred: tuple
    out: tuple
    features: tuple


def _mean(rows, size):
    return tuple(sum(column) / size for column in zip(*rows))


def ref_batches(samples, batch_size, k_out):
    def key(s):
        pred = s.prediction.tolist()
        mode = pred.index(max(pred))
        return (s.output_bin, mode, pred[mode], s.arrival_index)

    ordered = sorted(samples, key=key)
    batches, start = [], 0
    while start < len(ordered):
        stop = start
        while stop < len(ordered) and ordered[stop].output_bin == ordered[start].output_bin:
            stop += 1
        for lo in range(start, stop, batch_size):
            members = ordered[lo:min(lo + batch_size, stop)]
            size = len(members)
            hist = [0] * k_out
            for s in members:
                hist[s.output_bin] += 1
            batches.append(RefBatch(
                ids=[s.arrival_index for s in members],
                pred=_mean([s.prediction.tolist() for s in members], size),
                out=tuple(c / size for c in hist),
                features=_mean([s.features.tolist() for s in members], size),
            ))
        start = stop
    return batches


class Spaces:
    """Prediction- and output-space distances; each JSD pair is computed once."""

    def __init__(self, pred_metric):
        self.pred_metric = pred_metric
        self.cache = {}

    def _jsd(self, p, q):
        key = (p, q) if p <= q else (q, p)
        if key not in self.cache:
            self.cache[key] = jsd(np.array(p), np.array(q))
        return self.cache[key]

    def rows(self, batch):
        """What the two distances read of a batch: equal rows give equal densities."""
        return (batch.features if self.pred_metric == "euclidean" else batch.pred), batch.out

    def pred(self, a, b):
        if self.pred_metric == "euclidean":
            return math.dist(a.features, b.features)
        return self._jsd(a.pred, b.pred)

    def out(self, a, b):
        return self._jsd(a.out, b.out)


def density(batch, others, distance, bandwidth):
    total = sum(math.exp(-distance(batch, o) ** 2 / (2 * bandwidth ** 2)) for o in others)
    return PEAK * total / len(others)


def min_density(batch, others, spaces, bandwidth):
    return min(density(batch, others, spaces.pred, bandwidth),
               density(batch, others, spaces.out, bandwidth))


def candidates(rho, temperature, u, rows):
    """Indices the draw can land on, and the reference's probabilities.

    ``rows`` holds what the distances read of each batch.
    """
    top = max(rho)
    if temperature == 0.0:
        pick = rho.index(top)
        near = [i for i, r in enumerate(rho) if r >= top - EDGE]
        probs = [1.0 if i == pick else 0.0 for i in range(len(rho))]
        return ([pick] if len({rows[i] for i in near}) == 1 else near), probs
    weights = [math.exp((r - top) / temperature) for r in rho]
    total = sum(weights)
    probs = [w / total for w in weights]
    lo, near = 0.0, []
    for i, p in enumerate(probs):
        hi = lo + p
        if lo - EDGE <= u < hi + EDGE:
            near.append(i)
        lo = hi
    if u >= lo - EDGE:
        near.append(len(probs) - 1)
    return sorted(set(near)), probs


def ref_rci(kept, reference, spaces, bandwidth):
    if not reference:
        return 1.0
    own = [min_density(b, kept, spaces, bandwidth) for b in kept]
    cross = [min_density(b, reference, spaces, bandwidth) for b in kept]
    gains = sum(max(s - c, 0.0) for s, c in zip(own, cross))
    return gains / sum(own)


def reference_select(residents, chunk, reference, cfg, rng, pred_metric, outcome, draws):
    """One select by the definitions, checked against ``outcome`` draw by draw.

    ``draws`` counts the draws compared, and those skipped as a tie or
    an edge.  Returns the kept samples and the reference set after the
    select: the batches kept if it retrains, else ``reference``.
    """
    pool = sorted(residents + chunk, key=lambda s: s.arrival_index)
    batches = ref_batches(pool, cfg.batch_size, cfg.k_out)
    spaces = Spaces(pred_metric)
    active = list(range(len(batches)))
    total = len(pool)
    events = iter(outcome.trace)
    while total > cfg.capacity:
        alive = [batches[i] for i in active]
        rho = [min_density(b, alive, spaces, cfg.bandwidth) for b in alive]
        u = rng.random()
        near, probs = candidates(rho, cfg.temperature, u, [spaces.rows(b) for b in alive])
        got = next(events)
        j = active.index(got.batch_index)
        assert j in near, (j, near)
        if len(near) > 1:
            kind = "tie" if cfg.temperature == 0.0 else "edge"
            draws[kind] += 1
            event(f"skipped draw: {kind}")
        else:
            draws["compared"] += 1
            assert abs(got.probability - probs[j]) <= EDGE
        total -= len(batches[active.pop(j)].ids)
    assert next(events, None) is None

    kept = [batches[i] for i in active]
    kept_ids = sorted(i for b in kept for i in b.ids)
    assert outcome.kept_ids.tolist() == kept_ids
    value = ref_rci(kept, reference, spaces, cfg.bandwidth)
    assert abs(outcome.rci - value) <= EDGE
    if abs(value - cfg.threshold) > EDGE:
        assert outcome.retrain == (value >= cfg.threshold)
    by_id = {s.arrival_index: s for s in pool}
    return [by_id[i] for i in kept_ids], (kept if outcome.retrain else reference)


def make_chunk(rng, start, count, k, rows):
    palette = [rng.dirichlet(np.ones(k)) for _ in range(3)] + [np.eye(k)[rng.integers(k)]]
    chunk = []
    for i in range(count):
        if rows == "point_mass":
            prediction = np.eye(k)[rng.integers(k)]
        elif rows == "dense":
            prediction = rng.dirichlet(np.ones(k))
        else:
            prediction = palette[rng.integers(len(palette))]
        chunk.append(Sample(features=rng.normal(size=2), output_bin=int(rng.integers(k)),
                            prediction=prediction, arrival_index=start + i))
    return chunk


def test_select_matches_the_reference():
    """Trace, kept ids, probabilities, RCI and retrain decision equal the reference's.

    A run of several chunks compares each later select against the
    reference set its earlier ones kept.
    """
    draws = Counter()

    @given(
        k=st.sampled_from([2, 3, 4, 5, 9, 21]),
        batch_size=st.integers(1, 4),
        headroom=st.integers(0, 12),
        chunk_sizes=st.lists(st.integers(1, 36), min_size=1, max_size=3),
        temperature=st.sampled_from([0.0, 1e-3, 1e-2, 1.0]),
        pred_metric=st.sampled_from(["jsd", "euclidean"]),
        rows=st.sampled_from(["point_mass", "dense", "repeated"]),
        bandwidth=st.sampled_from([0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def check(k, batch_size, headroom, chunk_sizes, temperature, pred_metric, rows,
              bandwidth, seed):
        data = np.random.default_rng(seed)
        cfg = StrategyConfig(capacity=batch_size + headroom, batch_size=batch_size,
                             k_pred=k, k_out=k, bandwidth=bandwidth, temperature=temperature,
                             threshold=float(data.uniform(0.0, 1.0)))
        memory = ReplayMemory(capacity=cfg.capacity)
        rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        residents, reference, arrival = [], None, 0
        for count in chunk_sizes:
            chunk = make_chunk(data, arrival, count, k, rows)
            arrival += count
            outcome = select(memory, chunk, cfg, None, rng, pred_metric=pred_metric)
            residents, reference = reference_select(residents, chunk, reference, cfg,
                                                    ref_rng, pred_metric, outcome, draws)

    check()
    assert draws["compared"] > 0
    assert draws["edge"] <= 0.01 * sum(draws.values())
