"""Turning a sample pool into comparable batches.

Ingestion first replaces every raw sample with the pair (prediction,
output): the model's probabilistic output is a low-dimensional, task-
aware summary of the features, so two samples the model treats alike
end up looking alike.  Samples are then sorted by output bin, then by
prediction mode and mode probability, and chunked into groups of ``b``.
Chunks never span output bins; a leftover chunk at the end of an output
group simply stays undersized.
"""
import numpy as np

from .errors import EmptyInput
from .samples import BatchTable, SamplePool, require_finite

__all__ = ["bbdr", "batch_samples"]


def bbdr(pool: SamplePool, predictor) -> SamplePool:
    """Black-box dimensionality reduction: re-predict incoming samples.

    The pool's ``prediction`` column is replaced by the current
    predictor's output on its features, collapsing the raw feature space
    to the model's view of it.  Samples already resident in memory keep
    the predictions they were admitted with; only pass new arrivals
    through here.

    Returns a new pool that shares every other column; the input is not
    mutated.  Raises :class:`~covmem.errors.NonFiniteValue` if the
    predictor produces a NaN or an infinity.
    """
    if not len(pool):
        return pool
    predictions = predictor.predict_many(pool.features)
    require_finite(predictions, "predictor output")
    return pool.with_columns(prediction=predictions)


def batch_samples(pool: SamplePool, batch_size: int) -> BatchTable:
    """Group a sample pool into homogeneous batches of size ``batch_size``.

    Parameters
    ----------
    pool : SamplePool
    batch_size : int
        Target members per batch.  The final chunk of each output group
        may be smaller; chunks are never merged across output bins.

    Returns
    -------
    BatchTable
        One row per batch, in sort order.  Each row carries the mixture
        of its members' predictions, the output bin they all share, and
        their mean feature vector; ``member_ids`` lists the members'
        arrival ids in the same order.
    """
    n = len(pool)
    if not n:
        raise EmptyInput("cannot batch an empty pool")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    out_bins, arrival, predictions = pool.output_bin, pool.arrival_index, pool.prediction
    modes = predictions.argmax(axis=1)
    mode_probs = predictions[np.arange(n), modes]

    # np.lexsort((arrival, mode_probs, modes, out_bins)) as three stable
    # argsorts, least significant key first; arrival ids are unique, so
    # the order is fully determined, and a pool already in arrival order
    # costs the first sort one pass
    order = np.argsort(arrival, kind="stable")
    order = order[np.argsort(mode_probs[order], kind="stable")]
    # (out bin, mode) as one integer, which numpy radix-sorts at 16 bits
    key = out_bins * predictions.shape[1] + modes
    if 0 <= key.min() and key.max() < 2**15:
        key = key.astype(np.int16)
    order = order[np.argsort(key[order], kind="stable")]
    out_sorted = out_bins[order]

    # chunk starts: every batch_size positions within each output run
    run_starts = np.flatnonzero(np.diff(out_sorted)) + 1
    run_bounds = np.concatenate(([0], run_starts, [n]))
    starts = np.concatenate(
        [np.arange(a, b, batch_size) for a, b in zip(run_bounds[:-1], run_bounds[1:])]
    )
    size = np.diff(np.append(starts, n))
    return BatchTable(
        member_ids=arrival[order],
        size=size,
        pred_dist=np.add.reduceat(predictions[order], starts, axis=0) / size[:, None],
        out_bin=out_sorted[starts],
        mean_features=np.add.reduceat(pool.features[order], starts, axis=0) / size[:, None],
    )
