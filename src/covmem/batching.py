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
from .samples import Batch, SamplePool, require_finite

__all__ = ["mode_and_confidence", "bbdr", "batch_samples"]


def mode_and_confidence(prediction) -> tuple[int, float]:
    """Mode bin of a categorical distribution and its probability.

    Ties resolve to the lowest bin index.
    """
    prediction = np.asarray(prediction, dtype=float)
    if prediction.size == 0:
        raise EmptyInput("empty prediction vector")
    mode = int(prediction.argmax())
    return mode, float(prediction[mode])


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


def batch_samples(pool: SamplePool, batch_size: int, k_out: int) -> list[Batch]:
    """Group a sample pool into homogeneous batches of size ``batch_size``.

    Parameters
    ----------
    pool : SamplePool
    batch_size : int
        Target members per batch.  The final chunk of each output group
        may be smaller; chunks are never merged across output bins.
    k_out : int
        Number of output bins, fixing the length of each ``out_dist``.

    Returns
    -------
    list of Batch
        In sort order.  Each batch carries the mixture of its members'
        predictions, the histogram of their output bins (a point mass,
        given the grouping), and the mean feature vector.
    """
    n = len(pool)
    if not n:
        raise EmptyInput("cannot batch an empty pool")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    out_bins, arrival, predictions = pool.output_bin, pool.arrival_index, pool.prediction
    modes = predictions.argmax(axis=1)
    mode_probs = predictions[np.arange(n), modes]

    # last lexsort key is the primary one
    order = np.lexsort((arrival, mode_probs, modes, out_bins))
    out_sorted = out_bins[order]

    # chunk starts: every batch_size positions within each output run
    run_starts = np.flatnonzero(np.diff(out_sorted)) + 1
    run_bounds = np.concatenate(([0], run_starts, [n]))
    starts = np.concatenate(
        [np.arange(a, b, batch_size) for a, b in zip(run_bounds[:-1], run_bounds[1:])]
    )
    sizes = np.diff(np.append(starts, n)).astype(float)[:, None]

    pred_dists = np.add.reduceat(predictions[order], starts, axis=0) / sizes
    mean_features = np.add.reduceat(pool.features[order], starts, axis=0) / sizes
    out_dists = np.zeros((starts.size, k_out))
    out_dists[np.arange(starts.size), out_sorted[starts]] = 1.0
    member_ids = np.split(arrival[order], starts[1:])
    return [
        Batch(sample_ids=ids, pred_dist=pred, out_dist=out, mean_features=feat)
        for ids, pred, out, feat in zip(member_ids, pred_dists, out_dists, mean_features)
    ]
