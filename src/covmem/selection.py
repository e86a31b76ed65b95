"""Coverage-maximizing sample selection and the retraining trigger.

One :func:`select` call folds a chunk of new samples into the replay
memory: ingest, batch, estimate per-batch densities in the prediction
and output spaces, then discard whole batches drawn from a softmax over
density until the memory fits.  Dense regions lose samples first, so
what survives spreads out over everything the stream has shown.  The
same densities feed the retraining trigger: when the kept set covers
regions the last training set did not, the coverage improvement ratio
crosses its threshold and the caller should retrain.
"""
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .batching import batch_samples, bbdr
from .density import DensityState, kde
from .distances import cross_distance_matrix, distance_matrix
from .errors import (
    BinOutOfRange,
    CapacityTooSmallForOneBatch,
    EmptyCurrentSet,
    EmptyInput,
    LengthMismatch,
    NegativeTemperature,
    RepeatedArrival,
)
from .predictors import with_losses
from .samples import (
    Batch,
    ReplayMemory,
    Sample,
    SamplePool,
    StrategyConfig,
    _check_distribution_rows,
    require_finite,
)

__all__ = [
    "DiscardEvent",
    "SelectionOutcome",
    "discard_probabilities",
    "draw_index",
    "rci",
    "retrain_decision",
    "select",
]


class DiscardEvent(NamedTuple):
    """One draw of the discard loop, for audit and debugging."""

    step: int
    batch_index: int  # position in the batch list built for this call
    probability: float  # mass the drawn batch held at draw time


class SelectionOutcome(NamedTuple):
    """What a selection pass decided."""

    kept_ids: np.ndarray
    trace: list
    retrain: bool
    rci: float


def discard_probabilities(densities: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax over densities: dense batches draw high discard mass.

    ``p_i = exp(rho_i / T) / sum_j exp(rho_j / T)``, computed with the
    usual max subtraction.  ``T = 0`` is the greedy limit: a point mass
    on the densest batch, ties resolving to the lowest index.  Large
    ``T`` approaches the uniform distribution.
    """
    if temperature < 0:
        raise NegativeTemperature(f"temperature must be nonnegative, got {temperature}")
    densities = np.asarray(densities, dtype=float)
    if densities.size == 0:
        raise EmptyInput("no densities to turn into discard probabilities")
    out = np.zeros(densities.size)
    if temperature == 0.0:
        out[densities.argmax()] = 1.0
        return out
    logits = (densities - densities.max()) / temperature
    np.exp(logits, out=out)
    out /= out.sum()
    return out


def draw_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a categorical distribution."""
    edges = np.cumsum(probabilities)
    idx = int(np.searchsorted(edges, rng.random(), side="right"))
    return min(idx, probabilities.size - 1)


def _space_matrices(pairwise, pred_metric: str, *batch_lists) -> tuple[np.ndarray, np.ndarray]:
    """Prediction- and output-space distances over ``batch_lists``.

    ``pairwise`` is :func:`distance_matrix` (one list, the self case) or
    :func:`cross_distance_matrix` (current against reference).
    """
    d_pred = pairwise(
        *batch_lists,
        space="features" if pred_metric == "euclidean" else "pred",
        metric=pred_metric,
    )
    return d_pred, pairwise(*batch_lists, space="out")


def _min_densities(pairwise, bandwidth: float, pred_metric: str, *batch_lists) -> np.ndarray:
    d_pred, d_out = _space_matrices(pairwise, pred_metric, *batch_lists)
    return np.minimum(kde(d_pred, bandwidth), kde(d_out, bandwidth))


def _rci(rho_self: np.ndarray, rho_cross: np.ndarray) -> float:
    gains = np.maximum(rho_self - rho_cross, 0.0)
    return float(gains.sum() / rho_self.sum())


def rci(current: list[Batch], reference: list[Batch], bandwidth: float,
        pred_metric: str = "jsd") -> float:
    """Relative coverage improvement of ``current`` over ``reference``.

    For each current batch, compare its density within the current set
    against the density the reference set assigns to the same location:

        CI  = sum_b max(rho_current(b) - rho_reference(b), 0)
        RCI = CI / sum_b rho_current(b)

    Only gains count; regions that merely shrank do not cancel regions
    that are newly covered.  The ratio lies in ``[0, 1]``: it is 0 when
    the reference already covers everything the current set does, and 1
    against an empty reference.
    """
    if not current:
        raise EmptyCurrentSet("current batch set is empty")
    if not reference:
        return 1.0
    return _rci(
        _min_densities(distance_matrix, bandwidth, pred_metric, current),
        _min_densities(cross_distance_matrix, bandwidth, pred_metric, current, reference),
    )


def retrain_decision(current: list[Batch], reference: list[Batch],
                     threshold: float, bandwidth: float,
                     pred_metric: str = "jsd") -> tuple[bool, float]:
    """Whether coverage moved enough since the last training set.

    Returns ``(retrain, rci_value)`` with ``retrain = rci >= threshold``.
    Callers that retrain must snapshot ``current`` as the new reference.
    """
    value = rci(current, reference, bandwidth, pred_metric)
    return value >= threshold, value


def ingest(memory: ReplayMemory, new_samples: Sequence[Sample], cfg: StrategyConfig,
           predictor, scored: bool = False) -> SamplePool:
    """The memory's residents followed by a chunk's arrivals: what a strategy selects from.

    The chunk is stacked once (:class:`~covmem.samples.PoolRows` hand
    over their pool), re-predicted by ``predictor`` and, with
    ``scored``, given losses.  The arrivals then follow the residents
    in arrival order.  This is the boundary every strategy takes input
    through, so the chunk is checked here, and a chunk that fails a
    check leaves the memory as it was:

    - features must be finite (:class:`~covmem.errors.NonFiniteValue`);
    - output bins must lie in ``[0, cfg.k_out)``
      (:class:`~covmem.errors.BinOutOfRange`);
    - the predictions kept, re-predicted or given, must have
      ``cfg.k_pred`` bins (:class:`~covmem.errors.LengthMismatch`);
    - with ``predictor=None`` the given predictions must be finite
      distributions (:class:`~covmem.errors.NonFiniteValue`,
      :class:`~covmem.errors.NegativeProbability`,
      :class:`~covmem.errors.NonNormalizedPrediction`);
    - an arrival index that repeats one in the chunk or in memory raises
      :class:`~covmem.errors.RepeatedArrival`.
    """
    incoming = SamplePool.from_samples(new_samples)
    if len(incoming):
        require_finite(incoming.features, "incoming features")
        bins = incoming.output_bin
        outside = (bins < 0) | (bins >= cfg.k_out)
        if outside.any():
            raise BinOutOfRange(f"incoming output_bin {bins[outside][0]} outside [0, {cfg.k_out})")
    if predictor is None:
        _check_distribution_rows(incoming.prediction, "incoming predictions")
    else:
        incoming = bbdr(incoming, predictor)
        if scored:
            incoming = with_losses(incoming, predictor)
    if len(incoming) and incoming.prediction.shape[1] != cfg.k_pred:
        raise LengthMismatch(
            f"incoming predictions have {incoming.prediction.shape[1]} bins, "
            f"k_pred is {cfg.k_pred}"
        )
    pool = SamplePool.concat([memory.pool, incoming.sorted_by_arrival()])
    arrival = pool.arrival_index
    if not np.all(arrival[1:] > arrival[:-1]):
        ordered = np.sort(arrival)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise RepeatedArrival(
                f"arrival_index {repeated[0]} occurs more than once among "
                "the incoming samples and the memory"
            )
    return pool


def select(
    memory: ReplayMemory,
    new_samples: Sequence[Sample],
    cfg: StrategyConfig,
    predictor,
    rng: np.random.Generator,
    pred_metric: str = "jsd",
) -> SelectionOutcome:
    """Fold new samples into the memory, discarding down to capacity.

    Parameters
    ----------
    memory : ReplayMemory
        Mutated in place: afterwards its pool holds the surviving
        samples, and on retraining ``last_train_batches`` holds the
        surviving batches as the new reference set.
    new_samples : sequence of Sample
        Fresh arrivals, stacked into a :class:`SamplePool` once and
        checked (see :func:`ingest`); the chunks of
        :func:`~covmem.workloads.generate` carry their pool and are not
        stacked at all.  Their predictions are overwritten by
        ``predictor`` on the way in; in-memory samples keep the
        predictions they arrived with.  Arrival indices must be new: one
        already in the chunk or in memory raises
        :class:`~covmem.errors.RepeatedArrival`.
    cfg : StrategyConfig
    predictor : Predictor or None
        Black box for ingestion.  ``None`` keeps incoming predictions,
        which is only sensible for pre-scored pools; they must then be
        finite distributions over ``cfg.k_pred`` bins.
    rng : numpy.random.Generator
        Drives the discard draws.
    pred_metric : {"jsd", "euclidean"}
        ``euclidean`` swaps the prediction-space distribution distance
        for the euclidean distance between batch-average feature
        vectors, keeping everything else identical.

    Returns
    -------
    SelectionOutcome
        Kept sample ids, the discard trace, and the retrain decision.
    """
    pool = ingest(memory, new_samples, cfg, predictor).sorted_by_arrival()
    if not len(pool):
        raise EmptyInput("nothing to select from: memory and new samples are both empty")

    batches = batch_samples(pool, cfg.batch_size, cfg.k_out)
    total = len(pool)
    sizes = np.array([b.size for b in batches])
    if total > cfg.capacity and sizes.min() > cfg.capacity:
        raise CapacityTooSmallForOneBatch(
            f"capacity {cfg.capacity} is below every batch size "
            f"(smallest is {sizes.min()}); whole-batch discards cannot reach it"
        )

    state = DensityState(*_space_matrices(distance_matrix, pred_metric, batches), cfg.bandwidth)

    alive = list(batches)
    alive_sizes = list(sizes)
    trace: list[DiscardEvent] = []
    step = 0
    while total > cfg.capacity:
        if len(alive) == 1:
            raise CapacityTooSmallForOneBatch(
                f"one batch of {alive[0].size} samples left, capacity {cfg.capacity}"
            )
        probs = discard_probabilities(state.rho_min, cfg.temperature)
        j = draw_index(probs, rng)
        trace.append(DiscardEvent(step, int(state.active_indices[j]), float(probs[j])))
        total -= alive_sizes[j]
        del alive[j], alive_sizes[j]
        state.remove_batch(j)
        step += 1

    # the RCI of the survivors, as rci(alive, reference) computes it, but
    # with the self-densities read off the matrices the loop already holds
    reference = memory.last_train_batches
    if reference:
        rci_value = _rci(
            np.minimum(*state.recompute()),
            _min_densities(cross_distance_matrix, cfg.bandwidth, pred_metric, alive, reference),
        )
    else:
        rci_value = 1.0
    retrain = rci_value >= cfg.threshold

    kept_ids = np.sort(np.concatenate([batch.sample_ids for batch in alive]))
    memory.replace_contents(pool.take(np.searchsorted(pool.arrival_index, kept_ids)))
    if retrain:
        memory.last_train_batches = list(alive)
    return SelectionOutcome(kept_ids, trace, retrain, rci_value)
