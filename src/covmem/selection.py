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
from typing import NamedTuple

import numpy as np

from .batching import batch_samples, bbdr
from .density import DensityState, _inverse_cdf, _mean_kernel, _softmax, kernel_table
from .distances import cross_distance_matrix, distance_matrix, distinct_rows
from .errors import (
    BinOutOfRange,
    EmptyCurrentSet,
    EmptyInput,
    LengthMismatch,
    RepeatedArrival,
)
from .predictors import with_losses
from .samples import (
    BatchTable,
    ReplayMemory,
    SamplePool,
    StrategyConfig,
    _check_distribution_rows,
    require_finite,
    validate_distribution,
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
    batch_index: int  # row of this call's batch table
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
    ``T`` approaches the uniform distribution.  A negative temperature
    raises :class:`~covmem.errors.NegativeTemperature`, and a NaN or
    infinite density :class:`~covmem.errors.NonFiniteValue`.
    """
    densities = np.asarray(densities, dtype=float)
    if densities.size == 0:
        raise EmptyInput("no densities to turn into discard probabilities")
    require_finite(densities, "densities")
    return _softmax(densities, temperature, np.empty(densities.size))


def draw_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a categorical distribution.

    ``probabilities`` must be a nonempty 1-D vector
    (:class:`~covmem.errors.EmptyInput`) of finite, non-negative entries
    summing to one (see :func:`~covmem.samples.validate_distribution`);
    a vector that fails is refused before ``rng`` is drawn from.
    """
    probabilities = validate_distribution(probabilities)
    return _inverse_cdf(probabilities, rng, np.empty(probabilities.size))


# the comparison space of batch summaries each prediction metric names
_PRED_SPACES = {"jsd": "pred", "euclidean": "features"}


def _spaces(pred_metric: str) -> tuple[str, str]:
    """The prediction and the output comparison space for ``pred_metric``."""
    if pred_metric not in _PRED_SPACES:
        raise ValueError(f"unknown pred_metric {pred_metric!r}, expected 'jsd' or 'euclidean'")
    return _PRED_SPACES[pred_metric], "out"


def _density_state(batches: BatchTable, bandwidth: float, spaces: tuple[str, str]):
    """A :class:`DensityState` over ``batches``, and each space's distinct rows.

    Distances are computed between distinct rows only, and each space's
    kernel table is built in its distance table's own buffer, which the
    state then owns: one ``u x u`` array per space, and no distance
    table outlives its kernel.  Returns the state and, per space,
    ``(space, first, types)`` as :func:`~covmem.distances.distinct_rows`
    gives them.
    """
    distinct, kernels = [], []
    for space in spaces:
        first, types = distinct_rows(batches, space)
        distinct.append((space, first, types))
        # all rows distinct: the table itself, with no copy of its columns
        table = distance_matrix(batches if first.size == len(batches)
                                else batches.take(first), space)
        kernels.append(kernel_table(table, bandwidth, out=table))
    state = DensityState(*kernels, *(types for *_, types in distinct))
    return state, distinct


def _cross_density(batches, first, types, reference, space, bandwidth):
    """Density the ``reference`` table assigns to each batch of ``types``, in one space.

    Distances run between the distinct rows present in ``types`` and the
    reference's distinct rows, and are turned into kernel values in their
    own buffer.  The kernel is elementwise, so gathering those over the
    reference's types and averaging gives :func:`~covmem.density.kde` of
    the gathered distance matrix, each row of the full one, bit for bit.
    """
    present = np.bincount(types, minlength=first.size) > 0
    ref_first, ref_types = distinct_rows(reference, space)
    cross = cross_distance_matrix(batches.take(first[present]), reference.take(ref_first), space)
    kernel_table(cross, bandwidth, out=cross)
    rho = _mean_kernel(np.take(cross, ref_types, axis=1))
    return rho[(np.cumsum(present) - 1)[types]]


def _coverage_improvement(batches, state, distinct, reference, bandwidth) -> float:
    """RCI of the state's active batches against ``reference``.

    The self-densities come from the state's kernel tables, with no new
    distance or exponential; the cross-densities from one rectangular
    distance table per space.
    """
    if not reference:
        return 1.0
    active = state.active_indices
    rho_cross = np.minimum(*(
        _cross_density(batches, first, types[active], reference, space, bandwidth)
        for space, first, types in distinct
    ))
    rho_self = np.minimum(*state.recompute())
    gains = np.maximum(rho_self - rho_cross, 0.0)
    return float(gains.sum() / rho_self.sum())


def rci(current: BatchTable, reference: BatchTable | None, bandwidth: float,
        pred_metric: str = "jsd") -> float:
    """Relative coverage improvement of the ``current`` batches over ``reference``.

    For each current batch, compare its density within the current set
    against the density the reference set assigns to the same location:

        CI  = sum_b max(rho_current(b) - rho_reference(b), 0)
        RCI = CI / sum_b rho_current(b)

    Only gains count; regions that merely shrank do not cancel regions
    that are newly covered.  The ratio lies in ``[0, 1]``: it is 0 when
    the reference already covers everything the current set does, and 1
    against an empty or missing reference.
    """
    spaces = _spaces(pred_metric)
    if not current:
        raise EmptyCurrentSet("current batch set is empty")
    if not reference:
        return 1.0
    state, distinct = _density_state(current, bandwidth, spaces)
    return _coverage_improvement(current, state, distinct, reference, bandwidth)


def retrain_decision(current: BatchTable, reference: BatchTable | None,
                     threshold: float, bandwidth: float,
                     pred_metric: str = "jsd") -> tuple[bool, float]:
    """Whether coverage moved enough since the last training set.

    Returns ``(retrain, rci_value)`` with ``retrain = rci >= threshold``.
    Callers that retrain must snapshot ``current`` as the new reference.
    """
    value = rci(current, reference, bandwidth, pred_metric)
    return value >= threshold, value


def ingest(memory: ReplayMemory, new_samples, cfg: StrategyConfig,
           predictor, scored: bool = False) -> SamplePool:
    """The memory's residents followed by a chunk's arrivals: what a strategy selects from.

    The chunk, a pool as every stream yields or a sequence of rows, is
    taken as a pool by :meth:`~covmem.samples.SamplePool.from_samples`,
    re-predicted by ``predictor`` and, with ``scored``, given losses; no
    row is built.  The arrivals then follow the residents in arrival
    order.  This is the boundary every strategy takes input through, so
    the chunk is checked here, and a chunk that fails a check leaves the
    memory as it was:

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
    new_samples,
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
        table of surviving batches as the new reference set.
    new_samples : SamplePool or sequence of Sample
        Fresh arrivals, such as a stream's chunk, which is a pool.  They
        are taken as a pool and checked (see :func:`ingest`); only a
        sequence of rows is stacked.  Their predictions are overwritten
        by ``predictor`` on the way in; in-memory samples keep the
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
        vectors, keeping everything else identical.  Any other value
        raises ``ValueError`` before the memory changes.

    Returns
    -------
    SelectionOutcome
        Kept sample ids, the discard trace, and the retrain decision.
        Each :class:`DiscardEvent` names a row of the
        :class:`~covmem.samples.BatchTable` this call batched the pool
        into.
    """
    spaces = _spaces(pred_metric)
    pool = ingest(memory, new_samples, cfg, predictor).sorted_by_arrival()
    if not len(pool):
        raise EmptyInput("nothing to select from: memory and new samples are both empty")

    batches = batch_samples(pool, cfg.batch_size)
    total = len(pool)
    sizes = batches.size
    state, distinct = _density_state(batches, cfg.bandwidth, spaces)

    # StrategyConfig keeps batch_size <= capacity, so the batches left
    # while over capacity always number two or more
    trace: list[DiscardEvent] = []
    while total > cfg.capacity:
        j, probability = state.draw(cfg.temperature, rng)
        batch_index = int(state.active_indices[j])
        trace.append(DiscardEvent(len(trace), batch_index, probability))
        total -= sizes[batch_index]
        state.remove_batch(j)

    # the RCI of the survivors, as rci(kept, reference) computes it, but
    # with the self-densities read off the tables the loop already holds
    rci_value = _coverage_improvement(batches, state, distinct, memory.last_train_batches,
                                      cfg.bandwidth)
    retrain = rci_value >= cfg.threshold
    kept = batches.take(state.active_indices)

    kept_ids = np.sort(kept.member_ids)
    memory.replace_contents(pool.take(np.searchsorted(pool.arrival_index, kept_ids)))
    if retrain:
        memory.last_train_batches = kept
    return SelectionOutcome(kept_ids, trace, retrain, rci_value)
