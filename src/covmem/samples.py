"""Core data model: samples, sample pools, batch tables, the replay memory, and record I/O.

A :class:`SamplePool` holds samples as columns, one array per field, and
the package's producers and consumers all take and return pools.
:class:`Sample` is the row type at the API edge, an immutable named
tuple compared and hashed by identity.  The chunks a stream yields are
pools too.  A pool iterates as its rows, built on the first iteration
and kept; :meth:`SamplePool.from_samples` is the one edge back from
rows.  A :class:`BatchTable` holds the batches of one
coverage ``select`` call as columns, one row per batch, and the memory
keeps one as its retrain reference.  Categorical distributions are
plain 1-D ``numpy`` arrays that sum to one: :func:`validate_distribution`
checks one vector, and ``selection.ingest`` and :func:`read_samples`
check a pool's columns against the same contract.
"""
import json
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    BadFraction,
    BatchExceedsCapacity,
    BinOutOfRange,
    EmptyInput,
    LengthMismatch,
    NegativeProbability,
    NegativeTemperature,
    NonFiniteValue,
    NonIncreasingPositions,
    NonNormalizedPrediction,
    NonPositiveBandwidth,
    NonPositiveCount,
)

__all__ = [
    "Sample",
    "SamplePool",
    "BatchTable",
    "ReplayMemory",
    "StrategyConfig",
    "mixture",
    "require_finite",
    "validate_distribution",
    "read_samples",
    "write_samples",
]

_NORMALIZATION_TOL = 1e-9


class Sample(NamedTuple):
    """One observed instance flowing through the stream.

    An immutable named tuple: assigning a field raises
    ``AttributeError``.  Two rows are equal only if they are the same
    object, and a row hashes by identity, so equal-looking rows stay
    distinct and any row can be a dict key.

    Attributes
    ----------
    features : ndarray
        Raw feature vector, shape ``(n_features,)``.
    output_bin : int
        Discretized true output, in ``[0, k_out)``.
    prediction : ndarray
        Probabilistic model output over prediction bins.  Overwritten at
        ingestion by the current model (see ``batching.bbdr``).
    arrival_index : int
        Position in the stream; unique, monotone, and used as the sample
        identifier everywhere else.
    raw_output : float
        Continuous output before binning.  Equals ``float(output_bin)``
        for plain classification streams.
    loss : float or None
        Model loss, filled by a predictor pass; ``None`` until then.
    stalled : bool
        Degraded-experience flag used by one of the scalar baselines.
    workload : int
        Generator class the sample was drawn from, ``-1`` when unknown.
        Evaluation bookkeeping only; selection never reads it.
    noise : bool
        True for injected corruption.  Same rule: invisible to selection.
    """

    features: np.ndarray
    output_bin: int
    prediction: np.ndarray
    arrival_index: int
    raw_output: float = float("nan")
    loss: float | None = None
    stalled: bool = False
    workload: int = -1
    noise: bool = False

    # Identity, not the tuple's field-by-field comparison, which would
    # compare the feature arrays elementwise.
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


# Builds a Sample from one tuple of field values in C: no Python frame per row.
_new_row = partial(tuple.__new__, Sample)

# The dtype of each column that holds one value per sample.
_SCALAR_DTYPES = {"output_bin": np.int64, "arrival_index": np.int64, "raw_output": float,
                  "loss": float, "stalled": bool, "workload": np.int64, "noise": bool}


@dataclass(frozen=True, eq=False)
class SamplePool:
    """A set of samples stored column-wise: one array per :class:`Sample` field.

    Row ``i`` of every column belongs to the same sample.  ``features``
    is ``(n, n_features)`` and ``prediction`` is ``(n, k_pred)``; the other
    columns are 1-D.  An unscored sample has ``loss`` NaN.  Operations
    return new pools and never write into a column, so pools that share
    a column stay independent.

    Iterating a pool yields its :class:`Sample` rows in pool order.  The
    first iteration builds every row at once, and every later one
    yields the same row objects; ``len()``, ``bool()`` and every
    operation here read only the columns.  ``features`` and
    ``prediction`` of each row are views into the pool's columns; a
    ``prediction`` column that repeats one row (stride 0, as in every
    chunk :func:`~covmem.workloads.generate` yields) gives every row the
    same view object, ``prediction[0]``.
    """

    features: np.ndarray
    prediction: np.ndarray
    output_bin: np.ndarray
    arrival_index: np.ndarray
    raw_output: np.ndarray
    loss: np.ndarray
    stalled: np.ndarray
    workload: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        n = len(self)
        for f in fields(self):
            if getattr(self, f.name).shape[0] != n:
                raise LengthMismatch(
                    f"column {f.name} has {getattr(self, f.name).shape[0]} rows, "
                    f"arrival_index has {n}"
                )

    def __len__(self) -> int:
        return self.arrival_index.shape[0]

    @classmethod
    def empty(cls) -> "SamplePool":
        return cls(features=np.empty((0, 0)), prediction=np.empty((0, 0)),
                   **{name: np.empty(0, dtype) for name, dtype in _SCALAR_DTYPES.items()})

    @classmethod
    def from_samples(cls, samples) -> "SamplePool":
        """``samples`` as a pool: the one place :class:`Sample` rows are stacked.

        A pool comes back unchanged; any other sequence of rows is
        stacked into columns, in order.
        """
        if isinstance(samples, SamplePool):
            return samples
        return _stack_fields(samples) if samples else cls.empty()

    @classmethod
    def concat(cls, pools) -> "SamplePool":
        """Rows of every pool in turn; empty pools are skipped."""
        pools = [p for p in pools if len(p)]
        if not pools:
            return cls.empty()
        if len(pools) == 1:
            return pools[0]
        return cls(**{f.name: np.concatenate([getattr(p, f.name) for p in pools])
                      for f in fields(cls)})

    def take(self, idx) -> "SamplePool":
        """Rows at positions ``idx`` (a slice, an index array or a list of
        integer positions), in that order."""
        if isinstance(idx, list):
            # converted once here, not once per column
            idx = np.array(idx, dtype=np.intp)
        return SamplePool(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})

    def with_columns(self, **columns) -> "SamplePool":
        """A pool sharing every column except the ones given."""
        return SamplePool(**{f.name: columns.get(f.name, getattr(self, f.name))
                             for f in fields(self)})

    def sorted_by_arrival(self) -> "SamplePool":
        """Rows in arrival order; the pool itself when already sorted."""
        arrival = self.arrival_index
        if np.all(arrival[1:] > arrival[:-1]):
            return self
        return self.take(np.argsort(arrival, kind="stable"))

    def __iter__(self):
        return iter(self._rows)

    @cached_property
    def _rows(self) -> tuple:
        return _build_rows(self)


def _build_rows(pool: SamplePool) -> tuple:
    """Every row of ``pool`` as a :class:`Sample`, in pool order (see :class:`SamplePool`).

    Each row is built in C from the zipped columns, with no Python frame
    per row.
    """
    n = len(pool)
    predictions = pool.prediction
    if predictions.strides[0] == 0 and n:
        predictions = repeat(predictions[0], n)
    scored = ~np.isnan(pool.loss)
    losses = np.full(n, None, dtype=object)
    losses[scored] = pool.loss[scored]
    return tuple(map(_new_row, zip(
        pool.features,
        pool.output_bin.tolist(),
        predictions,
        pool.arrival_index.tolist(),
        pool.raw_output.tolist(),
        losses.tolist(),
        pool.stalled.tolist(),
        pool.workload.tolist(),
        pool.noise.tolist(),
    )))


def _stack_fields(rows, dtype=None) -> SamplePool:
    """A pool of tuples in :class:`Sample` field order, with vectors of ``dtype``.

    A float column stores a ``None`` loss as NaN.
    """
    return SamplePool(**{
        name: np.array(values, dtype=_SCALAR_DTYPES[name]) if name in _SCALAR_DTYPES
        else _stack_rows(values, name, dtype)
        for name, values in zip(Sample._fields, zip(*rows))
    })


def _stack_rows(rows, column: str, dtype=None) -> np.ndarray:
    """Stack rows into a 2-D column.

    Rows of unequal lengths raise :class:`LengthMismatch`, rows that are
    not nonempty vectors :class:`EmptyInput`, and entries that do not
    convert to ``dtype`` ``ValueError``.
    """
    # np.array stacks rows faster than np.stack and still rejects ragged rows.
    try:
        matrix = np.array(rows, dtype=dtype)
    except (TypeError, ValueError) as err:
        lengths = sorted({np.size(r) if np.ndim(r) == 1 else -1 for r in rows})
        if len(lengths) > 1:
            raise LengthMismatch(f"{column} lengths differ within one pool: {lengths}") from None
        raise ValueError(f"{column}: {err}") from err
    if matrix.ndim != 2 or not matrix.shape[1]:
        raise EmptyInput(f"{column} must be nonempty vectors, got shape {matrix.shape}")
    return matrix


@dataclass(frozen=True, eq=False)
class BatchTable:
    """Batches of samples stored column-wise: one row per batch.

    ``member_ids`` ``(n,)`` holds the members' arrival ids batch after
    batch: batch ``i`` owns the ``size[i]`` ids that follow those of the
    batches before it.  ``pred_dist`` ``(m, k_pred)`` is the mixture of
    each batch's member predictions, ``out_bin`` ``(m,)`` the output bin
    all its members share, and ``mean_features`` ``(m, d)`` their mean
    feature vector.  ``len()`` counts batches, so an empty table is
    falsy.  Operations return new tables and never write into a column.
    """

    member_ids: np.ndarray
    size: np.ndarray
    pred_dist: np.ndarray
    out_bin: np.ndarray
    mean_features: np.ndarray

    def __len__(self) -> int:
        return self.size.shape[0]

    def take(self, idx) -> "BatchTable":
        """Batches at increasing positions ``idx``, with their members.

        Members are kept in table order, so positions that repeat or go
        back would pair batches with the wrong members: they raise
        :class:`NonIncreasingPositions` instead.
        """
        backward = np.flatnonzero(np.diff(idx) <= 0)
        if backward.size:
            i = backward[0] + 1
            raise NonIncreasingPositions(
                f"batch positions must increase: idx[{i}] = {idx[i]} follows {idx[i - 1]}")
        chosen = np.zeros(len(self), dtype=bool)
        chosen[idx] = True
        return BatchTable(
            member_ids=self.member_ids[np.repeat(chosen, self.size)],
            size=self.size[idx],
            pred_dist=self.pred_dist[idx],
            out_bin=self.out_bin[idx],
            mean_features=self.mean_features[idx],
        )


@dataclass(eq=False)
class ReplayMemory:
    """Bounded sample store a selection strategy maintains.

    ``pool`` holds the members in arrival order.  ``last_train_batches``
    is the reference set of the coverage strategy's retrain trigger: the
    :class:`BatchTable` of the batches kept at the last retraining
    event.  Its rows keep their distributions even after later discards
    drop some of their members, which is exactly what the coverage
    comparison needs.  The other strategies retrain unconditionally and
    leave it ``None``.
    """

    capacity: int
    pool: SamplePool = field(default_factory=SamplePool.empty)
    last_train_batches: BatchTable | None = None

    def __post_init__(self):
        if not self.capacity > 0:
            raise NonPositiveCount(f"capacity must be positive, got {self.capacity}")

    @property
    def sample_count(self) -> int:
        return len(self.pool)

    def sorted_samples(self) -> SamplePool:
        """Members in arrival order, the canonical pool ordering: the pool itself.

        Its ``prediction`` column holds the predictions the samples were
        admitted with.  This is the training set ``fit`` and
        ``on_retrain`` take.
        """
        return self.pool

    def replace_contents(self, pool: SamplePool) -> None:
        """Hold ``pool``, reordered by arrival, in place of the current members."""
        self.pool = pool.sorted_by_arrival()

    def class_counts(self, n_classes: int, by: str = "workload") -> np.ndarray:
        """Histogram of members over ``workload`` tags or ``output_bin``."""
        if by not in ("workload", "output_bin"):
            raise ValueError(f"class_counts by must be 'workload' or 'output_bin', got {by!r}")
        labels = self.pool.workload if by == "workload" else self.pool.output_bin
        labels = labels[(labels >= 0) & (labels < n_classes)]
        return np.bincount(labels, minlength=n_classes).astype(np.int64)

    def noise_fraction(self) -> float:
        if not len(self.pool):
            return 0.0
        return int(self.pool.noise.sum()) / len(self.pool)


@dataclass(frozen=True)
class StrategyConfig:
    """Knobs shared by every selection strategy.

    Defaults follow the operating point used throughout: bandwidth 0.1,
    temperature 0.01, retraining threshold 0.1.  Capacity and batch size
    are deployment-scale choices and have no safe default.  Randomness
    comes from the generator each ``select`` call is given.
    """

    capacity: int
    batch_size: int
    bandwidth: float = 0.1
    temperature: float = 0.01
    threshold: float = 0.1
    k_pred: int = 21
    k_out: int = 21

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.capacity > 0:
            raise NonPositiveCount(f"capacity must be positive, got {self.capacity}")
        if not self.batch_size > 0:
            raise NonPositiveCount(f"batch_size must be positive, got {self.batch_size}")
        if self.batch_size > self.capacity:
            raise BatchExceedsCapacity(
                f"batch_size {self.batch_size} exceeds capacity {self.capacity}; "
                "whole-batch discards could never terminate"
            )
        _check_bandwidth(self.bandwidth)
        if not self.temperature >= 0:
            raise NegativeTemperature(f"temperature must be nonnegative, got {self.temperature}")
        if not 0 <= self.threshold <= 1:
            raise BadFraction(f"threshold must lie in [0, 1], got {self.threshold}")
        if not (self.k_pred > 0 and self.k_out > 0):
            raise NonPositiveCount(
                f"bin counts must be positive, got k_pred={self.k_pred} k_out={self.k_out}"
            )


# Distribution helpers ----------------------------------------------------


def _check_bandwidth(bandwidth: float) -> None:
    if not 0 < bandwidth < np.inf:  # an infinite bandwidth makes every density equal
        raise NonPositiveBandwidth(f"bandwidth must be positive and finite, got {bandwidth}")


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Raise :class:`NonFiniteValue` if ``values`` holds a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{what} holds NaN or infinite entries")
    return values


def validate_distribution(probs: np.ndarray, size: int | None = None) -> np.ndarray:
    """Check that ``probs`` is a categorical distribution.

    Parameters
    ----------
    probs : array_like
        Candidate probability vector.
    size : int, optional
        Required number of bins.

    Returns
    -------
    ndarray
        The validated vector as a float array.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise EmptyInput(f"expected a nonempty 1-D probability vector, got shape {probs.shape}")
    if size is not None and probs.size != size:
        raise LengthMismatch(f"expected {size} bins, got {probs.size}")
    _check_distribution_rows(probs[None, :], "probability vector")
    return probs


def _check_distribution_rows(rows: np.ndarray, what: str) -> None:
    """Raise unless every row of the 2-D ``rows`` is a finite categorical distribution.

    Entries must be finite (:class:`NonFiniteValue`) and non-negative
    (:class:`NegativeProbability`), and each row must sum to one within
    1e-9 (:class:`NonNormalizedPrediction`).
    """
    require_finite(rows, what)
    if np.any(rows < 0):
        raise NegativeProbability(f"{what} has negative entries: min is {rows.min()}")
    totals = rows.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > _NORMALIZATION_TOL)
    if off.size:
        raise NonNormalizedPrediction(
            f"{what} row {off[0]} sums to {float(totals[off[0]])!r}, expected 1 within 1e-9"
        )


def mixture(predictions) -> np.ndarray:
    """Average a collection of categorical distributions.

    The mean of normalized vectors is normalized, so the result is a
    valid distribution whenever the inputs are.

    Parameters
    ----------
    predictions : sequence of ndarray
        Distributions of identical length.

    Returns
    -------
    ndarray
        Elementwise mean.
    """
    rows = [np.asarray(p, dtype=float) for p in predictions]
    if not rows:
        raise EmptyInput("mixture of zero distributions is undefined")
    length = rows[0].size
    if any(r.size != length for r in rows):
        raise LengthMismatch(f"distribution lengths differ: {sorted({r.size for r in rows})}")
    return np.mean(rows, axis=0)


# Sample records ----------------------------------------------------------
#
# One JSON object per line.  Fixed fields: features, output_bin,
# raw_output, prediction, stalled.  Extra fields (loss, workload, noise)
# are written only when informative and ignored by readers that do not
# know them; arrival_index is the record count, never serialized.


def write_samples(path, samples) -> None:
    """Write a pool, or rows (see :meth:`SamplePool.from_samples`), one record per line."""
    pool = SamplePool.from_samples(samples)
    columns = zip(pool.features.astype(float, copy=False).tolist(), pool.output_bin.tolist(),
                  pool.raw_output.tolist(), pool.prediction.astype(float, copy=False).tolist(),
                  pool.stalled.tolist(), pool.loss.tolist(), pool.workload.tolist(),
                  pool.noise.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for (features, output_bin, raw_output, prediction, stalled,
             loss, workload, noise) in columns:
            record = {"features": features, "output_bin": output_bin, "raw_output": raw_output,
                      "prediction": prediction, "stalled": int(stalled)}
            if loss == loss:  # NaN: unscored
                record["loss"] = loss
            if workload >= 0:
                record["workload"] = workload
            if noise:
                record["noise"] = 1
            fh.write(json.dumps(record) + "\n")


# What JSON must read each typed record field as, with no coercion: bools
# are not integers or numbers, and a vector's entries are not strings.
_INT = ("a JSON integer", lambda v: type(v) is int)
_NUMBER = ("a JSON number", lambda v: type(v) in (int, float))
_FLAG = ("0, 1, true or false", lambda v: type(v) in (int, bool) and v in (0, 1))
_VECTOR = ("free of strings", lambda v: not isinstance(v, str)
           and not (isinstance(v, list) and any(isinstance(x, str) for x in v)))


def _typed(record: dict, name: str, kind: tuple, *default):
    """Field ``name`` of ``record`` (``default``, if given, when absent), checked to be ``kind``."""
    expected, accepts = kind
    value = record.get(name, *default) if default else record[name]
    if not accepts(value):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def read_samples(path, k_pred: int | None = None, k_out: int | None = None) -> SamplePool:
    """Parse a sample-record file into a :class:`SamplePool`.

    Arrival indices count the records, skipping blank lines.  Unknown
    fields are ignored; a missing ``loss`` reads NaN.  An unparsable
    or mistyped record raises ``ValueError``: ``output_bin`` and
    ``workload`` are JSON integers, ``stalled`` and ``noise`` 0, 1, true
    or false, ``raw_output`` and ``loss`` JSON numbers, and ``features``
    and ``prediction`` hold no strings.  The columns must hold finite
    features of one length and finite distributions of one length, with
    ``k_pred`` bins and ``output_bin`` in ``[0, k_out)`` when given.
    Each error is the first bad record's, and names its line.
    """
    records, lines, unreadable = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                r = json.loads(line)
                # in Sample field order; the arrival index counts the records
                records.append((_typed(r, "features", _VECTOR), _typed(r, "output_bin", _INT),
                                _typed(r, "prediction", _VECTOR), len(records),
                                _typed(r, "raw_output", _NUMBER), _typed(r, "loss", _NUMBER, np.nan),
                                _typed(r, "stalled", _FLAG, 0), _typed(r, "workload", _INT, -1),
                                _typed(r, "noise", _FLAG, 0)))
            except (KeyError, TypeError, ValueError) as err:
                unreadable = (lineno, err)  # raised once the records before it pass
                break
            lines.append(lineno)
    try:
        pool = _checked_records(records, k_pred, k_out)
    except ValueError:
        # the first bad record fails alone or against the first record's lengths
        for i, line in enumerate(lines):
            try:
                for rows in (records[i:i + 1], records[:1] + records[i:i + 1]):
                    _checked_records(rows, k_pred, k_out)
            except ValueError as err:
                raise type(err)(f"bad sample record on line {line}: {err}") from err
        raise
    if unreadable is not None:
        lineno, err = unreadable
        raise ValueError(f"bad sample record on line {lineno}: {err}") from err
    return pool


def _checked_records(records: list, k_pred: int | None, k_out: int | None) -> SamplePool:
    """The pool of parsed records, once its columns meet the data-model contract."""
    if not records:
        return SamplePool.empty()
    pool = _stack_fields(records, float)
    require_finite(pool.features, "features")
    if k_pred is not None and pool.prediction.shape[1] != k_pred:
        raise LengthMismatch(f"expected {k_pred} bins, got {pool.prediction.shape[1]}")
    _check_distribution_rows(pool.prediction, "prediction")
    if k_out is not None:
        outside = pool.output_bin[(pool.output_bin < 0) | (pool.output_bin >= k_out)]
        if outside.size:
            raise BinOutOfRange(f"output_bin {outside[0]} outside [0, {k_out})")
    return pool
