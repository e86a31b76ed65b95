"""Core data model: samples, sample pools, batches, the replay memory, and record I/O.

A :class:`SamplePool` is the working representation: one array per
field, one row per sample.  :class:`Sample` is the row type at the API
edge, for streams handed to ``select`` and for NDJSON records.
:meth:`SamplePool.rows` returns :class:`PoolRows`, rows that carry the
pool they were cut from, so handing them back to
:meth:`SamplePool.from_samples` costs nothing.  A :class:`Batch` exists
only inside one coverage ``select`` call and in the memory's reference
set; the memory itself holds a pool, not batches.
Categorical distributions are plain 1-D ``numpy`` arrays that sum to one.
No wrapper class is used; :func:`validate_distribution` checks one
vector, and ``selection.ingest`` checks a chunk's prediction rows
against the same contract.
"""
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BinOutOfRange,
    CovmemError,
    EmptyInput,
    LengthMismatch,
    NegativeProbability,
    NonFiniteValue,
    NonNormalizedPrediction,
)

__all__ = [
    "Sample",
    "SamplePool",
    "PoolRows",
    "Batch",
    "ReplayMemory",
    "StrategyConfig",
    "mixture",
    "require_finite",
    "validate_distribution",
    "validate_sample",
    "read_samples",
    "write_samples",
]

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, slots=True, eq=False)
class Sample:
    """One observed instance flowing through the stream.

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


@dataclass(frozen=True, eq=False)
class SamplePool:
    """A set of samples stored column-wise: one array per :class:`Sample` field.

    Row ``i`` of every column belongs to the same sample.  ``features``
    is ``(n, n_features)`` and ``prediction`` is ``(n, k_pred)``; the other
    columns are 1-D.  An unscored sample has ``loss`` NaN.  Operations
    return new pools and never write into a column, so pools that share
    a column stay independent.
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
        return cls(
            features=np.empty((0, 0)),
            prediction=np.empty((0, 0)),
            output_bin=np.empty(0, dtype=np.int64),
            arrival_index=np.empty(0, dtype=np.int64),
            raw_output=np.empty(0),
            loss=np.empty(0),
            stalled=np.empty(0, dtype=bool),
            workload=np.empty(0, dtype=np.int64),
            noise=np.empty(0, dtype=bool),
        )

    @classmethod
    def from_samples(cls, samples) -> "SamplePool":
        """Stack a sequence of :class:`Sample` rows into columns, in order.

        :class:`PoolRows` are not stacked: their pool comes back as is.
        """
        if isinstance(samples, PoolRows):
            return samples.pool
        if not samples:
            return cls.empty()
        # A float array stores a None loss as NaN.
        return cls(
            features=_stack_rows([s.features for s in samples], "features"),
            prediction=_stack_rows([s.prediction for s in samples], "prediction"),
            output_bin=np.array([s.output_bin for s in samples], dtype=np.int64),
            arrival_index=np.array([s.arrival_index for s in samples], dtype=np.int64),
            raw_output=np.array([s.raw_output for s in samples], dtype=float),
            loss=np.array([s.loss for s in samples], dtype=float),
            stalled=np.array([s.stalled for s in samples], dtype=bool),
            workload=np.array([s.workload for s in samples], dtype=np.int64),
            noise=np.array([s.noise for s in samples], dtype=bool),
        )

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
        """Rows at positions ``idx``, in that order."""
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

    def rows(self) -> "PoolRows":
        """Materialise every row as a :class:`Sample`, in pool order.

        ``features`` and ``prediction`` of each row are views into the
        pool's columns, and the rows keep the pool itself (see
        :class:`PoolRows`).
        """
        losses = [None if math.isnan(loss) else loss for loss in self.loss.tolist()]
        rows = PoolRows(map(
            Sample,
            self.features,
            self.output_bin.tolist(),
            self.prediction,
            self.arrival_index.tolist(),
            self.raw_output.tolist(),
            losses,
            self.stalled.tolist(),
            self.workload.tolist(),
            self.noise.tolist(),
        ))
        rows.pool = self
        return rows


class PoolRows(tuple):
    """A tuple of :class:`Sample` rows that keeps the pool they were cut from.

    Built by :meth:`SamplePool.rows` only; ``pool`` holds exactly the
    columns that stacking the rows would give, so
    :meth:`SamplePool.from_samples` returns it instead of stacking again.
    Slicing or copying into a list gives plain rows that stack as usual.
    """

    pool: SamplePool


def _stack_rows(rows: list, column: str) -> np.ndarray:
    """Stack equal-length rows into a 2-D column; unequal lengths raise :class:`LengthMismatch`."""
    # np.array stacks rows faster than np.stack and still rejects ragged rows.
    try:
        return np.array(rows)
    except ValueError:
        lengths = sorted({len(r) for r in rows})
        raise LengthMismatch(f"{column} lengths differ within one pool: {lengths}") from None


@dataclass(eq=False)
class Batch:
    """A group of samples summarised by two categorical distributions.

    ``pred_dist`` is the mixture of member predictions, ``out_dist`` the
    normalized histogram of member output bins.
    """

    sample_ids: np.ndarray
    pred_dist: np.ndarray
    out_dist: np.ndarray
    mean_features: np.ndarray

    @property
    def size(self) -> int:
        return int(self.sample_ids.shape[0])


@dataclass(eq=False)
class ReplayMemory:
    """Bounded sample store a selection strategy maintains.

    ``pool`` holds the members in arrival order.  ``last_train_batches``
    is the reference set of the coverage strategy's retrain trigger: the
    batches kept at the last retraining event.  They keep their
    distributions even after later discards drop some of their members,
    which is exactly what the coverage comparison needs.  The other
    strategies retrain unconditionally and leave it empty.
    """

    capacity: int
    pool: SamplePool = field(default_factory=SamplePool.empty)
    last_train_batches: list[Batch] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

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
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.batch_size > self.capacity:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds capacity {self.capacity}; "
                "whole-batch discards could never terminate"
            )
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be nonnegative, got {self.temperature}")
        if not 0 <= self.threshold <= 1:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.k_pred <= 0 or self.k_out <= 0:
            raise ValueError(
                f"bin counts must be positive, got k_pred={self.k_pred} k_out={self.k_out}"
            )


# Distribution helpers ----------------------------------------------------


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


def validate_sample(sample: Sample, k_pred: int | None, k_out: int | None) -> Sample:
    """Raise if ``sample`` violates the data-model contract, else return it.

    A ``None`` bin count leaves that size or range unchecked; the
    features must be finite and the prediction a finite distribution
    either way.
    """
    require_finite(sample.features, "features")
    validate_distribution(sample.prediction, k_pred)
    if k_out is not None and not 0 <= sample.output_bin < k_out:
        raise BinOutOfRange(
            f"output_bin {sample.output_bin} outside [0, {k_out}) "
            f"for sample {sample.arrival_index}"
        )
    return sample


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
# know them; arrival_index is the line number, never serialized.


def write_samples(path, samples) -> None:
    """Write samples as newline-delimited records, one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            record = {
                "features": [float(v) for v in s.features],
                "output_bin": int(s.output_bin),
                "raw_output": float(s.raw_output),
                "prediction": [float(v) for v in s.prediction],
                "stalled": int(s.stalled),
            }
            if s.loss is not None:
                record["loss"] = float(s.loss)
            if s.workload >= 0:
                record["workload"] = int(s.workload)
            if s.noise:
                record["noise"] = 1
            fh.write(json.dumps(record) + "\n")


def read_samples(path, k_pred: int | None = None, k_out: int | None = None) -> list[Sample]:
    """Parse a sample-record file back into :class:`Sample` objects.

    Arrival indices are assigned from line order.  Unknown fields are
    ignored; a missing mandatory field raises ``ValueError`` naming the
    offending line.  Every record is validated on the way in: its
    features must be finite (JSON's ``NaN`` and ``Infinity`` literals
    raise :class:`NonFiniteValue`) and its prediction a finite
    distribution, of ``k_pred`` bins and with ``output_bin`` in
    ``[0, k_out)`` when those are given.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                sample = Sample(
                    features=np.asarray(record["features"], dtype=float),
                    output_bin=int(record["output_bin"]),
                    prediction=np.asarray(record["prediction"], dtype=float),
                    arrival_index=len(out),
                    raw_output=float(record["raw_output"]),
                    loss=float(record["loss"]) if "loss" in record else None,
                    stalled=bool(record.get("stalled", 0)),
                    workload=int(record.get("workload", -1)),
                    noise=bool(record.get("noise", 0)),
                )
            except (KeyError, json.JSONDecodeError, TypeError) as err:
                raise ValueError(f"bad sample record on line {lineno + 1}: {err}") from err
            try:
                validate_sample(sample, k_pred, k_out)
            except CovmemError as err:
                raise type(err)(f"bad sample record on line {lineno + 1}: {err}") from err
            out.append(sample)
    return out
