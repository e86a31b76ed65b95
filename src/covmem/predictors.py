"""Probabilistic predictors over discretized outputs.

Selection treats a model as a black box: anything that maps a feature
vector to a categorical distribution over output bins plugs in.  The
built-ins cover the cases the test harness needs: a label-frequency
histogram, a nearest-centroid soft classifier, a likelihood classifier
that backs off to uniform far from the data, a fixed-means oracle, and
a uniform dummy.

A predictor that has never been fit predicts the uniform distribution,
which lets the harness bootstrap its first iteration before any
retraining event has happened.  ``fit`` takes a
:class:`~covmem.samples.SamplePool` and reads its columns.
"""
from abc import ABC, abstractmethod

import numpy as np

from .errors import EmptyTrainingSet, PredictorDimensionMismatch
from .samples import SamplePool

__all__ = [
    "Predictor",
    "HistogramPredictor",
    "CentroidPredictor",
    "LikelihoodPredictor",
    "OraclePredictor",
    "UniformPredictor",
    "logscore",
    "with_losses",
]

LOGSCORE_FLOOR = 1e-12
# mass LikelihoodPredictor adds to every bin before normalizing
_BACKGROUND = 1e-12


def logscore(prediction, output_bin: int) -> float:
    """Log-score of a prediction in bits: ``log2 p(output_bin)``.

    Probabilities are floored at ``1e-12`` so a confident miss costs a
    large but finite penalty (about -39.86 bits) instead of -inf.
    """
    prediction = np.asarray(prediction, dtype=float)
    return float(np.log2(max(prediction[output_bin], LOGSCORE_FLOOR)))


class Predictor(ABC):
    """Interface between selection and whatever model serves predictions."""

    n_bins: int

    @abstractmethod
    def fit(self, pool: SamplePool) -> "Predictor":
        """Return a new predictor trained on the samples of ``pool``."""

    @abstractmethod
    def predict_many(self, features: np.ndarray) -> np.ndarray:
        """Distributions over the ``n_bins`` output bins, one row per row of ``features``."""

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Distribution over the ``n_bins`` output bins for one input."""
        return self.predict_many(np.asarray(features, dtype=float)[None, :])[0]

    def _uniform(self, n: int) -> np.ndarray:
        return np.full((n, self.n_bins), 1.0 / self.n_bins)


class UniformPredictor(Predictor):
    """Predicts the uniform distribution regardless of input."""

    def __init__(self, n_bins: int):
        self.n_bins = n_bins

    def fit(self, pool):
        return self

    def predict_many(self, features):
        return self._uniform(len(features))


class HistogramPredictor(Predictor):
    """Ignores features, predicts add-one smoothed label frequencies.

    With counts ``c_k`` over ``n`` training samples the prediction is
    ``(c_k + 1) / (n + n_bins)`` for every input, so no bin is ever
    assigned zero mass.
    """

    def __init__(self, n_bins: int, frequencies: np.ndarray | None = None):
        self.n_bins = n_bins
        self._frequencies = frequencies

    def fit(self, pool):
        if not len(pool):
            raise EmptyTrainingSet("histogram predictor needs at least one sample")
        counts = np.bincount(pool.output_bin, minlength=self.n_bins).astype(float)
        return HistogramPredictor(self.n_bins, (counts + 1.0) / (counts.sum() + self.n_bins))

    def predict_many(self, features):
        if self._frequencies is None:
            return self._uniform(len(features))
        return np.tile(self._frequencies, (len(features), 1))


def _class_means(pool: SamplePool, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean feature vector per output bin plus a seen-bin mask."""
    if not len(pool):
        raise EmptyTrainingSet("predictor needs at least one training sample")
    # bincount adds one column's weights in pool order, so the sums are
    # bit-for-bit those of np.add.at and of a running per-sample loop.
    sums = np.empty((n_bins, pool.features.shape[1]))
    for j, column in enumerate(pool.features.T):
        sums[:, j] = np.bincount(pool.output_bin, weights=column, minlength=n_bins)
    counts = np.bincount(pool.output_bin, minlength=n_bins).astype(float)
    seen = counts > 0
    means = np.zeros_like(sums)
    means[seen] = sums[seen] / counts[seen, None]
    return means, seen


def _squared_distances(features: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, rows of ``features`` x ``centers``."""
    sq = (
        (features * features).sum(axis=1)[:, None]
        - 2.0 * features @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _check_width(features: np.ndarray, means: np.ndarray) -> None:
    if features.shape[1] != means.shape[1]:
        raise PredictorDimensionMismatch(
            f"got {features.shape[1]}-dim features, class means are {means.shape[1]}-dim"
        )


class _ClassMeansPredictor(Predictor):
    """Scores by squared distance to each trained bin's mean features; predicts uniform unfit."""

    def __init__(self, n_bins: int, centroids: np.ndarray | None = None,
                 seen: np.ndarray | None = None):
        self.n_bins = n_bins
        self._centroids = centroids  # (n_bins, n_features), rows for unseen bins unused
        self._seen = seen            # boolean mask of trained bins

    def fit(self, pool):
        return type(self)(self.n_bins, *_class_means(pool, self.n_bins))

    def predict_many(self, features):
        features = np.asarray(features, dtype=float)
        if self._centroids is None:
            return self._uniform(len(features))
        _check_width(features, self._centroids)
        return self._distributions(_squared_distances(features, self._centroids[self._seen]))

    @abstractmethod
    def _distributions(self, sq: np.ndarray) -> np.ndarray:
        """Rows over all ``n_bins`` bins from squared distances to the seen bins' means."""


class CentroidPredictor(_ClassMeansPredictor):
    """Soft nearest-centroid classifier.

    Stores the mean feature vector of every label seen during training
    and predicts ``softmax(-d_k^2)`` over those labels, where ``d_k`` is
    the distance to centroid ``k``.  Bins absent from the training set
    get zero mass and the rest is renormalized.
    """

    def _distributions(self, sq):
        logits = -sq
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)
        out = np.zeros((len(sq), self.n_bins))
        out[:, self._seen] = weights
        return out


class LikelihoodPredictor(_ClassMeansPredictor):
    """Gaussian-likelihood classifier with a uniform background floor.

    Like :class:`CentroidPredictor` it stores per-label mean feature
    vectors, but it scores a query by the unnormalized unit-variance
    likelihood ``exp(-d_k^2 / 2)`` and adds a constant ``1e-12`` mass
    to every bin before normalizing.  Near a class mean the
    likelihood dwarfs the floor and predictions are sharp; far from all
    means the floor dominates and the prediction approaches uniform over
    all bins, unseen ones included.

    The softmax form cares only about distance differences, so it stays
    confident arbitrarily far from the training data.  This form instead
    reports ignorance off the training manifold, which is usually the
    honest answer for junk inputs.
    """

    def _distributions(self, sq):
        # exp(-d^2 / 2.0), built in the fresh array of squared distances.
        # Likelihoods underflow to zero a few dozen units out; the
        # background floor keeps every row a valid distribution.
        with np.errstate(under="ignore"):
            np.negative(sq, out=sq)
            sq /= 2.0
            np.exp(sq, out=sq)
        out = np.full((len(sq), self.n_bins), _BACKGROUND)
        out[:, self._seen] += sq
        out /= out.sum(axis=1, keepdims=True)
        return out


class OraclePredictor(Predictor):
    """Point mass on the class whose configured mean is nearest.

    Built from the generator's own class means, so on well-separated
    synthetic workloads its mode is the true bin for essentially every
    sample.  ``fit`` is a no-op: there is nothing left to learn.
    """

    def __init__(self, class_means: np.ndarray, n_bins: int | None = None):
        self.class_means = np.asarray(class_means, dtype=float)
        if self.class_means.ndim != 2 or self.class_means.shape[0] == 0:
            raise ValueError(
                f"class_means must be (n_classes, n_features), got {self.class_means.shape}"
            )
        self.n_bins = n_bins if n_bins is not None else self.class_means.shape[0]
        if self.n_bins < self.class_means.shape[0]:
            raise ValueError("n_bins smaller than the number of class means")

    def fit(self, pool):
        return self

    def predict_many(self, features):
        features = np.asarray(features, dtype=float)
        _check_width(features, self.class_means)
        sq = _squared_distances(features, self.class_means)
        out = np.zeros((len(features), self.n_bins))
        out[np.arange(len(features)), sq.argmin(axis=1)] = 1.0
        return out


def with_losses(pool: SamplePool, predictor: Predictor) -> SamplePool:
    """Fill the ``loss`` column with each sample's loss under ``predictor``.

    One ``predict_many`` pass; returns a new pool sharing the other
    columns.
    """
    if not len(pool):
        return pool
    predictions = predictor.predict_many(pool.features)
    picked = predictions[np.arange(len(pool)), pool.output_bin]
    return pool.with_columns(loss=-np.log2(np.maximum(picked, LOGSCORE_FLOOR)))
