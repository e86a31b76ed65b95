"""Exception types raised across the package.

Everything derives from :class:`CovmemError` so callers can catch the
package's failures with a single except clause.  Most errors are also
``ValueError`` subclasses because they signal bad arguments.
"""


class CovmemError(Exception):
    """Base class for all errors raised by covmem."""


class EmptyInput(CovmemError, ValueError):
    """An operation that needs at least one element received none."""


class LengthMismatch(CovmemError, ValueError):
    """Vectors that must share a length do not."""


class NonNormalizedPrediction(CovmemError, ValueError):
    """A probability vector does not sum to one within tolerance."""


class NegativeProbability(CovmemError, ValueError):
    """A probability vector contains a negative entry."""


class NonFiniteValue(CovmemError, ValueError):
    """An array that must be finite holds a NaN or an infinity."""


class RepeatedArrival(CovmemError, ValueError):
    """An incoming sample's arrival index repeats one in its chunk or in memory."""


class BinOutOfRange(CovmemError, ValueError):
    """An output bin index falls outside ``[0, k_out)``."""


class UndefinedDivergence(CovmemError, ValueError):
    """KL divergence is undefined: p assigns mass where q has none."""


class NonPositiveBandwidth(CovmemError, ValueError):
    """Kernel bandwidth must be strictly positive."""


class NegativeTemperature(CovmemError, ValueError):
    """Softmax temperature must be nonnegative."""


class LastBatch(CovmemError, RuntimeError):
    """Removing the only remaining batch would leave densities undefined."""


class EmptyCurrentSet(CovmemError, ValueError):
    """The current batch set of a coverage comparison is empty."""


class CapacityTooSmallForOneBatch(CovmemError, RuntimeError):
    """No whole-batch discard sequence can reach the capacity target."""


class MissingScores(CovmemError, ValueError):
    """A score-based strategy has samples without the score it ranks by."""


class NotClassification(CovmemError, ValueError):
    """A strategy that needs class labels was run on a regression stream."""


class EmptyCommittee(CovmemError, ValueError):
    """Query-by-committee needs at least one committee member."""


class EmptyTrainingSet(CovmemError, ValueError):
    """A predictor was fit on an empty sample list."""


class PredictorDimensionMismatch(CovmemError, ValueError):
    """Feature vectors do not match the dimension the predictor expects."""


class UnbalancedEvalSet(CovmemError, ValueError):
    """Balanced accuracy requires equal per-class counts."""


class BadSchedule(CovmemError, ValueError):
    """A scenario schedule has malformed mixture weights."""


class BadFraction(CovmemError, ValueError):
    """A fraction argument falls outside ``[0, 1]``."""


class ConfigError(CovmemError, ValueError):
    """A run configuration file or value cannot be parsed."""
