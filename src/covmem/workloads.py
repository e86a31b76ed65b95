"""Synthetic drifting streams for exercising selection strategies.

Each scenario is a small mixture-of-Gaussians world: every workload
class has a feature centroid, and a per-iteration schedule says how the
classes mix.  Three builders cover the drift shapes of interest:

``rare_patterns``   one dominant class, two sporadic ones on fixed cadences
``incremental``     classes appear one after another in disjoint phases
``gradual_drift``   all classes always present, output scale creeps up

Samples are drawn as :class:`~covmem.samples.SamplePool` columns:
streams yield one pool per iteration, and evaluation sets are pools.
A pool's ``Sample`` rows are built only if a consumer iterates it.
Arrival indices are a single global counter so strategies can
reconstruct stream position.
"""
from dataclasses import dataclass

import numpy as np

from .errors import BadFraction, BadSchedule
from .samples import SamplePool

__all__ = [
    "ScenarioSpec",
    "rare_patterns",
    "incremental",
    "gradual_drift",
    "build_scenario",
    "generate",
    "eval_set",
    "inject_noise",
    "SCENARIO_KINDS",
]

SCENARIO_KINDS = ("rare_patterns", "incremental", "gradual_drift")

DEFAULT_FEATURE_DIM = 16
_CLASS_SEPARATION = 4.0  # each class mean sits this far along its own axis
DEFAULT_SAMPLES_PER_ITERATION = 10_000

# Rare-pattern cadences: the sporadic classes recur every 5th and every
# 10th iteration and make up 1.3% and 0.5% of the whole stream.
RARE_W1_PERIOD = 5
RARE_W3_PERIOD = 10
RARE_W1_OVERALL = 0.013
RARE_W3_OVERALL = 0.005

# Gradual drift: three equal phases whose output scale steps up; the
# log of a raw output spreads by DRIFT_OUT_SIGMA around its class median.
DRIFT_PHASE_SCALES = (1.0, 1.5, 2.0)
DRIFT_OUT_SIGMA = 0.25
DRIFT_BIN_COUNT = 21
DRIFT_BIN_MAX = 32.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one synthetic stream.

    ``schedule`` has one row per iteration with the class mixture
    weights for that iteration.  Features are the class mean plus unit
    Gaussian noise.  Classification scenarios use the class index as
    the output bin; regression scenarios draw a continuous output from
    a lognormal around the class's ``log_medians`` entry with spread
    ``DRIFT_OUT_SIGMA``, multiply it by the iteration's
    ``output_scales`` entry, and bin it against fixed ``bin_edges``.
    ``stall_class`` optionally marks one class's samples with the
    stalled flag so the stall-based baseline has a signal.
    """

    kind: str
    iterations: int
    samples_per_iteration: int
    class_means: np.ndarray
    schedule: np.ndarray
    regression: bool = False
    output_scales: np.ndarray | None = None
    log_medians: np.ndarray | None = None
    bin_edges: np.ndarray | None = None
    stall_class: int | None = None

    def __post_init__(self):
        _validate_schedule(self.schedule, self.iterations, self.n_classes)
        if self.regression and (self.bin_edges is None or self.log_medians is None):
            raise BadSchedule("regression scenarios need bin_edges and log_medians")

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.class_means.shape[1]

    @property
    def k_out(self) -> int:
        if self.regression:
            return len(self.bin_edges) - 1
        return self.n_classes

    @property
    def k_pred(self) -> int:
        return self.k_out

    def bin_midpoints(self) -> np.ndarray:
        """Bin centers for turning predicted bins back into a point value."""
        if not self.regression:
            return np.arange(self.n_classes, dtype=float)
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _validate_schedule(schedule, iterations: int, n_classes: int) -> np.ndarray:
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (iterations, n_classes):
        raise BadSchedule(f"schedule shape {schedule.shape} != ({iterations}, {n_classes})")
    if np.any(schedule < 0):
        raise BadSchedule("schedule weights must be nonnegative")
    sums = schedule.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        worst = sums[np.abs(sums - 1.0).argmax()]
        raise BadSchedule(f"schedule rows must sum to 1, worst row sums to {worst}")
    return schedule


def _default_means(n_classes: int, feature_dim: int) -> np.ndarray:
    means = np.zeros((n_classes, feature_dim))
    for c in range(n_classes):
        means[c, c % feature_dim] = _CLASS_SEPARATION
    return means


# Scenario builders -------------------------------------------------------


def rare_patterns(iterations: int = 20,
                  samples_per_iteration: int = DEFAULT_SAMPLES_PER_ITERATION,
                  feature_dim: int = DEFAULT_FEATURE_DIM,
                  stationary: bool = False) -> ScenarioSpec:
    """Dominant class plus two sporadic ones on fixed cadences.

    Class 0 appears on every ``RARE_W1_PERIOD``-th iteration, class 2 on
    every ``RARE_W3_PERIOD``-th; their per-appearance weights are scaled
    so they still account for 1.3% and 0.5% of the whole stream.  With
    ``stationary=True`` the same overall fractions apply on every
    iteration instead, which removes the drift while keeping the class
    imbalance: useful for testing that triggers stay quiet.
    """
    w1_per_hit = RARE_W1_OVERALL * RARE_W1_PERIOD
    w3_per_hit = RARE_W3_OVERALL * RARE_W3_PERIOD
    schedule = np.zeros((iterations, 3))
    for t in range(iterations):
        if stationary:
            w1, w3 = RARE_W1_OVERALL, RARE_W3_OVERALL
        else:
            w1 = w1_per_hit if t % RARE_W1_PERIOD == 0 else 0.0
            w3 = w3_per_hit if t % RARE_W3_PERIOD == 0 else 0.0
        schedule[t] = (w1, 1.0 - w1 - w3, w3)
    return ScenarioSpec(
        kind="rare_patterns",
        iterations=iterations,
        samples_per_iteration=samples_per_iteration,
        class_means=_default_means(3, feature_dim),
        schedule=schedule,
        stall_class=0,
    )


def incremental(iterations: int = 30,
                samples_per_iteration: int = DEFAULT_SAMPLES_PER_ITERATION,
                feature_dim: int = DEFAULT_FEATURE_DIM) -> ScenarioSpec:
    """Three classes in disjoint, consecutive, equal-length phases."""
    if iterations % 3 != 0:
        raise BadSchedule(f"incremental needs iterations divisible by 3, got {iterations}")
    phase_len = iterations // 3
    schedule = np.zeros((iterations, 3))
    for t in range(iterations):
        schedule[t, t // phase_len] = 1.0
    return ScenarioSpec(
        kind="incremental",
        iterations=iterations,
        samples_per_iteration=samples_per_iteration,
        class_means=_default_means(3, feature_dim),
        schedule=schedule,
    )


def gradual_drift(iterations: int = 30,
                  samples_per_iteration: int = DEFAULT_SAMPLES_PER_ITERATION,
                  feature_dim: int = DEFAULT_FEATURE_DIM) -> ScenarioSpec:
    """All classes always present; the output scale steps 1.0/1.5/2.0.

    A regression stream: raw outputs are class-dependent lognormals
    multiplied by the phase scale and binned against fixed equal-width
    edges, so the same pattern slides into higher bins as load grows.
    """
    if iterations % 3 != 0:
        raise BadSchedule(f"gradual_drift needs iterations divisible by 3, got {iterations}")
    phase_len = iterations // 3
    schedule = np.full((iterations, 3), 1.0 / 3.0)
    scales = np.array([DRIFT_PHASE_SCALES[t // phase_len] for t in range(iterations)])
    return ScenarioSpec(
        kind="gradual_drift",
        iterations=iterations,
        samples_per_iteration=samples_per_iteration,
        class_means=_default_means(3, feature_dim),
        schedule=schedule,
        regression=True,
        output_scales=scales,
        log_medians=np.log(np.array([2.0, 4.0, 8.0])),
        bin_edges=np.linspace(0.0, DRIFT_BIN_MAX, DRIFT_BIN_COUNT + 1),
    )


_BUILDERS = {
    "rare_patterns": rare_patterns,
    "incremental": incremental,
    "gradual_drift": gradual_drift,
}


def build_scenario(kind: str, **kwargs) -> ScenarioSpec:
    """Dispatch to a scenario builder by kind name."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise BadSchedule(f"unknown scenario kind {kind!r}, expected one of {SCENARIO_KINDS}") from None
    return builder(**kwargs)


# Stream generation -------------------------------------------------------


def _uniform(k_pred: int) -> np.ndarray:
    return np.full(k_pred, 1.0 / k_pred)


def _draw_class_samples(spec: ScenarioSpec, labels: np.ndarray, iteration: int,
                        rng: np.random.Generator, start_index: int) -> SamplePool:
    """A pool drawn for ``labels``, with placeholder uniform predictions.

    The ``prediction`` column is a read-only broadcast of one uniform
    row, so it takes ``k_pred`` floats, not ``n * k_pred``.
    """
    n = labels.shape[0]
    features = spec.class_means[labels] + rng.standard_normal((n, spec.feature_dim))
    if spec.regression:
        raw = spec.output_scales[iteration] * np.exp(
            rng.normal(spec.log_medians[labels], DRIFT_OUT_SIGMA)
        )
        bins = np.clip(np.digitize(raw, spec.bin_edges) - 1, 0, spec.k_out - 1)
    else:
        raw = labels.astype(float)
        bins = labels
    if spec.stall_class is None:
        stalled = np.zeros(n, dtype=bool)
    else:
        stalled = labels == spec.stall_class
    return SamplePool(
        features=features,
        prediction=np.broadcast_to(_uniform(spec.k_pred), (n, spec.k_pred)),
        output_bin=bins,
        arrival_index=np.arange(start_index, start_index + n),
        raw_output=raw,
        loss=np.full(n, np.nan),
        stalled=stalled,
        workload=labels,
        noise=np.zeros(n, dtype=bool),
    )


def generate(spec: ScenarioSpec, seed: int = 0):
    """Yield one chunk of samples per iteration, deterministically.

    Each chunk is the :class:`~covmem.samples.SamplePool` it was drawn
    as, so ``SamplePool.from_samples(chunk)`` costs nothing, and the
    chunk iterates as its :class:`~covmem.samples.Sample` rows, built
    on the first iteration and kept.  Predictions are uniform
    placeholders: one read-only row broadcast down the column, so every
    row of a chunk holds the same view object.
    Class labels are drawn from the iteration's schedule row, so
    realized mixture fractions carry ordinary multinomial noise around
    the scheduled weights.
    """
    rng = np.random.default_rng([seed, 1])
    arrival = 0
    for t in range(spec.iterations):
        labels = rng.choice(spec.n_classes, size=spec.samples_per_iteration,
                            p=spec.schedule[t])
        pool = _draw_class_samples(spec, labels, t, rng, arrival)
        arrival += len(pool)
        yield pool


def eval_set(spec: ScenarioSpec, iteration: int, per_class: int, seed: int = 0) -> SamplePool:
    """Balanced held-out pool drawn from every class at one iteration's state.

    Independent of the training stream: evaluation never perturbs the
    stream's random state.  Arrival indices are local to the set.
    """
    rng = np.random.default_rng([seed, 2, iteration])
    labels = np.repeat(np.arange(spec.n_classes), per_class)
    return _draw_class_samples(spec, labels, iteration, rng, 0)


def inject_noise(stream, fraction: float, spec: ScenarioSpec, seed: int = 0):
    """Replace an exact share of each iteration with uniform junk.

    Every iteration has ``round(fraction * n)`` of its samples replaced
    in place (keeping their arrival indices) by samples with features
    uniform over a centered box and a uniformly random output bin.  The
    box half-width is a quarter of the mean distance between class
    means, so junk lands in the sparse gaps between classes where a
    trained model's confidence degrades, not at implausible distances
    where it would be trivially identifiable.  Replacements carry
    ``noise=True`` purely for evaluation; selection strategies never
    read the flag.

    Each chunk is taken in as a pool and comes out as a
    :class:`~covmem.samples.SamplePool`, like the chunks of
    :func:`generate`, so no row is built here either: the pool itself
    when no position is replaced, else a pool whose columns are copies
    with the replaced positions overwritten.  The random draws per
    replaced position are the output bin, then the raw output
    (regression only), then the features.  A ``fraction`` outside
    ``[0, 1]`` raises :class:`~covmem.errors.BadFraction` at the call,
    before the stream is read.
    """
    if not 0.0 <= fraction <= 1.0:
        raise BadFraction(f"noise fraction must lie in [0, 1], got {fraction}")
    # Imported here, not at module level: scipy.spatial is most of the
    # cost of importing covmem, and only noise injection needs it.
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng([seed, 3])
    half = 1.0
    if spec.n_classes > 1:
        half = max(0.25 * float(pdist(spec.class_means).mean()), 1.0)
    lo, hi = -half, half

    def _noisy(iteration_samples):
        pool = SamplePool.from_samples(iteration_samples)
        n = len(pool)
        count = int(round(fraction * n))
        if count == 0:
            return pool
        positions = rng.choice(n, size=count, replace=False)
        features = pool.features.astype(float)
        output_bin = pool.output_bin.copy()
        raw_output = pool.raw_output.copy()
        for pos in positions:
            bin_ = int(rng.integers(spec.k_out))
            output_bin[pos] = bin_
            if spec.regression:
                raw_output[pos] = rng.uniform(spec.bin_edges[bin_], spec.bin_edges[bin_ + 1])
            else:
                raw_output[pos] = bin_
            features[pos] = rng.uniform(lo, hi, spec.feature_dim)
        prediction = pool.prediction.astype(float)
        prediction[positions] = _uniform(spec.k_pred)
        loss, stalled, workload, noise = (
            pool.loss.copy(), pool.stalled.copy(), pool.workload.copy(), pool.noise.copy())
        loss[positions] = np.nan
        stalled[positions] = False
        workload[positions] = -1
        noise[positions] = True
        return pool.with_columns(
            features=features, prediction=prediction, output_bin=output_bin,
            raw_output=raw_output, loss=loss, stalled=stalled, workload=workload, noise=noise,
        )

    return map(_noisy, stream)
