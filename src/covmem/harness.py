"""Config-driven experiment harness.

One run wires a stream source (synthetic scenario or a sample-record
file) to a selection strategy and a predictor, iterates selection /
retraining / evaluation, and writes per-iteration reports.

Two files land in the output directory: ``report.csv`` with the metric
columns, byte-identical across repeated runs of the same config, and
``timings.csv`` with the wall-clock seconds each selection call took;
timing is real measurement and cannot be deterministic, so it lives in
its own file rather than poisoning the reproducibility of the report.
"""
import csv
import re
import time
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baselines import QBC_VOTES, STRATEGY_KINDS, make_strategy
from .errors import ConfigError, EmptyInput, NotClassification, UnbalancedEvalSet
from .predictors import (
    CentroidPredictor,
    HistogramPredictor,
    LikelihoodPredictor,
    OraclePredictor,
    Predictor,
    UniformPredictor,
    _log_scores,
)
from .samples import ReplayMemory, SamplePool, StrategyConfig, read_samples, write_samples
from .workloads import SCENARIO_KINDS, ScenarioSpec, build_scenario, eval_set, generate, inject_noise

__all__ = [
    "RunConfig",
    "IterationReport",
    "parse_config",
    "run",
    "sweep",
    "balanced_accuracy",
    "percentile_nearest_rank",
    "REPORT_FIELDS",
]

# each predictor kind's class; only the oracle also takes the scenario's class means
_PREDICTORS = {"histogram": HistogramPredictor, "centroid": CentroidPredictor,
               "likelihood": LikelihoodPredictor, "oracle": OraclePredictor,
               "uniform": UniformPredictor}
PREDICTOR_KINDS = tuple(_PREDICTORS)


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run depends on.

    Exactly one of ``scenario`` and ``input`` must be set.  File-based
    runs read sample records, chunk them into iterations of
    ``samples_per_iteration``, and need ``k_pred``/``k_out`` spelled
    out; synthetic runs derive both from the scenario and refuse either
    one set.
    """

    strategy: str
    capacity: int
    batch_size: int
    scenario: str | None = None
    input: str | None = None
    iterations: int | None = None
    samples_per_iteration: int | None = None
    feature_dim: int = 16
    stationary: bool = False
    noise_fraction: float = 0.0
    predictor: str = "centroid"
    committee_size: int = 5
    qbc_vote: str = "soft"
    bandwidth: float = 0.1
    temperature: float = 0.01
    threshold: float = 0.1
    seed: int = 0
    k_pred: int | None = None
    k_out: int | None = None
    retrain: str = "strategy"
    retrain_every: int = 1
    eval_per_class: int = 300
    out_dir: str | None = None
    snapshots: bool = False

    def __post_init__(self):
        if (self.scenario is None) == (self.input is None):
            raise ConfigError("exactly one of 'scenario' and 'input' must be set")
        if self.scenario is not None and self.scenario not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {self.scenario!r}, expected one of {SCENARIO_KINDS}")
        if self.strategy not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGY_KINDS}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ConfigError(f"unknown predictor {self.predictor!r}, expected one of {PREDICTOR_KINDS}")
        if self.retrain not in ("strategy", "every"):
            raise ConfigError(f"retrain must be 'strategy' or 'every', got {self.retrain!r}")
        if self.retrain == "every" and self.retrain_every < 1:
            raise ConfigError(f"retrain_every must be >= 1, got {self.retrain_every}")
        for name in ("iterations", "samples_per_iteration", "feature_dim", "eval_per_class"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.committee_size < 1:
            raise ConfigError(f"committee_size must be >= 1, got {self.committee_size}")
        if self.qbc_vote not in QBC_VOTES:
            raise ConfigError(f"qbc_vote must be one of {QBC_VOTES}, got {self.qbc_vote!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.input is not None and (self.k_pred is None or self.k_out is None):
            raise ConfigError("file-based runs must set k_pred and k_out")
        if self.scenario is not None and (self.k_pred is not None or self.k_out is not None):
            raise ConfigError(f"scenario {self.scenario!r} fixes k_pred and k_out; "
                              "set them only for file-based runs")
        if self.k_pred is not None and self.k_out is not None and self.k_out > self.k_pred:
            # predictors index their k_pred-bin predictions by output bin
            raise ConfigError(f"k_out {self.k_out} exceeds k_pred {self.k_pred}")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ConfigError(f"noise_fraction must lie in [0, 1], got {self.noise_fraction}")
        if self.input is not None and self.noise_fraction:
            raise ConfigError("noise_fraction needs a scenario to draw noise from; "
                              "file-based runs cannot inject it")
        # the strategy knobs, checked by the StrategyConfig the run builds;
        # a scenario derives the bin counts, so 1 stands in for them
        try:
            self._strategy_config(1 if self.k_pred is None else self.k_pred,
                                 1 if self.k_out is None else self.k_out)
        except ValueError as err:
            raise ConfigError(f"bad strategy setting: {err}") from err

    def _strategy_config(self, k_pred: int, k_out: int) -> StrategyConfig:
        """The :class:`StrategyConfig` of this run over ``k_pred`` and ``k_out`` bins."""
        return StrategyConfig(
            capacity=self.capacity,
            batch_size=self.batch_size,
            bandwidth=self.bandwidth,
            temperature=self.temperature,
            threshold=self.threshold,
            k_pred=k_pred,
            k_out=k_out,
        )


@dataclass
class IterationReport:
    """Metrics recorded after each stream iteration."""

    iteration: int
    retrained: bool
    rci: float
    balanced_accuracy: float
    p99_error: float
    mean_logscore: float
    p1_logscore: float
    mem_class_counts: np.ndarray
    selection_seconds: float


# Config files -------------------------------------------------------------
#
# Flat "key = value" lines; '#' starts a comment at the start of a line
# or after whitespace, so a value such as a path may contain '#'.  Keys
# mirror the RunConfig fields one to one.

_COMMENT = re.compile(r"(?:^|\s)#")
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _key_types() -> dict:
    """Each config key's type: its :class:`RunConfig` field's, with ``X | None`` read as ``X``."""
    return {f.name: (typing.get_args(f.type) or (f.type,))[0] for f in fields(RunConfig)}


def coerce_value(key: str, raw: str):
    """Parse one config value according to its key's declared type."""
    kind = _key_types().get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    raw = raw.strip()
    try:
        if kind is bool and raw.lower() not in _BOOLEANS:
            raise ValueError(f"not a boolean: {raw!r}")
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {err}") from err


def parse_config(path) -> RunConfig:
    """Read a flat key-value config file into a :class:`RunConfig`."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _key_types():
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = coerce_value(key, raw)
    missing = {"strategy", "capacity", "batch_size"} - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")
    try:
        return RunConfig(**values)
    except TypeError as err:
        raise ConfigError(f"{path}: {err}") from err


# Metrics ------------------------------------------------------------------


def balanced_accuracy(true_labels, predicted_labels, n_classes: int) -> float:
    """Mean per-class accuracy over an exactly class-balanced set."""
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.shape != predicted_labels.shape:
        raise UnbalancedEvalSet(
            f"label vectors differ in length: {true_labels.shape} vs {predicted_labels.shape}"
        )
    if true_labels.size == 0:
        raise EmptyInput("no labels to score")
    counts = np.bincount(true_labels, minlength=n_classes)
    present = counts[counts > 0]
    if present.size != n_classes or np.unique(present).size != 1:
        raise UnbalancedEvalSet(
            f"per-class counts must be equal across all {n_classes} classes, got {counts.tolist()}"
        )
    per_class = [
        (predicted_labels[true_labels == c] == c).mean() for c in range(n_classes)
    ]
    return float(np.mean(per_class))


def percentile_nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise EmptyInput("no values to take a percentile of")
    rank = max(1, int(np.ceil(q * values.size)))
    return float(values[rank - 1])


def _make_predictor(kind: str, spec: ScenarioSpec | None, k_pred: int) -> Predictor:
    if kind != "oracle":
        return _PREDICTORS[kind](k_pred)
    if spec is None:
        raise ConfigError("the oracle predictor needs a synthetic scenario's class means")
    return OraclePredictor(spec.class_means, k_pred)


def _evaluate(predictor: Predictor, pool: SamplePool, spec: ScenarioSpec | None,
              n_classes: int) -> tuple[float, float, float, float]:
    """Balanced accuracy, p99 error, mean and p1 logscore on one eval set.

    Without a scenario (``spec`` is None) the set has no balanced split
    and no bin midpoints, so accuracy and p99 are NaN.
    """
    predictions = predictor.predict_many(pool.features)
    logscores = _log_scores(predictions, pool.output_bin)
    acc = p99 = float("nan")
    if spec is not None and spec.regression:
        point = predictions @ spec.bin_midpoints()
        p99 = percentile_nearest_rank(np.abs(point - pool.raw_output), 0.99)
    elif spec is not None:
        acc = balanced_accuracy(pool.workload, predictions.argmax(axis=1), n_classes)
    return acc, p99, float(logscores.mean()), percentile_nearest_rank(logscores, 0.01)


# Run loop -----------------------------------------------------------------


def scenario_stream(scenario: str, seed: int, noise_fraction: float = 0.0, **shape):
    """Build a scenario and its stream, with ``noise_fraction`` of it noise.

    ``shape`` holds scenario-builder keywords; a ``None`` value keeps the
    builder's default, and ``stationary`` reaches ``rare_patterns`` only.
    Every stream goes through :func:`~covmem.workloads.inject_noise`,
    for which a fraction of 0 is the identity.  A ``noise_fraction``
    outside ``[0, 1]``, or NaN, raises :class:`~covmem.errors.BadFraction`
    once the spec is built, before the stream is read.
    Returns ``(stream, spec)``.
    """
    shape = {k: v for k, v in shape.items() if v is not None}
    if scenario != "rare_patterns":
        shape.pop("stationary", None)
    spec = build_scenario(scenario, **shape)
    return inject_noise(generate(spec, seed), noise_fraction, spec, seed), spec


def _stream_and_spec(config: RunConfig):
    if config.scenario is not None:
        stream, spec = scenario_stream(
            config.scenario, config.seed, config.noise_fraction,
            iterations=config.iterations, samples_per_iteration=config.samples_per_iteration,
            feature_dim=config.feature_dim, stationary=config.stationary,
        )
        return stream, spec, spec.k_pred, spec.k_out, spec.n_classes
    # each chunk is a pool, which both the strategy's select and the evaluation take
    pool = read_samples(config.input, config.k_pred, config.k_out)
    if not len(pool):
        raise EmptyInput(f"{config.input}: no sample records to run on")
    spi = config.samples_per_iteration or len(pool)
    starts = range(0, len(pool), spi)[: config.iterations]
    chunks = (pool.take(slice(i, i + spi)) for i in starts)
    tagged = bool((pool.workload >= 0).any())
    n_classes = int(pool.workload.max()) + 1 if tagged else config.k_out
    return chunks, None, config.k_pred, config.k_out, n_classes


def run(config: RunConfig) -> list[IterationReport]:
    """Execute one configured run; write reports if ``out_dir`` is set."""
    stream, spec, k_pred, k_out, n_classes = _stream_and_spec(config)
    if config.strategy == "lars" and spec is not None and spec.regression:
        raise NotClassification(f"strategy 'lars' evicts by class label, but scenario "
                                f"{config.scenario!r} is a regression stream")
    cfg = config._strategy_config(k_pred, k_out)
    predictor = _make_predictor(config.predictor, spec, k_pred)
    strategy = make_strategy(
        config.strategy,
        base_predictor=_make_predictor(
            "centroid" if config.predictor == "oracle" else config.predictor, spec, k_pred
        ),
        committee_size=config.committee_size,
        vote=config.qbc_vote,
    )
    memory = ReplayMemory(capacity=config.capacity)
    rng = np.random.default_rng([config.seed, 4])
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for t, new_samples in enumerate(stream):
        started = time.perf_counter()
        outcome = strategy.select(memory, new_samples, cfg, predictor, rng)
        elapsed = time.perf_counter() - started

        if config.retrain == "strategy":
            retrained = outcome.retrain
        else:
            retrained = t % config.retrain_every == 0
        if retrained and memory.sample_count > 0:
            train = memory.sorted_samples()
            predictor = predictor.fit(train)
            strategy.on_retrain(train, rng)
            if out_dir is not None and config.snapshots:
                write_samples(out_dir / f"memory_{t:04d}.ndjson", train)

        if spec is not None:
            scored = eval_set(spec, t, config.eval_per_class, config.seed)
        else:
            scored = new_samples  # file-based pools have no held-out set
        acc, p99, mean_ls, p1_ls = _evaluate(predictor, scored, spec, n_classes)
        counts = memory.class_counts(n_classes, by="workload" if spec is not None else "output_bin")
        reports.append(IterationReport(
            iteration=t,
            retrained=retrained,
            rci=outcome.rci,
            balanced_accuracy=acc,
            p99_error=p99,
            mean_logscore=mean_ls,
            p1_logscore=p1_ls,
            mem_class_counts=counts,
            selection_seconds=elapsed,
        ))

    if out_dir is not None:
        write_reports(out_dir, reports, n_classes)
    return reports


REPORT_FIELDS = ["iteration", "retrained", "rci", "balanced_accuracy",
                 "p99_error", "mean_logscore", "p1_logscore"]


def write_reports(out_dir, reports: list[IterationReport], n_classes: int) -> None:
    """Write ``report.csv`` (deterministic) and ``timings.csv`` (not)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = REPORT_FIELDS + [f"mem_count_class_{c}" for c in range(n_classes)]
    with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in reports:
            writer.writerow(
                [r.iteration, int(r.retrained), repr(r.rci), repr(r.balanced_accuracy),
                 repr(r.p99_error), repr(r.mean_logscore), repr(r.p1_logscore)]
                + [int(c) for c in r.mem_class_counts]
            )
    with open(out_dir / "timings.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "selection_seconds"])
        for r in reports:
            writer.writerow([r.iteration, repr(r.selection_seconds)])


def sweep(config: RunConfig, param: str, values: list[str]) -> dict[str, list[IterationReport]]:
    """Run the base config once per value of one swept parameter.

    Each run writes into ``<out_dir>/<param>=<value>/``.  Values arrive
    as strings (straight off a command line) and are coerced to the
    swept field's type.
    """
    if param not in _key_types() or param == "out_dir":
        raise ConfigError(f"cannot sweep key {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    base_dir = Path(config.out_dir) if config.out_dir else None
    results = {}
    for raw in values:
        value = coerce_value(param, raw) if isinstance(raw, str) else raw
        sub = replace(
            config,
            **{param: value},
            out_dir=str(base_dir / f"{param}={raw}") if base_dir else None,
        )
        results[str(raw)] = run(sub)
    return results
