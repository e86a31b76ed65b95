"""Coverage-maximising replay memory for continual learning on streams.

The package keeps a bounded sample memory representative of everything
a model has seen by estimating how densely each region of the stream is
already covered and discarding from the densest regions first.  The
same density machinery yields a drift-aware retraining trigger.
"""
from .samples import (
    BatchTable,
    ReplayMemory,
    Sample,
    SamplePool,
    StrategyConfig,
    mixture,
    read_samples,
    validate_distribution,
    write_samples,
)
from .distances import (
    cross_distance_matrix,
    distance_matrix,
    jsd,
    jsd_cross,
    jsd_pairwise,
    kl_divergence,
)
from .batching import batch_samples, bbdr
from .density import DensityState, kde
from .selection import (
    DiscardEvent,
    SelectionOutcome,
    discard_probabilities,
    draw_index,
    rci,
    retrain_decision,
    select,
)
from .baselines import (
    STRATEGY_KINDS,
    CoverageStrategy,
    FifoStrategy,
    LarsStrategy,
    PriorityStrategy,
    QbcStrategy,
    RandomStrategy,
    SelectionStrategy,
    make_strategy,
)
from .predictors import (
    CentroidPredictor,
    HistogramPredictor,
    LikelihoodPredictor,
    OraclePredictor,
    Predictor,
    UniformPredictor,
    logscore,
    with_losses,
)
from .workloads import (
    SCENARIO_KINDS,
    ScenarioSpec,
    build_scenario,
    eval_set,
    generate,
    gradual_drift,
    incremental,
    inject_noise,
    rare_patterns,
)
from .harness import (
    IterationReport,
    RunConfig,
    balanced_accuracy,
    parse_config,
    percentile_nearest_rank,
    run,
    sweep,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BatchTable", "ReplayMemory", "Sample", "SamplePool", "StrategyConfig",
    "mixture", "validate_distribution",
    "read_samples", "write_samples",
    "kl_divergence", "jsd", "jsd_pairwise", "jsd_cross", "distance_matrix",
    "cross_distance_matrix",
    "batch_samples", "bbdr",
    "kde", "DensityState",
    "discard_probabilities", "draw_index", "select",
    "rci", "retrain_decision", "SelectionOutcome", "DiscardEvent",
    "SelectionStrategy", "CoverageStrategy", "RandomStrategy", "FifoStrategy",
    "PriorityStrategy", "LarsStrategy", "QbcStrategy", "make_strategy",
    "STRATEGY_KINDS",
    "Predictor", "HistogramPredictor", "CentroidPredictor", "LikelihoodPredictor",
    "OraclePredictor",
    "UniformPredictor", "logscore", "with_losses",
    "ScenarioSpec", "rare_patterns", "incremental", "gradual_drift",
    "build_scenario", "generate", "eval_set", "inject_noise", "SCENARIO_KINDS",
    "RunConfig", "IterationReport", "parse_config", "run", "sweep",
    "balanced_accuracy", "percentile_nearest_rank",
    "errors",
]
