"""
The price of novelty seeking, and how discard temperature pays it down
======================================================================

Junk looks rare.  Replace 5% of a stream with uniform-feature,
random-label noise and any strategy that hunts for under-represented
samples will hold more of it than its stream share; a uniform reservoir
holds exactly its stream share, which makes it the reference row.

The interesting comparison is among the novelty seekers:

* committee entropy ranks junk at the very top (a committee trained on
  bootstraps agrees on clean classes and splinters on junk), so it
  hoards noise;
* pure greedy discards (temperature 0) only ever remove the single
  densest batch, so junk that is sparse enough to stay below the
  maximum is immortal;
* softened discards (temperature 0.01) spread removal probability over
  every batch, so junk is evicted eventually, just more slowly than
  the dense majority.
"""
import numpy as np

from covmem import (LikelihoodPredictor, ReplayMemory, StrategyConfig,
                    generate, inject_noise, make_strategy, rare_patterns)

NOISE = 0.05
SEED = 0


def noise_share_in_memory(kind, temperature):
    spec = rare_patterns(iterations=10, samples_per_iteration=3_000)
    cfg = StrategyConfig(capacity=2_000, batch_size=128, k_pred=3, k_out=3,
                         temperature=temperature)
    strategy = make_strategy(kind, base_predictor=LikelihoodPredictor(3))
    memory = ReplayMemory(capacity=cfg.capacity)
    rng = np.random.default_rng([SEED, 4])
    predictor = LikelihoodPredictor(3)
    for chunk in inject_noise(generate(spec, SEED), NOISE, spec, SEED):
        outcome = strategy.select(memory, chunk, cfg, predictor, rng)
        if outcome.retrain and memory.sample_count:
            train = memory.sorted_samples()
            predictor = predictor.fit(train)
            strategy.on_retrain(train, rng)
    return memory.noise_fraction()


print(f"noise share of the stream: {NOISE:.0%}\n")
print("strategy                      noise share of memory")
for label, kind, temperature in (
    ("random reservoir", "random", 0.0),
    ("coverage, soft discards", "memento", 0.01),
    ("coverage, greedy discards", "memento", 0.0),
    ("committee entropy", "qbc", 0.01),
):
    share = noise_share_in_memory(kind, temperature)
    print(f"{label:30s} {share:.1%}")
