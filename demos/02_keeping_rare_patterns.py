"""
Why coverage selection keeps what reservoirs lose
=================================================

A replay memory with room for 25 samples watches a stream of 500 where
all but one sample look alike.  Uniform reservoir sampling keeps any
given sample with probability 25/500, so the rare one usually vanishes.
Coverage selection keeps it every time: the duplicated majority is
dense, so that is where all the discards land.
"""
import numpy as np

from covmem import ReplayMemory, StrategyConfig, Sample, make_strategy

COMMON, RARE = 0, 1

# Hand-built stream: 499 near-identical "common" samples, one rare one.
# Predictions are already attached, so no predictor is involved.
def sample(kind, arrival):
    if kind == COMMON:
        prediction = np.array([0.97, 0.03])
    else:
        prediction = np.array([0.05, 0.95])
    return Sample(features=np.zeros(2), output_bin=kind,
                  prediction=prediction, arrival_index=arrival,
                  raw_output=float(kind))

stream = [sample(COMMON, i) for i in range(499)] + [sample(RARE, 499)]

cfg = StrategyConfig(capacity=25, batch_size=1, k_pred=2, k_out=2,
                     temperature=0.0)

TRIALS = 100
for kind in ("memento", "random"):
    kept = 0
    for trial in range(TRIALS):
        memory = ReplayMemory(capacity=25)
        strategy = make_strategy(kind)
        strategy.select(memory, list(stream), cfg, None,
                        np.random.default_rng(trial))
        kept += int(memory.class_counts(2, by="output_bin")[RARE] > 0)
    print(f"{kind:8s}: rare sample survives in {kept}/{TRIALS} trials")

# Expect the reservoir near 25/500 = 5% and coverage selection at 100%.
# The same asymmetry at realistic scale is what the acceptance suite
# checks: rare workload classes fill a large share of a 20,000-sample
# memory under coverage selection and almost none of a reservoir.
