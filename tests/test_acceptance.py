"""Acceptance suite: ten end-to-end checks of the whole toolkit.

Each criterion runs as one test and prints a single ``criterion N:
PASS/FAIL`` line (visible with ``pytest -s`` or ``-rA``; the test verdict
carries the same information).  Every test also enforces its own wall
clock budget, so a pathological slowdown fails loudly instead of rotting
quietly.

The experiment-style criteria (4 through 7) pin every free parameter:
scenario sizes, capacity, predictor, seeds.  Those values were chosen
once, by measuring, and are frozen here; the thresholds they must beat
are stated next to each test.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from covmem import (
    LikelihoodPredictor,
    OraclePredictor,
    ReplayMemory,
    RunConfig,
    Sample,
    StrategyConfig,
    generate,
    incremental,
    inject_noise,
    jsd,
    jsd_pairwise,
    make_strategy,
    rare_patterns,
    rci,
    run,
)
from covmem.batching import batch_samples
from covmem.samples import SamplePool
from covmem.density import DensityState, kernel_table

KERNEL_PEAK = 1.0 / np.sqrt(2.0 * np.pi)
LN2 = np.log(2.0)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} overran its {budget_seconds:.0f}s budget "
            f"({elapsed:.1f}s)"
        )
    except Exception:
        print(f"criterion {number:2d}: FAIL "
              f"({time.perf_counter() - start:.1f}s) - {label}")
        raise
    print(f"criterion {number:2d}: PASS ({elapsed:.1f}s) - {label}")


def labeled_sample(prediction, output_bin, arrival, features=None):
    return Sample(
        features=np.zeros(2) if features is None else np.asarray(features, float),
        output_bin=output_bin,
        prediction=np.asarray(prediction, dtype=float),
        arrival_index=arrival,
        raw_output=float(output_bin),
    )


# --------------------------------------------------------------------------
# 1. The square root of the divergence is a metric on distributions.


def test_criterion_01_divergence_metric_properties():
    with criterion(1, "divergence metric properties on fuzzed triples", 10.0):
        rng = np.random.default_rng(20260816)
        triples_per_k = 3400  # 10,200 triples / 30,600 ordered pairs overall
        for k in (2, 21, 64):
            rows = []
            for concentration in (0.3, 1.0, 3.0):
                rows.append(rng.dirichlet(np.full(k, concentration),
                                          size=triples_per_k))
            p_rows, q_rows, r_rows = rows
            # edge cases folded into the fuzz: point masses, exact zeros,
            # identical pairs
            p_rows[0] = np.eye(k)[0]
            q_rows[0] = np.eye(k)[k - 1]
            p_rows[1, : k // 2] = 0.0
            p_rows[1] /= p_rows[1].sum()
            q_rows[2] = p_rows[2]
            for p, q, r in zip(p_rows, q_rows, r_rows):
                d_pq, d_qp = jsd(p, q), jsd(q, p)
                d_qr, d_pr = jsd(q, r), jsd(p, r)
                for d in (d_pq, d_qr, d_pr):
                    assert 0.0 <= d <= 1.0 + 1e-12
                assert abs(d_pq - d_qp) <= 1e-12
                assert jsd(p, p) <= 1e-9
                assert d_pr <= d_pq + d_qr + 1e-9


# --------------------------------------------------------------------------
# 2. Incremental density updates track from-scratch recomputation.


def test_criterion_02_incremental_density_matches_recomputation():
    with criterion(2, "incremental density vs from-scratch oracle", 30.0):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 61))
            k = int(rng.integers(2, 9))
            d_pred = jsd_pairwise(rng.dirichlet(np.full(k, 0.6), size=n))
            d_out = jsd_pairwise(rng.dirichlet(np.full(k, 0.6), size=n))
            bandwidth = float(10 ** rng.uniform(-1.3, -0.5))
            state = DensityState(kernel_table(d_pred, bandwidth), kernel_table(d_out, bandwidth))
            active = np.arange(n)
            while True:
                oracle = np.minimum(
                    np.exp(-0.5 * (d_pred[np.ix_(active, active)] / bandwidth) ** 2).mean(axis=1),
                    np.exp(-0.5 * (d_out[np.ix_(active, active)] / bandwidth) ** 2).mean(axis=1),
                ) * KERNEL_PEAK
                np.testing.assert_allclose(state.rho_min, oracle, rtol=0, atol=1e-9)
                if len(active) == 1:
                    break
                j = int(rng.integers(len(active)))
                state.remove_batch(j)
                active = np.delete(active, j)


# --------------------------------------------------------------------------
# 3. Zero-temperature selection equals brute-force greedy removal.
#
# The oracle rebuilds distances with scipy and recomputes every density
# from scratch at every step.  Two independent float pipelines can only
# disagree where the argmax is genuinely tied, so the comparison is
# exact wherever the top-two density gap exceeds 1e-9 and otherwise
# requires the implementation's pick to sit within 1e-9 of the maximum.
# Predictions are drawn on a coarse grid so real ties are exact and
# everything else is separated by far more than float drift.


def grid_prediction(rng, k):
    while True:
        numerators = rng.integers(0, 9, size=k)
        if numerators.sum() > 0:
            return numerators / numerators.sum()


def test_criterion_03_zero_temperature_matches_greedy_oracle():
    with criterion(3, "T=0, b=1 selection vs brute-force greedy oracle", 60.0):
        tie_eps = 1e-9
        rng = np.random.default_rng(12345)
        for pool_index in range(100):
            n = int(rng.integers(20, 201))
            k = int(rng.integers(2, 6))
            chunk = [labeled_sample(grid_prediction(rng, k), int(rng.integers(k)), i)
                     for i in range(n)]
            capacity = int(rng.integers(1, n + 1))
            cfg = StrategyConfig(capacity=capacity, batch_size=1, k_pred=k,
                                 k_out=k, temperature=0.0)
            memory = ReplayMemory(capacity=capacity)
            outcome = make_strategy("memento").select(
                memory, chunk, cfg, None, np.random.default_rng([pool_index, 4]))

            batches = batch_samples(SamplePool.from_samples(chunk), 1)
            pred_rows = batches.pred_dist
            out_rows = np.eye(k)[batches.out_bin]
            d_pred = cdist(pred_rows, pred_rows, metric="jensenshannon") / np.sqrt(LN2)
            d_out = cdist(out_rows, out_rows, metric="jensenshannon") / np.sqrt(LN2)
            active = list(range(len(batches)))
            for event in outcome.trace:
                idx = np.array(active)
                rho = np.minimum(
                    np.exp(-0.5 * (d_pred[np.ix_(idx, idx)] / cfg.bandwidth) ** 2).mean(axis=1),
                    np.exp(-0.5 * (d_out[np.ix_(idx, idx)] / cfg.bandwidth) ** 2).mean(axis=1),
                ) * KERNEL_PEAK
                position = active.index(event.batch_index)
                assert rho[position] >= rho.max() - tie_eps
                ranked = np.sort(rho)[::-1]
                if len(rho) > 1 and ranked[0] - ranked[1] > tie_eps:
                    assert active[int(np.argmax(rho))] == event.batch_index
                active.pop(position)
            kept_oracle = sorted(batches.member_ids[active])
            assert sorted(outcome.kept_ids) == kept_oracle


# --------------------------------------------------------------------------
# 4-7: experiment-level checks.  Shared wiring: stream a scenario through
# a strategy, retraining whenever the strategy asks.


def stream_through(kind, spec, cfg, predictor, seed, noise=0.0,
                   stop_after=None):
    strategy = make_strategy(kind, base_predictor=LikelihoodPredictor(spec.k_pred))
    memory = ReplayMemory(capacity=cfg.capacity)
    rng = np.random.default_rng([seed, 4])
    stream = generate(spec, seed)
    if noise:
        stream = inject_noise(stream, noise, spec, seed)
    retrain_iterations = []
    for t, chunk in enumerate(stream):
        outcome = strategy.select(memory, chunk, cfg, predictor, rng)
        if outcome.retrain:
            retrain_iterations.append(t)
            if memory.sample_count:
                training_set = memory.sorted_samples()
                predictor = predictor.fit(training_set)
                strategy.on_retrain(training_set, rng)
        if stop_after is not None and t == stop_after:
            break
    return memory, retrain_iterations


def test_criterion_04_rare_pattern_retention():
    # Dominant class every iteration; one pattern on a 5-iteration
    # cadence, another on a 10-iteration cadence.  Coverage selection
    # must hoard the rare patterns, uniform sampling must hold only
    # their stream share, and recency eviction must lose them entirely
    # (the final iterations contain no rare samples).
    with criterion(4, "rare patterns retained at 20k capacity", 300.0):
        capacity = 20_000
        for seed in range(5):
            spec = rare_patterns(iterations=20, samples_per_iteration=40_000)
            cfg = StrategyConfig(capacity=capacity, batch_size=256,
                                 k_pred=3, k_out=3)
            predictor = OraclePredictor(spec.class_means)
            counts = {}
            for kind in ("memento", "random", "fifo"):
                memory, _ = stream_through(kind, spec, cfg, predictor, seed)
                counts[kind] = memory.class_counts(3, by="workload")
            for rare_class in (0, 2):
                assert counts["memento"][rare_class] >= 0.15 * capacity
                assert counts["random"][rare_class] <= 0.03 * capacity
                assert counts["fifo"][rare_class] == 0


def test_criterion_05_new_class_uptake_speed():
    # Classes arrive in three disjoint phases.  Two iterations into the
    # final class's phase, coverage selection must hold at least three
    # times the share a uniform reservoir holds.
    with criterion(5, "new classes enter memory 3x faster than reservoir", 300.0):
        for seed in range(5):
            spec = incremental(iterations=30, samples_per_iteration=10_000)
            cfg = StrategyConfig(capacity=20_000, batch_size=256,
                                 k_pred=3, k_out=3)
            predictor = OraclePredictor(spec.class_means)
            shares = {}
            for kind in ("memento", "random"):
                memory, _ = stream_through(kind, spec, cfg, predictor, seed,
                                           stop_after=21)
                class_counts = memory.class_counts(3, by="workload")
                shares[kind] = class_counts[2] / class_counts.sum()
            assert shares["memento"] >= 3.0 * shares["random"]


def test_criterion_06_noise_rejection_ordering():
    # 5% of every iteration replaced by junk.  Per seed, compare final
    # noise fractions: softened discards must beat pure greedy (which
    # never touches anything below the density maximum, so junk parked
    # there is immortal), and both must beat committee-entropy selection
    # (which ranks junk highest and hoards it).  Majority vote over the
    # seeds, per comparison.
    with criterion(6, "soft-temperature discards shed noise best", 600.0):
        soft_beats_greedy = 0
        soft_beats_committee = 0
        seeds = range(5)
        for seed in seeds:
            fractions = {}
            for kind, temperature in (("memento", 0.01), ("memento", 0.0),
                                      ("qbc", 0.01)):
                spec = rare_patterns(iterations=30, samples_per_iteration=10_000)
                cfg = StrategyConfig(capacity=20_000, batch_size=256,
                                     k_pred=3, k_out=3,
                                     temperature=temperature)
                memory, _ = stream_through(kind, spec, cfg,
                                           LikelihoodPredictor(3), seed,
                                           noise=0.05)
                fractions[(kind, temperature)] = memory.noise_fraction()
            soft = fractions[("memento", 0.01)]
            soft_beats_greedy += soft < fractions[("memento", 0.0)]
            soft_beats_committee += soft < fractions[("qbc", 0.01)]
        assert soft_beats_greedy > len(seeds) / 2
        assert soft_beats_committee > len(seeds) / 2


def test_criterion_07_retraining_stays_sparse_when_stationary():
    # With every class present every iteration, memory composition
    # settles after warm-up; the coverage-change trigger should fire on
    # the first pass and then at most three more times over forty
    # iterations.
    with criterion(7, "retraining trigger stays quiet on stationary data", 300.0):
        spec = rare_patterns(iterations=51, samples_per_iteration=10_000,
                             stationary=True)
        cfg = StrategyConfig(capacity=20_000, batch_size=256, k_pred=3,
                             k_out=3, threshold=0.1)
        predictor = OraclePredictor(spec.class_means)
        _, retrain_iterations = stream_through("memento", spec, cfg,
                                               predictor, seed=0)
        assert retrain_iterations[0] == 0  # warm-up against empty reference
        late = [t for t in retrain_iterations if 10 <= t <= 50]
        assert len(late) <= 3


# --------------------------------------------------------------------------
# 8. Fixed points of the coverage-change index.


def test_criterion_08_coverage_change_index_fixed_points():
    with criterion(8, "coverage change index fixed points", 10.0):
        k = 8
        cfg_batch = 1

        def point_mass_batches(bins):
            samples = [
                labeled_sample(np.eye(k)[b], b, i) for i, b in enumerate(bins)
            ]
            return batch_samples(SamplePool.from_samples(samples), cfg_batch)

        current = point_mass_batches([4, 5, 6, 7, 4, 5])
        reference = point_mass_batches([0, 1, 2, 3, 0, 1])
        assert rci(current, current, bandwidth=0.1) == 0.0
        assert rci(current, [], bandwidth=0.1) == 1.0
        assert rci(current, reference, bandwidth=0.1) >= 0.9
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = [labeled_sample(rng.dirichlet(np.ones(k)), int(rng.integers(k)), i)
                 for i in range(int(rng.integers(1, 40)))]
            b = [labeled_sample(rng.dirichlet(np.ones(k)), int(rng.integers(k)), i)
                 for i in range(int(rng.integers(1, 40)))]
            value = rci(batch_samples(SamplePool.from_samples(a), 4),
                        batch_samples(SamplePool.from_samples(b), 4),
                        bandwidth=0.1)
            assert 0.0 <= value <= 1.0


# --------------------------------------------------------------------------
# 9. A million samples select under the single-core time bound.


def test_criterion_09_million_sample_selection_time():
    with criterion(9, "1,000,000-sample selection under 120s", 120.0):
        spec = rare_patterns(iterations=1, samples_per_iteration=1_000_000)
        chunk = next(iter(generate(spec, seed=0)))
        cfg = StrategyConfig(capacity=100_000, batch_size=256, k_pred=3,
                             k_out=3)
        memory = ReplayMemory(capacity=cfg.capacity)
        started = time.perf_counter()
        make_strategy("memento").select(
            memory, chunk, cfg, OraclePredictor(spec.class_means),
            np.random.default_rng([0, 4]))
        selection_seconds = time.perf_counter() - started
        assert selection_seconds < 120.0
        assert memory.sample_count <= cfg.capacity


# --------------------------------------------------------------------------
# 10. Same seed, same bytes.


def test_criterion_10_reports_are_byte_identical_across_reruns(tmp_path):
    with criterion(10, "rerun with same seed is byte-identical", 60.0):
        def run_to(directory):
            run(RunConfig(
                strategy="memento",
                scenario="rare_patterns",
                capacity=2000,
                batch_size=64,
                iterations=3,
                samples_per_iteration=5000,
                feature_dim=8,
                eval_per_class=100,
                predictor="likelihood",
                noise_fraction=0.05,
                seed=7,
                out_dir=str(directory),
                snapshots=True,
            ))
            return directory

        first = run_to(tmp_path / "first")
        second = run_to(tmp_path / "second")
        compared = 0
        for name in sorted(p.name for p in first.iterdir()):
            if name == "timings.csv":  # wall-clock sidecar, varies by design
                continue
            assert (first / name).read_bytes() == (second / name).read_bytes()
            compared += 1
        assert compared >= 2  # the report table plus at least one snapshot
