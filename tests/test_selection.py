import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmem import (
    BatchTable,
    ReplayMemory,
    Sample,
    SamplePool,
    StrategyConfig,
    UniformPredictor,
    batch_samples,
    discard_probabilities,
    cross_distance_matrix,
    distance_matrix,
    draw_index,
    kde,
    rci,
    retrain_decision,
    select,
)
from covmem.distances import _SCRATCH, distinct_rows
from covmem.errors import (
    EmptyCurrentSet,
    EmptyInput,
    NegativeProbability,
    NegativeTemperature,
    NonFiniteValue,
    NonNormalizedPrediction,
)
from covmem.selection import _cross_density, _density_state

# softmax([0.4, 0.3] / 0.01), frozen from a high-precision evaluation
SOFTMAX_TENTH_GAP = (0.9999546021312976, 4.5397868702434395e-05)


def sample(i, output_bin, prediction, features=None):
    return Sample(
        features=np.asarray(features if features is not None else [0.0]),
        output_bin=output_bin,
        prediction=np.asarray(prediction, dtype=float),
        arrival_index=i,
    )


def cluster(start, count, output_bin, prediction, k):
    vec = np.zeros(k)
    for bin_index, mass in prediction:
        vec[bin_index] = mass
    return [sample(start + i, output_bin, vec) for i in range(count)]


class TestDiscardProbabilities:
    def test_frozen_softmax(self):
        got = discard_probabilities(np.array([0.4, 0.3]), temperature=0.01)
        assert got[0] == pytest.approx(SOFTMAX_TENTH_GAP[0], abs=1e-15)
        assert got[1] == pytest.approx(SOFTMAX_TENTH_GAP[1], abs=1e-18)
        assert got.sum() == pytest.approx(1.0)

    def test_zero_temperature_is_argmax(self):
        np.testing.assert_array_equal(
            discard_probabilities(np.array([0.1, 0.5, 0.2]), 0.0), [0.0, 1.0, 0.0]
        )

    def test_zero_temperature_tie_takes_lowest_index(self):
        np.testing.assert_array_equal(
            discard_probabilities(np.array([0.3, 0.5, 0.5]), 0.0), [0.0, 1.0, 0.0]
        )

    def test_high_temperature_flattens(self):
        got = discard_probabilities(np.array([0.39, 0.01]), temperature=1e9)
        np.testing.assert_allclose(got, 0.5, atol=1e-9)

    def test_monotone_in_density(self):
        got = discard_probabilities(np.array([0.1, 0.2, 0.3]), temperature=0.05)
        assert got[0] < got[1] < got[2]

    def test_negative_temperature(self):
        with pytest.raises(NegativeTemperature):
            discard_probabilities(np.array([0.1]), -1.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            discard_probabilities(np.array([]), 0.1)

    @pytest.mark.parametrize("temperature", [0.0, 0.01])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_is_rejected(self, bad, temperature):
        """A NaN would give all-NaN mass, which draw_index reads as index 0."""
        with pytest.raises(NonFiniteValue, match="densities"):
            discard_probabilities(np.array([0.1, bad, 0.2]), temperature)


class TestDrawIndex:
    def test_point_mass_is_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert draw_index(np.array([0.0, 1.0, 0.0]), rng) == 1

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(1)
        p = np.array([0.2, 0.5, 0.3])
        draws = np.bincount([draw_index(p, rng) for _ in range(20000)], minlength=3)
        np.testing.assert_allclose(draws / 20000, p, atol=0.02)

    def test_never_out_of_range(self):
        # cumsum roundoff can leave the last edge a hair under 1.0
        rng = np.random.default_rng(2)
        p = np.full(7, 1 / 7)
        assert all(0 <= draw_index(p, rng) < 7 for _ in range(1000))

    @pytest.mark.parametrize("bad, error", [
        (np.array([]), EmptyInput),
        (np.array([[0.5, 0.5]]), EmptyInput),
        (np.array([0.5, np.nan, 0.5]), NonFiniteValue),
        (np.array([0.5, np.inf]), NonFiniteValue),
        (np.array([1.5, -0.5]), NegativeProbability),
        (np.array([0.5, 0.25]), NonNormalizedPrediction),
    ], ids=["empty", "2-D", "nan", "inf", "negative", "unnormalized"])
    def test_bad_vector_is_refused_before_the_draw(self, bad, error):
        """Unchecked, an empty vector drew -1 and a NaN or negative entry an arbitrary index."""
        rng, untouched = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(error):
            draw_index(bad, rng)
        assert rng.bit_generator.state == untouched.bit_generator.state


def batches_from(samples, batch_size=1):
    return batch_samples(SamplePool.from_samples(samples), batch_size=batch_size)


def batch_table(pred_dist, out_bin):
    n = len(out_bin)
    return BatchTable(member_ids=np.arange(n), size=np.ones(n, dtype=np.int64),
                      pred_dist=pred_dist, out_bin=out_bin, mean_features=np.zeros((n, 1)))


class TestKernelTables:
    """``select``'s kernel tables take their distance tables' place, with the same bits."""

    def test_density_state_holds_one_table_per_space(self):
        """With every prediction row distinct the pred table is ``n x n``: building its
        kernel beside the distances would hold two of them at once."""
        n, k = 509, 21
        rng = np.random.default_rng(0)
        batches = batch_table(rng.dirichlet(np.ones(k), size=n), rng.integers(k, size=n))
        u_out = np.unique(batches.out_bin).size
        tracemalloc.start()
        try:
            state, distinct = _density_state(batches, 0.1, ("pred", "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distinct[0][1].size == n
        tables = 8 * (n * n + u_out * u_out)
        scratch = 2 * 8 * min(n * n * k, max(_SCRATCH, n * k))  # jsd_pairwise's two arrays
        budget = 1.1 * (tables + scratch)
        assert peak < budget, f"peak {peak} bytes over {budget:.0f}"
        # the state's pred table is the kernel of the distances, bit for bit
        want = kde(distance_matrix(batches, "pred"), 0.1)
        assert state.rho_pred.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("space", ["pred", "out"])
    def test_cross_density_is_kde_of_the_gathered_cross_table(self, space, seed):
        rng = np.random.default_rng(seed)
        k = 4
        palette = np.vstack([rng.dirichlet(np.ones(k), size=5), np.eye(k)[:2]])
        batches = batch_table(palette[rng.integers(len(palette), size=30)],
                              rng.integers(k, size=30))
        reference = batch_table(palette[rng.integers(len(palette), size=25)],
                                rng.integers(k, size=25))
        first, types = distinct_rows(batches, space)
        ref_first, ref_types = distinct_rows(reference, space)
        assert ref_first.size < len(reference)  # repeated reference rows
        active = np.sort(rng.choice(len(batches), size=12, replace=False))
        types = types[active]
        present = np.bincount(types, minlength=first.size) > 0
        cross = cross_distance_matrix(batches.take(first[present]),
                                      reference.take(ref_first), space)
        want = kde(np.take(cross, ref_types, axis=1), 0.1)[(np.cumsum(present) - 1)[types]]
        got = _cross_density(batches, first, types, reference, space, 0.1)
        assert got.tobytes() == want.tobytes()
        # and so each row of kde over the full cross matrix
        full = kde(cross_distance_matrix(batches.take(active), reference, space), 0.1)
        assert got.tobytes() == full.tobytes()


class TestRci:
    def make(self, bins):
        pool = [sample(i, b, np.eye(4)[b]) for i, b in enumerate(bins)]
        return batches_from(pool)

    def test_same_set_scores_zero(self):
        batches = self.make([0, 1, 2])
        assert rci(batches, batches, bandwidth=0.1) == 0.0

    def test_empty_reference_scores_one(self):
        assert rci(self.make([0, 1]), [], bandwidth=0.1) == 1.0

    def test_empty_current_is_an_error(self):
        with pytest.raises(EmptyCurrentSet):
            rci([], self.make([0]), bandwidth=0.1)

    def test_disjoint_sets_score_high(self):
        value = rci(self.make([0, 1]), self.make([2, 3]), bandwidth=0.1)
        assert value >= 0.9

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            bins_a = rng.integers(0, 4, size=rng.integers(1, 8)).tolist()
            bins_b = rng.integers(0, 4, size=rng.integers(1, 8)).tolist()
            value = rci(self.make(bins_a), self.make(bins_b), bandwidth=0.2)
            assert 0.0 <= value <= 1.0

    def test_gains_only_no_cancellation(self):
        # current covers bins {0, 1}; reference covers {0} densely.
        # Lost mass around 0 must not offset the gain around 1.
        current = self.make([0, 1])
        reference = self.make([0, 0, 0])
        assert rci(current, reference, bandwidth=0.1) > 0.0

    def test_retrain_decision_thresholds(self):
        current, reference = self.make([0, 1]), self.make([2, 3])
        fire, value = retrain_decision(current, reference, threshold=0.5, bandwidth=0.1)
        assert fire and value >= 0.9
        hold, same = retrain_decision(current, current, threshold=0.5, bandwidth=0.1)
        assert not hold and same == 0.0


class TestSelect:
    def config(self, **kwargs):
        base = dict(capacity=8, batch_size=1, k_pred=4, k_out=4)
        base.update(kwargs)
        return StrategyConfig(**base)

    def run(self, pool, cfg, seed=0):
        memory = ReplayMemory(capacity=cfg.capacity)
        outcome = select(memory, pool, cfg, None, np.random.default_rng(seed))
        return memory, outcome

    def test_rare_cluster_survives_dense_pruning(self):
        """99 near-identical samples vs 1 distinct: the 1 must survive.

        With temperature well below the density gap the softmax puts
        vanishing mass on the isolated batch, so the dense clump absorbs
        every discard.  (At high temperature the draw flattens toward
        uniform and no such guarantee exists; that regime is covered by
        the capacity check below.)
        """
        for temperature in (0.0, 0.001, 0.01):
            for seed in range(25):
                pool = cluster(0, 99, 0, [(0, 1.0)], 4) + cluster(99, 1, 3, [(3, 1.0)], 4)
                cfg = self.config(capacity=50, temperature=temperature)
                memory, outcome = self.run(pool, cfg, seed=seed)
                assert 99 in outcome.kept_ids
                assert len(outcome.kept_ids) == 50

    def test_high_temperature_still_respects_capacity(self):
        pool = cluster(0, 99, 0, [(0, 1.0)], 4) + cluster(99, 1, 3, [(3, 1.0)], 4)
        cfg = self.config(capacity=50, temperature=1e6)
        _, outcome = self.run(pool, cfg, seed=3)
        assert len(outcome.kept_ids) == 50

    def test_greedy_discard_order_matches_brute_force(self):
        """T = 0, b = 1: each discard must hit the argmax density batch."""
        rng = np.random.default_rng(7)
        pool = [
            sample(i, int(rng.integers(3)), rng.dirichlet(np.ones(3)))
            for i in range(40)
        ]
        cfg = self.config(capacity=10, temperature=0.0, k_pred=3, k_out=3)
        memory, outcome = self.run(pool, cfg)
        assert len(outcome.trace) == 30
        for event in outcome.trace:
            assert event.probability == 1.0

    def test_under_capacity_keeps_everything(self):
        pool = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(6)]
        memory, outcome = self.run(pool, self.config(capacity=8))
        assert outcome.kept_ids.tolist() == list(range(6))
        assert outcome.trace == []

    def test_exact_capacity_keeps_everything(self):
        pool = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(8)]
        _, outcome = self.run(pool, self.config(capacity=8))
        assert len(outcome.kept_ids) == 8

    def test_tightest_capacity_always_reachable(self):
        # batch_size == capacity is the worst legal case: chunk sizes never
        # exceed batch_size, so whole-batch discards can always land at or
        # under capacity without hitting the fail-fast guard.
        pool = [sample(i, 0, [1.0, 0, 0, 0]) for i in range(23)]
        cfg = self.config(capacity=4, batch_size=4)
        for seed in range(10):
            memory, outcome = self.run(pool, cfg, seed=seed)
            assert memory.sample_count <= 4

    def test_trace_records_each_discard(self):
        pool = [sample(i, i % 2, np.eye(4)[i % 2]) for i in range(12)]
        cfg = self.config(capacity=6, temperature=1.0)
        memory, outcome = self.run(pool, cfg)
        assert len(outcome.kept_ids) == 6
        assert [e.step for e in outcome.trace] == list(range(len(outcome.trace)))
        for event in outcome.trace:
            assert 0.0 < event.probability <= 1.0

    def test_memory_state_after_select(self):
        pool = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(20)]
        memory, outcome = self.run(pool, self.config(capacity=10))
        assert memory.sample_count == len(outcome.kept_ids) == 10
        assert set(memory.sorted_samples().arrival_index.tolist()) == set(outcome.kept_ids.tolist())

    def test_first_call_requests_retraining(self):
        pool = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(8)]
        memory, outcome = self.run(pool, self.config())
        assert outcome.retrain
        assert outcome.rci == 1.0
        assert memory.last_train_batches  # snapshot taken

    def test_stable_memory_stops_retraining(self):
        cfg = self.config(capacity=40, threshold=0.1)
        memory = ReplayMemory(capacity=cfg.capacity)
        rng = np.random.default_rng(0)
        first = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(32)]
        out1 = select(memory, first, cfg, None, rng)
        assert out1.retrain
        # feeding the same composition again adds no new coverage
        more = [sample(32 + i, i % 4, np.eye(4)[i % 4]) for i in range(8)]
        out2 = select(memory, more, cfg, None, rng)
        assert out2.rci < 0.1
        assert not out2.retrain

    def test_rci_against_snapshot_not_previous_pool(self):
        # threshold 1.0 fires only on the very first pass (empty reference),
        # freezing that snapshot for the rest of the run
        cfg = self.config(capacity=16, threshold=1.0)
        memory = ReplayMemory(capacity=cfg.capacity)
        rng = np.random.default_rng(0)
        out1 = select(memory, [sample(i, 0, np.eye(4)[0]) for i in range(4)], cfg, None, rng)
        assert out1.retrain and out1.rci == 1.0
        snapshot = memory.last_train_batches

        out2 = select(memory, [sample(4 + i, 1, np.eye(4)[1]) for i in range(4)], cfg, None, rng)
        # half the kept mass (the new bin) is uncovered by the snapshot
        assert out2.rci == pytest.approx(0.5, abs=1e-12)
        assert not out2.retrain
        assert memory.last_train_batches is snapshot

        out3 = select(memory, [sample(8 + i, 2, np.eye(4)[2]) for i in range(4)], cfg, None, rng)
        # two of three bins are new relative to the *original* snapshot; a
        # comparison against the previous pool would report only 1/3
        assert out3.rci == pytest.approx(2 / 3, abs=1e-12)

    def test_predictor_overwrites_incoming_predictions_only(self):
        cfg = self.config(capacity=16)
        memory = ReplayMemory(capacity=cfg.capacity)
        rng = np.random.default_rng(0)
        first = [sample(i, i % 2, np.eye(4)[i % 2]) for i in range(4)]
        select(memory, first, cfg, None, rng)
        before = memory.sorted_samples()
        resident_before = {
            arrival: prediction.copy()
            for arrival, prediction in zip(before.arrival_index.tolist(), before.prediction)
        }
        out = select(memory, [sample(10, 2, np.eye(4)[2])], cfg, UniformPredictor(4), rng)
        after = memory.sorted_samples()
        for arrival, prediction in zip(after.arrival_index.tolist(), after.prediction):
            if arrival == 10:
                np.testing.assert_allclose(prediction, 0.25)  # rewritten
            else:
                np.testing.assert_allclose(prediction, resident_before[arrival])

    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 7),
           st.integers(0, 3))
    def test_non_finite_prediction_without_predictor_is_rejected(self, bad, row, col):
        pool = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(8)]
        prediction = np.eye(4)[row % 4]
        prediction[col] = bad
        pool[row] = sample(row, row % 4, prediction)
        cfg = self.config(capacity=4)
        with pytest.raises(NonFiniteValue):
            select(ReplayMemory(capacity=4), pool, cfg, None, np.random.default_rng(0))

    @given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 40), st.floats(0.0, 1.0),
           st.sampled_from(["jsd", "euclidean"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_outcome_rci_is_rci_of_the_kept_batches(self, k, batch_size, headroom,
                                                    point_mass_share, pred_metric, seed):
        """select's RCI, taken from the discard loop's matrices, is rci()'s value exactly."""
        rng = np.random.default_rng(seed)
        cfg = self.config(capacity=batch_size + headroom, batch_size=batch_size, k_pred=k,
                          k_out=k, temperature=float(rng.choice([0.0, 0.05, 1.0])),
                          threshold=float(rng.uniform(0.0, 1.0)))
        memory = ReplayMemory(capacity=cfg.capacity)
        arrival = 0
        for _ in range(4):
            chunk = []
            for _ in range(int(rng.integers(1, 60))):
                prediction = rng.dirichlet(np.ones(k))
                if rng.random() < point_mass_share:
                    prediction = np.eye(k)[rng.integers(k)]
                chunk.append(sample(arrival, int(rng.integers(k)), prediction,
                                    features=rng.normal(size=2)))
                arrival += 1
            reference_before = memory.last_train_batches
            outcome = select(memory, chunk, cfg, None, rng, pred_metric=pred_metric)
            # Discards take whole batches, so batching the survivors again
            # cuts every output run at the same boundaries: the kept batches.
            kept = batch_samples(memory.sorted_samples(), cfg.batch_size)
            assert outcome.rci == rci(kept, reference_before, cfg.bandwidth, pred_metric)
            assert outcome.retrain == (outcome.rci >= cfg.threshold)

    def test_unknown_pred_metric_fails_before_the_memory_changes(self):
        cfg = self.config(capacity=6)
        pool = [sample(i, i % 4, np.eye(4)[i % 4]) for i in range(10)]
        memory, first = self.run(pool, cfg)
        assert first.retrain
        resident, reference = memory.pool, memory.last_train_batches
        arrivals = [sample(10 + i, i % 4, np.eye(4)[(i + 1) % 4]) for i in range(5)]
        with pytest.raises(ValueError, match="bogus"):
            select(memory, arrivals, cfg, None, np.random.default_rng(1), pred_metric="bogus")
        assert memory.pool is resident and memory.last_train_batches is reference
        np.testing.assert_array_equal(memory.pool.arrival_index, first.kept_ids)

    def test_empty_everything(self):
        cfg = self.config()
        with pytest.raises(EmptyInput):
            select(ReplayMemory(capacity=8), [], cfg, None, np.random.default_rng(0))

    def test_same_seed_same_outcome(self):
        def once():
            pool = [
                sample(i, i % 3, np.random.default_rng(i).dirichlet(np.ones(4)))
                for i in range(30)
            ]
            cfg = self.config(capacity=12, temperature=0.05)
            _, outcome = self.run(pool, cfg, seed=5)
            return outcome

        a, b = once(), once()
        np.testing.assert_array_equal(a.kept_ids, b.kept_ids)
        assert a.trace == b.trace
        assert a.rci == b.rci
