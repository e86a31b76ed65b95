import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmem import (
    BatchTable,
    Sample,
    SamplePool,
    UniformPredictor,
    batch_samples,
    bbdr,
    mixture,
)
from covmem.errors import EmptyInput, NonFiniteValue, NonIncreasingPositions


def sample(i, output_bin, prediction, features=None):
    return Sample(
        features=np.asarray(features if features is not None else [float(i)]),
        output_bin=output_bin,
        prediction=np.asarray(prediction, dtype=float),
        arrival_index=i,
    )


class TestBbdr:
    def test_overwrites_predictions_without_mutating(self):
        pool = SamplePool.from_samples([sample(0, 0, [1.0, 0.0], features=[2.0])])
        replaced = bbdr(pool, UniformPredictor(2))
        np.testing.assert_allclose(replaced.prediction, 0.5)
        np.testing.assert_allclose(pool.prediction, [[1.0, 0.0]])
        np.testing.assert_array_equal(replaced.arrival_index, pool.arrival_index)
        assert replaced is not pool

    def test_empty_is_fine(self):
        assert len(bbdr(SamplePool.from_samples([]), UniformPredictor(2))) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_predictor_output_is_rejected(self, bad):
        class Broken(UniformPredictor):
            def predict_many(self, features):
                out = super().predict_many(features)
                out[-1, 0] = bad
                return out

        pool = SamplePool.from_samples([sample(i, 0, [0.5, 0.5]) for i in range(3)])
        with pytest.raises(NonFiniteValue):
            bbdr(pool, Broken(2))


def members(table):
    """Each batch's member ids, one array per batch."""
    return np.split(table.member_ids, np.cumsum(table.size)[:-1])


def random_pool(rng, n, k=4):
    return SamplePool.from_samples([
        sample(i, int(rng.integers(k)), rng.dirichlet(np.ones(k)), rng.normal(size=3))
        for i in range(n)
    ])


class TestBatchSamples:
    def test_chunks_never_span_output_bins(self):
        pool = SamplePool.from_samples([sample(i, i % 2, [0.5, 0.5]) for i in range(10)])
        batches = batch_samples(pool, batch_size=3)
        # 5 of each bin: chunk sizes 3+2 per bin
        assert batches.size.tolist() == [3, 2, 3, 2]
        assert batches.out_bin.tolist() == [0, 0, 1, 1]

    def test_out_dist_is_the_member_bin(self):
        pool = SamplePool.from_samples([sample(0, 2, [1.0, 0.0, 0.0, 0.0])])
        batches = batch_samples(pool, batch_size=4)
        assert batches.out_bin.tolist() == [2]

    def test_pred_dist_is_the_member_mixture(self):
        pool = SamplePool.from_samples([
            sample(0, 0, [0.8, 0.2]),
            sample(1, 0, [0.4, 0.6]),
        ])
        batches = batch_samples(pool, batch_size=2)
        assert len(batches) == 1
        np.testing.assert_allclose(batches.pred_dist[0], mixture([[0.8, 0.2], [0.4, 0.6]]))
        np.testing.assert_allclose(batches.mean_features[0], [0.5])

    def test_similar_predictions_land_together(self):
        # same output bin, two confidence levels; batches split along them
        confident = [sample(i, 0, [0.95, 0.05]) for i in range(3)]
        unsure = [sample(i + 3, 0, [0.55, 0.45]) for i in range(3)]
        batches = batch_samples(SamplePool.from_samples(unsure + confident), batch_size=3)
        assert len(batches) == 2
        groups = [sorted(ids.tolist()) for ids in members(batches)]
        assert [0, 1, 2] in groups and [3, 4, 5] in groups

    def test_mode_orders_before_confidence(self):
        # output bin equal; mode bins differ -> grouped by mode first
        mode0 = [sample(i, 0, [0.6, 0.4, 0.0]) for i in range(2)]
        mode1 = [sample(i + 2, 0, [0.3, 0.7, 0.0]) for i in range(2)]
        batches = batch_samples(SamplePool.from_samples(mode1 + mode0), batch_size=2)
        groups = [sorted(ids.tolist()) for ids in members(batches)]
        assert [0, 1] in groups and [2, 3] in groups

    def test_arrival_breaks_remaining_ties(self):
        pool = SamplePool.from_samples([sample(i, 0, [0.5, 0.5]) for i in (4, 2, 0, 3, 1)])
        first, second, third = members(batch_samples(pool, batch_size=2))
        assert first.tolist() == [0, 1]
        assert second.tolist() == [2, 3]
        assert third.tolist() == [4]

    def test_every_sample_lands_in_exactly_one_batch(self):
        rng = np.random.default_rng(3)
        pool = [
            sample(i, int(rng.integers(4)), rng.dirichlet(np.ones(4)), rng.normal(size=3))
            for i in range(137)
        ]
        batches = batch_samples(SamplePool.from_samples(pool), batch_size=16)
        seen = batches.member_ids
        assert sorted(seen.tolist()) == list(range(137))
        for ids, size in zip(members(batches), batches.size):
            assert 1 <= size <= 16
            members_by_id = {s.arrival_index: s for s in pool}
            bins = {members_by_id[i].output_bin for i in ids.tolist()}
            assert len(bins) == 1

    @given(st.integers(1, 120), st.sampled_from([2, 3, 21]), st.sampled_from([0, 1, 2]),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_order_is_the_lexsort_of_its_keys(self, n, k, bin_scale, batch_size, seed):
        """Output bin, mode, mode probability, then arrival, as ``np.lexsort`` orders them.

        Predictions come from a few rows and their permutations, so mode
        probabilities repeat across modes and bins; arrivals come
        shuffled.  Bin offsets of ``2**15 // k`` and ``2**15`` put the
        (bin, mode) key at or past ``2**15``, beyond the 16-bit sort.
        """
        rng = np.random.default_rng(seed)
        palette = rng.dirichlet(np.ones(k), size=2)
        rows = palette[rng.integers(2, size=n)]
        predictions = np.take_along_axis(rows, rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1),
                                         axis=1)
        offset = (0, 2**15 // k, 2**15)[bin_scale]
        bins = offset + rng.integers(3, size=n)
        arrival = rng.permutation(n) * 3
        pool = SamplePool.from_samples([sample(int(a), int(b), p)
                                        for a, b, p in zip(arrival, bins, predictions)])
        modes = predictions.argmax(axis=1)
        order = np.lexsort((arrival, predictions[np.arange(n), modes], modes, bins))
        np.testing.assert_array_equal(batch_samples(pool, batch_size).member_ids, arrival[order])

    def test_empty_pool(self):
        with pytest.raises(EmptyInput):
            batch_samples(SamplePool.from_samples([]), batch_size=4)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            batch_samples(SamplePool.from_samples([sample(0, 0, [1.0])]), batch_size=0)


class TestBatchTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_len_counts_batches(self, seed):
        rng = np.random.default_rng(seed)
        pool = random_pool(rng, int(rng.integers(1, 200)))
        batch_size = int(rng.integers(1, 20))
        per_bin = np.bincount(pool.output_bin)
        expected = int(sum(-(-count // batch_size) for count in per_bin))
        table = batch_samples(pool, batch_size)
        assert len(table) == expected
        assert bool(table)

    @pytest.mark.parametrize("seed", range(5))
    def test_take_indexes_every_column(self, seed):
        rng = np.random.default_rng(seed)
        table = batch_samples(random_pool(rng, int(rng.integers(1, 200))), int(rng.integers(1, 20)))
        idx = np.sort(rng.choice(len(table), size=int(rng.integers(0, len(table) + 1)),
                                 replace=False))
        taken = table.take(idx)
        assert len(taken) == idx.size
        for column in ("size", "pred_dist", "out_bin", "mean_features"):
            np.testing.assert_array_equal(getattr(taken, column), getattr(table, column)[idx])
        # with the sizes checked above, this fixes every kept batch's members
        all_members = members(table)
        chosen = [all_members[i] for i in idx]
        expected = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(taken.member_ids, expected)

    @pytest.mark.parametrize("idx, first_bad", [([1, 0], "idx[1] = 0 follows 1"),
                                                ([0, 0], "idx[1] = 0 follows 0"),
                                                ([0, 1, 1], "idx[2] = 1 follows 1")])
    def test_take_refuses_positions_that_do_not_increase(self, idx, first_bad):
        """Members are kept in table order, so a reordered or repeated
        position would hand a batch another batch's members."""
        table = BatchTable(member_ids=np.array([10, 11, 12, 20]), size=np.array([3, 1]),
                           pred_dist=np.array([[1.0, 0.0], [0.0, 1.0]]),
                           out_bin=np.array([0, 1]), mean_features=np.zeros((2, 1)))
        with pytest.raises(NonIncreasingPositions, match=re.escape(first_bad)):
            table.take(np.array(idx))
        np.testing.assert_array_equal(table.take([1]).member_ids, [20])

    @pytest.mark.parametrize("seed", range(5))
    def test_members_share_their_batch_out_bin(self, seed):
        rng = np.random.default_rng(seed)
        pool = random_pool(rng, int(rng.integers(1, 200)))
        table = batch_samples(pool, int(rng.integers(1, 20)))
        member_bins = pool.output_bin[np.searchsorted(pool.arrival_index, table.member_ids)]
        np.testing.assert_array_equal(member_bins, np.repeat(table.out_bin, table.size))
