import numpy as np
import pytest

from covmem import (
    Sample,
    SamplePool,
    UniformPredictor,
    batch_samples,
    bbdr,
    mixture,
    mode_and_confidence,
)
from covmem.errors import EmptyInput, NonFiniteValue


def sample(i, output_bin, prediction, features=None):
    return Sample(
        features=np.asarray(features if features is not None else [float(i)]),
        output_bin=output_bin,
        prediction=np.asarray(prediction, dtype=float),
        arrival_index=i,
    )


class TestModeAndConfidence:
    def test_plain(self):
        assert mode_and_confidence([0.2, 0.7, 0.1]) == (1, pytest.approx(0.7))

    def test_tie_goes_to_lowest_bin(self):
        mode, conf = mode_and_confidence([0.4, 0.4, 0.2])
        assert mode == 0 and conf == pytest.approx(0.4)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mode_and_confidence([])


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


class TestBatchSamples:
    def test_chunks_never_span_output_bins(self):
        pool = SamplePool.from_samples([sample(i, i % 2, [0.5, 0.5]) for i in range(10)])
        batches = batch_samples(pool, batch_size=3, k_out=2)
        # 5 of each bin: chunk sizes 3+2 per bin
        assert [b.size for b in batches] == [3, 2, 3, 2]
        for b in batches:
            assert b.out_dist.max() == 1.0  # point mass by construction

    def test_out_dist_is_the_member_bin(self):
        pool = SamplePool.from_samples([sample(0, 2, [1.0, 0.0, 0.0, 0.0])])
        (batch,) = batch_samples(pool, batch_size=4, k_out=4)
        np.testing.assert_array_equal(batch.out_dist, [0.0, 0.0, 1.0, 0.0])

    def test_pred_dist_is_the_member_mixture(self):
        pool = SamplePool.from_samples([
            sample(0, 0, [0.8, 0.2]),
            sample(1, 0, [0.4, 0.6]),
        ])
        (batch,) = batch_samples(pool, batch_size=2, k_out=2)
        np.testing.assert_allclose(batch.pred_dist, mixture([[0.8, 0.2], [0.4, 0.6]]))
        np.testing.assert_allclose(batch.mean_features, [0.5])

    def test_similar_predictions_land_together(self):
        # same output bin, two confidence levels; batches split along them
        confident = [sample(i, 0, [0.95, 0.05]) for i in range(3)]
        unsure = [sample(i + 3, 0, [0.55, 0.45]) for i in range(3)]
        batches = batch_samples(SamplePool.from_samples(unsure + confident), batch_size=3, k_out=2)
        assert len(batches) == 2
        groups = [sorted(b.sample_ids.tolist()) for b in batches]
        assert [0, 1, 2] in groups and [3, 4, 5] in groups

    def test_mode_orders_before_confidence(self):
        # output bin equal; mode bins differ -> grouped by mode first
        mode0 = [sample(i, 0, [0.6, 0.4, 0.0]) for i in range(2)]
        mode1 = [sample(i + 2, 0, [0.3, 0.7, 0.0]) for i in range(2)]
        batches = batch_samples(SamplePool.from_samples(mode1 + mode0), batch_size=2, k_out=3)
        groups = [sorted(b.sample_ids.tolist()) for b in batches]
        assert [0, 1] in groups and [2, 3] in groups

    def test_arrival_breaks_remaining_ties(self):
        pool = SamplePool.from_samples([sample(i, 0, [0.5, 0.5]) for i in (4, 2, 0, 3, 1)])
        batches = batch_samples(pool, batch_size=2, k_out=2)
        assert batches[0].sample_ids.tolist() == [0, 1]
        assert batches[1].sample_ids.tolist() == [2, 3]
        assert batches[2].sample_ids.tolist() == [4]

    def test_every_sample_lands_in_exactly_one_batch(self):
        rng = np.random.default_rng(3)
        pool = [
            sample(i, int(rng.integers(4)), rng.dirichlet(np.ones(4)), rng.normal(size=3))
            for i in range(137)
        ]
        batches = batch_samples(SamplePool.from_samples(pool), batch_size=16, k_out=4)
        seen = np.concatenate([b.sample_ids for b in batches])
        assert sorted(seen.tolist()) == list(range(137))
        for b in batches:
            assert 1 <= b.size <= 16
            members = {s.arrival_index: s for s in pool}
            bins = {members[i].output_bin for i in b.sample_ids.tolist()}
            assert len(bins) == 1

    def test_empty_pool(self):
        with pytest.raises(EmptyInput):
            batch_samples(SamplePool.from_samples([]), batch_size=4, k_out=2)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            batch_samples(SamplePool.from_samples([sample(0, 0, [1.0])]), batch_size=0, k_out=1)
