import numpy as np
import pytest

from covmem import (
    CentroidPredictor,
    HistogramPredictor,
    LikelihoodPredictor,
    OraclePredictor,
    Sample,
    SamplePool,
    UniformPredictor,
    logscore,
    with_losses,
)
from covmem.errors import EmptyTrainingSet, LengthMismatch, PredictorDimensionMismatch

WORST_LOGSCORE = -39.86313713864835  # log2 of the 1e-12 probability floor
# 1 / (1 + e^-9): two centroids 3 apart, query sitting on the first one
CENTROID_CONF_AT_3 = 0.9998766054240137
# (1 + f) / (1 + e^-8 + 2f) with f = 1e-12: two means 4 apart, query on the first
LIKELIHOOD_CONF_AT_4 = 0.9996646498685348


def labeled(features, output_bin, i=0):
    return Sample(
        features=np.asarray(features, dtype=float),
        output_bin=output_bin,
        prediction=np.array([1.0]),
        arrival_index=i,
    )


class TestLogscore:
    def test_certain_hit_scores_zero(self):
        assert logscore([0.0, 1.0], 1) == 0.0

    def test_floor(self):
        assert logscore([1.0, 0.0], 1) == pytest.approx(WORST_LOGSCORE, abs=1e-12)

    def test_half(self):
        assert logscore([0.5, 0.5], 0) == pytest.approx(-1.0)


class TestUniform:
    def test_always_uniform(self):
        p = UniformPredictor(4)
        np.testing.assert_allclose(p.predict(np.zeros(3)), 0.25)
        assert p.fit(SamplePool.empty()) is p
        np.testing.assert_allclose(p.predict_many(np.zeros((5, 3))), 0.25)


class TestHistogram:
    def test_add_one_smoothing(self):
        train = [labeled([0.0], 0, i) for i in range(3)] + [labeled([0.0], 1, 3)]
        p = HistogramPredictor(3).fit(SamplePool.from_samples(train))
        # counts [3, 1, 0] over 4 samples -> (c + 1) / (4 + 3)
        np.testing.assert_allclose(p.predict(np.zeros(1)), [4 / 7, 2 / 7, 1 / 7])

    def test_unfit_predicts_uniform(self):
        np.testing.assert_allclose(HistogramPredictor(2).predict(np.zeros(1)), 0.5)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            HistogramPredictor(2).fit(SamplePool.empty())

    def test_fit_returns_new_object(self):
        base = HistogramPredictor(2)
        fitted = base.fit(SamplePool.from_samples([labeled([0.0], 0)]))
        assert fitted is not base
        np.testing.assert_allclose(base.predict(np.zeros(1)), 0.5)


class TestCentroid:
    def two_class(self):
        train = SamplePool.from_samples([labeled([0.0, 0.0], 0, 0), labeled([3.0, 0.0], 1, 1)])
        return CentroidPredictor(2).fit(train)

    def test_confidence_at_known_separation(self):
        p = self.two_class()
        pred = p.predict(np.array([0.0, 0.0]))
        assert pred[0] == pytest.approx(CENTROID_CONF_AT_3, abs=1e-12)
        assert pred.sum() == pytest.approx(1.0)

    def test_midpoint_is_uncertain(self):
        pred = self.two_class().predict(np.array([1.5, 0.0]))
        np.testing.assert_allclose(pred, [0.5, 0.5])

    def test_unseen_bins_get_zero_mass(self):
        train = SamplePool.from_samples([labeled([0.0], 0, 0), labeled([2.0], 2, 1)])
        pred = CentroidPredictor(4).fit(train).predict(np.array([0.0]))
        assert pred[1] == 0.0 and pred[3] == 0.0
        assert pred.sum() == pytest.approx(1.0)

    def test_predict_many_matches_predict(self):
        rng = np.random.default_rng(1)
        train = [labeled(rng.normal(size=3), int(rng.integers(3)), i) for i in range(30)]
        p = CentroidPredictor(3).fit(SamplePool.from_samples(train))
        queries = rng.normal(size=(10, 3))
        stacked = p.predict_many(queries)
        for q, row in zip(queries, stacked):
            np.testing.assert_allclose(row, p.predict(q), atol=1e-12)

    def test_unfit_predicts_uniform(self):
        np.testing.assert_allclose(CentroidPredictor(4).predict(np.zeros(2)), 0.25)

    def test_centroids_equal_a_per_sample_running_mean_bit_for_bit(self):
        rng = np.random.default_rng(5)
        train = [labeled(rng.normal(size=16) * 10.0, int(rng.integers(5)), i)
                 for i in range(400)]
        sums, counts = np.zeros((6, 16)), np.zeros(6)
        for s in train:
            sums[s.output_bin] += s.features
            counts[s.output_bin] += 1
        p = CentroidPredictor(6).fit(SamplePool.from_samples(train))
        np.testing.assert_array_equal(p._seen, counts > 0)
        np.testing.assert_array_equal(p._centroids[:5], sums[:5] / counts[:5, None])

    def test_dimension_mismatch(self):
        p = self.two_class()
        with pytest.raises(PredictorDimensionMismatch):
            p.predict(np.zeros(3))

    def test_mixed_dims_in_training_set(self):
        # ragged rows are rejected where they are stacked into a pool
        with pytest.raises(LengthMismatch):
            CentroidPredictor(2).fit(
                SamplePool.from_samples([labeled([0.0], 0, 0), labeled([0.0, 1.0], 1, 1)])
            )


class TestLikelihood:
    def two_class(self):
        train = SamplePool.from_samples([labeled([0.0, 0.0], 0, 0), labeled([4.0, 0.0], 1, 1)])
        return LikelihoodPredictor(2).fit(train)

    def test_confidence_at_known_separation(self):
        pred = self.two_class().predict(np.array([0.0, 0.0]))
        assert pred[0] == pytest.approx(LIKELIHOOD_CONF_AT_4, abs=1e-12)
        assert pred.sum() == pytest.approx(1.0)

    def test_midpoint_is_uncertain(self):
        pred = self.two_class().predict(np.array([2.0, 0.0]))
        np.testing.assert_allclose(pred, [0.5, 0.5])

    def test_far_queries_approach_uniform(self):
        pred = self.two_class().predict(np.array([500.0, 500.0]))
        np.testing.assert_allclose(pred, [0.5, 0.5], atol=1e-12)

    def test_far_queries_spread_over_unseen_bins_too(self):
        train = SamplePool.from_samples([labeled([0.0], 0, 0), labeled([4.0], 1, 1)])
        pred = LikelihoodPredictor(3).fit(train).predict(np.array([900.0]))
        np.testing.assert_allclose(pred, 1.0 / 3.0, atol=1e-12)

    def test_near_queries_starve_unseen_bins(self):
        train = SamplePool.from_samples([labeled([0.0], 0, 0), labeled([4.0], 1, 1)])
        pred = LikelihoodPredictor(3).fit(train).predict(np.array([0.0]))
        assert pred[0] > 0.99
        assert pred[2] < 1e-11

    def test_background_floor_sets_the_collapse_distance(self):
        train = SamplePool.from_samples([labeled([0.0], 0, 0), labeled([4.0], 1, 1)])
        p = LikelihoodPredictor(2).fit(train)
        # exp(-d^2/2) crosses the 1e-12 floor at d ~ 7.4 from the nearest mean
        assert p.predict(np.array([-6.0])).max() > 0.999
        assert p.predict(np.array([-12.0])).max() == pytest.approx(0.5, abs=1e-6)

    def test_predict_many_matches_predict(self):
        rng = np.random.default_rng(3)
        train = [labeled(rng.normal(size=3), int(rng.integers(3)), i) for i in range(30)]
        p = LikelihoodPredictor(3).fit(SamplePool.from_samples(train))
        queries = np.concatenate([rng.normal(size=(8, 3)), rng.uniform(40, 90, (4, 3))])
        stacked = p.predict_many(queries)
        for q, row in zip(queries, stacked):
            np.testing.assert_allclose(row, p.predict(q), atol=1e-15)

    def test_rows_are_distributions_even_when_likelihoods_underflow(self):
        rng = np.random.default_rng(4)
        train = [labeled(rng.normal(size=2), int(rng.integers(2)), i) for i in range(20)]
        p = LikelihoodPredictor(2).fit(SamplePool.from_samples(train))
        preds = p.predict_many(rng.uniform(-1e6, 1e6, size=(50, 2)))
        assert np.all(preds >= 0.0)
        np.testing.assert_allclose(preds.sum(axis=1), 1.0, atol=1e-12)

    def test_unfit_predicts_uniform(self):
        np.testing.assert_allclose(LikelihoodPredictor(4).predict(np.zeros(2)), 0.25)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            LikelihoodPredictor(2).fit(SamplePool.empty())

    def test_dimension_mismatch(self):
        with pytest.raises(PredictorDimensionMismatch):
            self.two_class().predict(np.zeros(3))


class TestOracle:
    def test_point_mass_on_nearest_mean(self):
        means = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        p = OraclePredictor(means)
        np.testing.assert_array_equal(p.predict(np.array([0.3, 0.1])), [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(p.predict(np.array([3.0, 0.0])), [0.0, 1.0, 0.0])

    def test_fit_is_a_no_op(self):
        p = OraclePredictor(np.zeros((1, 2)))
        assert p.fit(SamplePool.from_samples([labeled([9.0, 9.0], 0)])) is p

    def test_extra_bins_allowed(self):
        p = OraclePredictor(np.zeros((1, 2)), n_bins=3)
        np.testing.assert_array_equal(p.predict(np.zeros(2)), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            OraclePredictor(np.zeros((3, 2)), n_bins=2)

    def test_rejects_flat_means(self):
        with pytest.raises(ValueError):
            OraclePredictor(np.zeros(2))


class TestWithLosses:
    def test_scores_match_loss_method(self):
        rng = np.random.default_rng(2)
        train = [labeled(rng.normal(size=2), int(rng.integers(2)), i) for i in range(20)]
        pool = SamplePool.from_samples(train)
        p = CentroidPredictor(2).fit(pool)
        scored = with_losses(pool, p)
        for s, loss in zip(train, scored.loss):
            assert loss == pytest.approx(-logscore(p.predict(s.features), s.output_bin),
                                         abs=1e-12)
        assert np.isnan(pool.loss).all()  # original untouched

    def test_empty_input(self):
        assert len(with_losses(SamplePool.from_samples([]), UniformPredictor(2))) == 0

    def test_certain_miss_is_floored(self):
        means = np.array([[0.0], [5.0]])
        sample = labeled([0.0], 1)  # oracle will put all mass on bin 0
        scored = with_losses(SamplePool.from_samples([sample]), OraclePredictor(means))
        assert scored.loss[0] == pytest.approx(-WORST_LOGSCORE)
