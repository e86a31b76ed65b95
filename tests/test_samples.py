import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from covmem import (
    ReplayMemory,
    Sample,
    SamplePool,
    StrategyConfig,
    mixture,
    read_samples,
    validate_distribution,
    validate_sample,
    write_samples,
)
from covmem.samples import PoolRows
from covmem.errors import (
    BinOutOfRange,
    EmptyInput,
    LengthMismatch,
    NegativeProbability,
    NonFiniteValue,
    NonNormalizedPrediction,
)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def make_sample(i=0, prediction=(0.5, 0.25, 0.25), output_bin=1, **kwargs):
    return Sample(
        features=np.array([1.0, 2.0]),
        output_bin=output_bin,
        prediction=np.array(prediction),
        arrival_index=i,
        **kwargs,
    )


class TestValidation:
    def test_valid_sample_passes_through(self):
        s = make_sample()
        assert validate_sample(s, 3, 3) is s

    def test_non_normalized_prediction(self):
        with pytest.raises(NonNormalizedPrediction):
            validate_sample(make_sample(prediction=(0.5, 0.25, 0.30)), 3, 3)

    def test_negative_probability(self):
        with pytest.raises(NegativeProbability):
            validate_sample(make_sample(prediction=(1.2, -0.1, -0.1)), 3, 3)

    def test_output_bin_out_of_range(self):
        with pytest.raises(BinOutOfRange):
            validate_sample(make_sample(output_bin=3), 3, 3)
        with pytest.raises(BinOutOfRange):
            validate_sample(make_sample(output_bin=-1), 3, 3)

    def test_wrong_length(self):
        with pytest.raises(LengthMismatch):
            validate_sample(make_sample(), 4, 3)

    def test_tolerance_is_tight_but_not_exact(self):
        # off by less than 1e-9 is fine, more is not
        validate_distribution(np.array([0.5, 0.5 + 4e-10]))
        with pytest.raises(NonNormalizedPrediction):
            validate_distribution(np.array([0.5, 0.5 + 1e-8]))


    @given(st.lists(st.floats(0.0, 1.0), max_size=5), NON_FINITE, st.integers(0, 5))
    @example([0.5, 0.5], math.nan, 0)
    @example([math.nan], math.nan, 0)
    def test_non_finite_entries_are_rejected(self, finite, bad, position):
        probs = list(finite)
        probs.insert(min(position, len(probs)), bad)
        with pytest.raises(NonFiniteValue):
            validate_distribution(np.array(probs))


class TestMixture:
    def test_elementwise_mean(self):
        got = mixture([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
        np.testing.assert_allclose(got, [1.75 / 3, 1.25 / 3])

    def test_single_distribution_is_identity(self):
        np.testing.assert_allclose(mixture([[0.2, 0.8]]), [0.2, 0.8])

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            mixture([])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mixture([[0.5, 0.5], [1.0]])

    @given(st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        min_size=1, max_size=20,
    ))
    def test_mixture_of_distributions_is_a_distribution(self, rows):
        dists = [np.array(r) / np.sum(r) for r in rows]
        validate_distribution(mixture(dists), 4)


class TestReplayMemory:
    def test_counts_and_replacement(self):
        mem = ReplayMemory(capacity=10)
        samples = [make_sample(i, output_bin=i % 3) for i in range(4)]
        mem.replace_contents(SamplePool.from_samples(samples))
        assert mem.sample_count == 4
        assert mem.sorted_samples().arrival_index.tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(mem.class_counts(3, by="output_bin"), [2, 1, 1])

    @pytest.mark.parametrize("by", ["workloads", "output", ""])
    def test_class_counts_rejects_an_unknown_column(self, by):
        mem = ReplayMemory(capacity=10)
        mem.pool = SamplePool.from_samples([make_sample(0, workload=1)])
        with pytest.raises(ValueError, match="workload"):
            mem.class_counts(3, by=by)

    def test_noise_fraction(self):
        mem = ReplayMemory(capacity=10)
        mem.pool = SamplePool.from_samples([make_sample(0), make_sample(1, noise=True)])
        assert mem.noise_fraction() == 0.5
        assert ReplayMemory(capacity=3).noise_fraction() == 0.0

    def test_sorted_samples_is_the_pool(self):
        mem = ReplayMemory(capacity=10)
        mem.replace_contents(SamplePool.empty())
        assert mem.sorted_samples() is mem.pool


@st.composite
def sample_lists(draw):
    """Rows with every field drawn, in strictly increasing arrival order."""
    n = draw(st.integers(0, 10))
    dim, bins = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6)
    arrivals = sorted(draw(st.sets(st.integers(0, 10**9), min_size=n, max_size=n)))
    return [
        Sample(
            features=np.array(draw(st.lists(finite, min_size=dim, max_size=dim))),
            output_bin=draw(st.integers(0, 30)),
            prediction=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=bins, max_size=bins))),
            arrival_index=arrival,
            raw_output=draw(st.floats(allow_infinity=False)),
            loss=draw(st.none() | st.floats(0.0, 50.0)),
            stalled=draw(st.booleans()),
            workload=draw(st.integers(-1, 5)),
            noise=draw(st.booleans()),
        )
        for arrival in arrivals
    ]


class TestSamplePool:
    @given(sample_lists())
    def test_rows_round_trip_every_field(self, samples):
        back = SamplePool.from_samples(samples).rows()
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            np.testing.assert_array_equal(b.features, a.features)
            np.testing.assert_array_equal(b.prediction, a.prediction)
            assert (b.output_bin, b.arrival_index, b.loss, b.stalled, b.workload, b.noise) == (
                a.output_bin, a.arrival_index, a.loss, a.stalled, a.workload, a.noise)
            assert b.raw_output == a.raw_output or (math.isnan(a.raw_output)
                                                    and math.isnan(b.raw_output))
            assert type(b.output_bin) is int and type(b.stalled) is bool

    @given(sample_lists(), st.data())
    def test_take_and_concat_keep_arrival_order(self, samples, data):
        pool = SamplePool.from_samples(samples)
        ids = [s.arrival_index for s in samples]
        picked = sorted(data.draw(st.sets(st.integers(0, max(len(samples) - 1, 0)),
                                          max_size=len(samples))))
        taken = pool.take(np.array(picked, dtype=np.int64))
        assert taken.arrival_index.tolist() == [ids[i] for i in picked]
        assert taken.sorted_by_arrival() is taken

        cut = data.draw(st.integers(0, len(samples)))
        joined = SamplePool.concat([SamplePool.from_samples(samples[:cut]),
                                    SamplePool.from_samples(samples[cut:])])
        assert joined.arrival_index.tolist() == ids
        assert [s.arrival_index for s in joined.rows()] == ids
        reversed_pool = SamplePool.from_samples(samples[::-1]).sorted_by_arrival()
        assert reversed_pool.arrival_index.tolist() == ids

    @given(sample_lists())
    def test_rows_carry_their_pool(self, samples):
        pool = SamplePool.from_samples(samples)
        rows = pool.rows()
        assert isinstance(rows, PoolRows) and isinstance(rows, tuple)
        assert SamplePool.from_samples(rows) is pool
        # slices and lists are plain rows again, stacked as any other
        assert type(rows[:]) is tuple and SamplePool.from_samples(rows[:]) is not pool
        restacked = SamplePool.from_samples(list(rows))
        assert restacked is not pool
        for f in fields(SamplePool):
            np.testing.assert_array_equal(getattr(restacked, f.name), getattr(pool, f.name))

    def test_columns_must_share_a_length(self):
        pool = SamplePool.from_samples([make_sample(0), make_sample(1)])
        with pytest.raises(LengthMismatch):
            pool.with_columns(loss=np.zeros(3))

    def test_ragged_rows_are_rejected(self):
        short_features = Sample(features=np.array([1.0]), output_bin=0,
                                prediction=np.array([1.0, 0.0, 0.0]), arrival_index=1)
        with pytest.raises(LengthMismatch, match="features"):
            SamplePool.from_samples([make_sample(0), short_features])
        with pytest.raises(LengthMismatch, match="prediction"):
            SamplePool.from_samples([make_sample(0), make_sample(1, prediction=(0.5, 0.5))])


class TestStrategyConfig:
    def test_defaults(self):
        cfg = StrategyConfig(capacity=100, batch_size=10)
        assert cfg.bandwidth == 0.1
        assert cfg.temperature == 0.01
        assert cfg.threshold == 0.1

    @pytest.mark.parametrize("kwargs", [
        dict(capacity=0, batch_size=1),
        dict(capacity=10, batch_size=0),
        dict(capacity=10, batch_size=11),
        dict(capacity=10, batch_size=5, bandwidth=0.0),
        dict(capacity=10, batch_size=5, temperature=-0.1),
        dict(capacity=10, batch_size=5, threshold=1.5),
        dict(capacity=10, batch_size=5, k_pred=0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StrategyConfig(**kwargs)


class TestRecords:
    def test_round_trip_preserves_fields(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [
            Sample(
                features=rng.normal(size=5),
                output_bin=int(rng.integers(4)),
                prediction=rng.dirichlet(np.ones(4)),
                arrival_index=i,
                raw_output=float(rng.uniform(0, 10)),
                loss=float(rng.uniform(0, 5)) if i % 2 == 0 else None,
                stalled=bool(i % 3 == 0),
                workload=int(i % 2),
                noise=bool(i == 5),
            )
            for i in range(8)
        ]
        path = tmp_path / "records.ndjson"
        write_samples(path, samples)
        back = read_samples(path, k_pred=4, k_out=4)
        assert len(back) == len(samples)
        for a, b in zip(samples, back):
            np.testing.assert_allclose(a.features, b.features)
            np.testing.assert_allclose(a.prediction, b.prediction)
            assert (a.output_bin, a.arrival_index, a.stalled) == (b.output_bin, b.arrival_index, b.stalled)
            assert (a.workload, a.noise) == (b.workload, b.noise)
            assert a.raw_output == b.raw_output
            if a.loss is None:
                assert b.loss is None
            else:
                assert a.loss == pytest.approx(b.loss)

    def test_unknown_fields_are_ignored(self, tmp_path):
        path = tmp_path / "records.ndjson"
        path.write_text(
            '{"features": [0.0], "output_bin": 0, "raw_output": 0.0, '
            '"prediction": [1.0], "stalled": 0, "mystery": 42}\n'
        )
        (sample,) = read_samples(path)
        assert sample.output_bin == 0

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "records.ndjson"
        path.write_text('{"features": [0.0], "output_bin": 0}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_samples(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_prediction_rejected_without_bin_counts(self, tmp_path, bad):
        path = tmp_path / "records.ndjson"
        path.write_text(
            '{"features": [0.0], "output_bin": 0, "raw_output": 0.0, '
            f'"prediction": [{bad}, 1.0], "stalled": 0}}\n'
        )
        with pytest.raises(NonFiniteValue, match="line 1"):
            read_samples(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_features_rejected(self, tmp_path, bad):
        path = tmp_path / "records.ndjson"
        path.write_text(
            '{"features": [0.0], "output_bin": 0, "raw_output": 0.0, '
            '"prediction": [1.0], "stalled": 0}\n'
            f'{{"features": [{bad}, 1.0], "output_bin": 0, "raw_output": 0.0, '
            '"prediction": [1.0], "stalled": 0}\n'
        )
        with pytest.raises(NonFiniteValue, match="line 2"):
            read_samples(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "records.ndjson"
        path.write_text(
            '\n{"features": [0.0], "output_bin": 0, "raw_output": 0.0, '
            '"prediction": [1.0], "stalled": 1}\n\n'
        )
        (sample,) = read_samples(path)
        assert sample.stalled is True
        assert sample.arrival_index == 0
