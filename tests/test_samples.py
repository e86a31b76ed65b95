import itertools
import json
import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from covmem import (
    ReplayMemory,
    Sample,
    SamplePool,
    StrategyConfig,
    UniformPredictor,
    mixture,
    read_samples,
    select,
    validate_distribution,
    write_samples,
)
from covmem import samples as samples_module
from covmem.errors import (
    BadFraction,
    BatchExceedsCapacity,
    BinOutOfRange,
    EmptyInput,
    LengthMismatch,
    NegativeProbability,
    NegativeTemperature,
    NonFiniteValue,
    NonNormalizedPrediction,
    NonPositiveBandwidth,
    NonPositiveCount,
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


def read_back(tmp_path, *samples, k_pred=3, k_out=3):
    """Write ``samples`` as a record file and read it back with the given bin counts."""
    path = tmp_path / "records.ndjson"
    write_samples(path, list(samples))
    return read_samples(path, k_pred=k_pred, k_out=k_out)


class TestValidation:
    def test_valid_sample_passes_through(self, tmp_path):
        s = make_sample()
        (back,) = tuple(read_back(tmp_path, s))
        np.testing.assert_array_equal(back.features, s.features)
        np.testing.assert_array_equal(back.prediction, s.prediction)
        assert back.output_bin == s.output_bin

    def test_non_normalized_prediction(self, tmp_path):
        with pytest.raises(NonNormalizedPrediction, match="line 1"):
            read_back(tmp_path, make_sample(prediction=(0.5, 0.25, 0.30)))

    def test_negative_probability(self, tmp_path):
        with pytest.raises(NegativeProbability, match="line 1"):
            read_back(tmp_path, make_sample(prediction=(1.2, -0.1, -0.1)))

    def test_output_bin_out_of_range(self, tmp_path):
        with pytest.raises(BinOutOfRange, match="line 1"):
            read_back(tmp_path, make_sample(output_bin=3))
        with pytest.raises(BinOutOfRange, match="line 1"):
            read_back(tmp_path, make_sample(output_bin=-1))

    def test_wrong_length(self, tmp_path):
        with pytest.raises(LengthMismatch, match="line 1"):
            read_back(tmp_path, make_sample(), k_pred=4)

    def test_a_required_bin_count_is_enforced(self):
        with pytest.raises(LengthMismatch, match="expected 3 bins, got 2"):
            validate_distribution([0.5, 0.5], 3)

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
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_a_capacity_below_one(self, capacity):
        with pytest.raises(NonPositiveCount, match="capacity"):
            ReplayMemory(capacity=capacity)

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


class TestSampleRow:
    """The row contract: immutable fields, identity equality, keyword defaults."""

    @pytest.mark.parametrize("name", [
        "features", "output_bin", "prediction", "arrival_index", "raw_output",
        "loss", "stalled", "workload", "noise",
    ])
    def test_fields_cannot_be_assigned(self, name):
        s = make_sample()
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))

    def test_equal_fields_are_distinct_rows(self):
        a, b = make_sample(), make_sample()
        assert a != b and not a == b
        assert a == a
        held = {a: "a", b: "b"}
        assert held[a] == "a" and held[b] == "b"

    def test_keyword_defaults(self):
        s = make_sample()
        assert math.isnan(s.raw_output)
        assert (s.loss, s.stalled, s.workload, s.noise) == (None, False, -1, False)

    def test_pool_rows_are_samples(self):
        kw = [dict(raw_output=0.5, loss=0.25, stalled=True, workload=2, noise=True),
              dict(raw_output=1.5)]
        want = [make_sample(i, **k) for i, k in enumerate(kw)]
        got = tuple(SamplePool.from_samples(want))
        for a, b in zip(want, got):
            assert type(b) is Sample
            np.testing.assert_array_equal(b.features, a.features)
            np.testing.assert_array_equal(b.prediction, a.prediction)
            assert (b.output_bin, b.arrival_index, b.raw_output, b.loss, b.stalled,
                    b.workload, b.noise) == (a.output_bin, a.arrival_index, a.raw_output,
                                             a.loss, a.stalled, a.workload, a.noise)


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
        back = tuple(SamplePool.from_samples(samples))
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
    def test_take_list_equals_take_array(self, samples, data):
        """A list index is taken as integer positions, column for column."""
        pool = SamplePool.from_samples(samples)
        picked = data.draw(st.lists(st.integers(0, max(len(samples) - 1, 0)),
                                    max_size=2 * len(samples) if samples else 0))
        by_list, by_array = pool.take(picked), pool.take(np.array(picked, dtype=np.intp))
        for f in fields(SamplePool):
            got, want = getattr(by_list, f.name), getattr(by_array, f.name)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

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
        assert [s.arrival_index for s in joined] == ids
        reversed_pool = SamplePool.from_samples(samples[::-1]).sorted_by_arrival()
        assert reversed_pool.arrival_index.tolist() == ids

    @given(sample_lists())
    def test_a_pool_builds_its_rows_once_on_first_iteration(self, samples):
        """Only iterating a pool builds rows, and a second iteration yields the same ones."""
        pool = SamplePool.from_samples(samples)
        with mock.patch.object(samples_module, "_build_rows", side_effect=AssertionError):
            assert len(pool) == len(samples) and bool(pool) == bool(samples)
            assert SamplePool.from_samples(pool) is pool
            if samples:
                k_pred = pool.prediction.shape[1]
                cfg = StrategyConfig(capacity=max(1, len(samples) // 2), batch_size=1,
                                     k_pred=k_pred, k_out=31)
                memory = ReplayMemory(capacity=cfg.capacity)
                select(memory, pool, cfg, UniformPredictor(k_pred), np.random.default_rng(0))
                assert len(memory.pool) <= cfg.capacity
        first, again = list(pool), list(pool)
        assert len(first) == len(samples)
        assert all(a is b for a, b in zip(first, again))
        # a list of the rows is plain rows again, stacked as any other
        restacked = SamplePool.from_samples(first)
        assert restacked is not pool
        for f in fields(SamplePool):
            np.testing.assert_array_equal(getattr(restacked, f.name), getattr(pool, f.name))

    def test_a_repeated_prediction_row_is_one_read_only_object(self):
        """A stride-0 prediction column gives every row the same view, and
        the rows still stack back into the pool's columns."""
        stacked = SamplePool.from_samples([make_sample(i, loss=0.5 if i % 2 else None)
                                           for i in range(4)])
        pool = stacked.with_columns(
            prediction=np.broadcast_to(stacked.prediction[0], stacked.prediction.shape))
        rows = tuple(pool)
        shared = rows[0].prediction
        assert all(r.prediction is shared for r in rows)
        assert not shared.flags.writeable
        assert shared.dtype == pool.prediction.dtype
        np.testing.assert_array_equal(shared, pool.prediction[0])
        restacked = SamplePool.from_samples(list(rows))
        for f in fields(SamplePool):
            got, want = getattr(restacked, f.name), getattr(pool, f.name)
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f"), f.name

    @given(sample_lists())
    def test_distinct_prediction_rows_keep_one_view_each(self, samples):
        pool = SamplePool.from_samples(samples)
        rows = tuple(pool)
        assert len({id(r.prediction) for r in rows}) == len(rows)
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(r.prediction, pool.prediction[i])

    def test_read_rows_keep_one_view_each_even_when_equal(self, tmp_path):
        """The choice follows the column's strides, not its values."""
        pool = read_back(tmp_path, *(make_sample(i) for i in range(3)))
        rows = tuple(pool)
        assert rows[0].prediction is not rows[1].prediction
        assert rows[1].prediction is not rows[2].prediction
        for i, r in enumerate(rows):
            assert r.prediction.flags.writeable == pool.prediction.flags.writeable
            np.testing.assert_array_equal(r.prediction, pool.prediction[i])

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

    @pytest.mark.parametrize("kwargs, error, field", [
        (dict(capacity=0, batch_size=1), NonPositiveCount, "capacity"),
        (dict(capacity=-3, batch_size=1), NonPositiveCount, "capacity"),
        (dict(capacity=10, batch_size=0), NonPositiveCount, "batch_size"),
        (dict(capacity=10, batch_size=11), BatchExceedsCapacity, "batch_size"),
        (dict(capacity=10, batch_size=5, k_pred=0), NonPositiveCount, "k_pred"),
        (dict(capacity=10, batch_size=5, k_out=-1), NonPositiveCount, "k_out"),
    ])
    def test_rejects_bad_counts_with_typed_errors(self, kwargs, error, field):
        assert issubclass(error, ValueError)
        with pytest.raises(error, match=field):
            StrategyConfig(**kwargs)

    @pytest.mark.parametrize("field, value, error", [
        ("bandwidth", math.nan, NonPositiveBandwidth),
        ("bandwidth", 0.0, NonPositiveBandwidth),
        ("bandwidth", -0.1, NonPositiveBandwidth),
        ("bandwidth", math.inf, NonPositiveBandwidth),
        ("temperature", math.nan, NegativeTemperature),
        ("temperature", -0.1, NegativeTemperature),
        ("threshold", math.nan, BadFraction),
        ("threshold", -0.1, BadFraction),
        ("threshold", 1.5, BadFraction),
    ])
    def test_rejects_nan_and_out_of_range_knobs_with_typed_errors(self, field, value, error):
        """NaN fails like an out-of-range value, and every error is also a ValueError."""
        assert issubclass(error, ValueError)
        with pytest.raises(error, match=field):
            StrategyConfig(capacity=10, batch_size=5, **{field: value})


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
        assert isinstance(back, SamplePool) and len(back) == len(samples)
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
        (sample,) = tuple(read_samples(path))
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
        (sample,) = tuple(read_samples(path))
        assert sample.stalled is True
        assert sample.arrival_index == 0

    def test_a_pool_and_its_rows_write_the_same_bytes(self, tmp_path):
        """Integer-valued fields are written as the row writer wrote them, as floats."""
        whole = Sample(features=np.array([1, -2]), output_bin=np.int64(2),
                       prediction=np.array([0, 1, 0]), arrival_index=0, raw_output=3, loss=2,
                       stalled=True, workload=np.int64(1), noise=True)
        half = Sample(features=np.array([0.5, 4.0]), output_bin=0,
                      prediction=np.array([0.25, 0.25, 0.5]), arrival_index=1)
        lines = [
            '{"features": [1.0, -2.0], "output_bin": 2, "raw_output": 3.0, '
            '"prediction": [0.0, 1.0, 0.0], "stalled": 1, "loss": 2.0, "workload": 1, '
            '"noise": 1}\n',
            '{"features": [0.5, 4.0], "output_bin": 0, "raw_output": NaN, '
            '"prediction": [0.25, 0.25, 0.5], "stalled": 0}\n',
        ]
        path = tmp_path / "records.ndjson"
        for rows, want in (([whole], lines[0]), ([whole, half], "".join(lines))):
            for given in (rows, SamplePool.from_samples(rows)):
                write_samples(path, given)
                assert path.read_text() == want

    def test_returns_a_pool_counting_records_with_nan_for_a_missing_loss(self, tmp_path):
        path = tmp_path / "records.ndjson"
        record = ('{"features": [0.0, 1.0], "output_bin": 1, "raw_output": 1.0, '
                  '"prediction": [0.5, 0.5], "stalled": 0%s}\n')
        path.write_text(record % "" + "\n" + record % ', "loss": 0.25')
        pool = read_samples(path, k_pred=2, k_out=2)
        assert isinstance(pool, SamplePool)
        assert pool.arrival_index.tolist() == [0, 1]
        assert pool.features.shape == (2, 2) and pool.prediction.shape == (2, 2)
        assert math.isnan(pool.loss[0]) and pool.loss[1] == 0.25

    GOOD = ('{"features": [0.0, 1.0], "output_bin": 1, "raw_output": 1.0, '
            '"prediction": [0.5, 0.5], "stalled": 0}')
    BAD = {
        NonFiniteValue: GOOD.replace("[0.0, 1.0]", "[NaN, 1.0]"),
        BinOutOfRange: GOOD.replace('"output_bin": 1', '"output_bin": 7'),
        NonNormalizedPrediction: GOOD.replace("[0.5, 0.5]", "[0.5, 0.6]"),
        LengthMismatch: GOOD.replace("[0.0, 1.0]", "[0.0, 1.0, 2.0]"),
        ValueError: GOOD.replace('"raw_output": 1.0, ', ""),
    }

    @pytest.mark.parametrize("first, second", list(itertools.permutations(BAD, 2)),
                             ids=lambda e: e.__name__)
    def test_the_first_bad_record_names_its_error_and_line(self, tmp_path, first, second):
        """Blank lines count as lines; a later bad record of another kind does not win."""
        path = tmp_path / "records.ndjson"
        path.write_text("\n".join([self.GOOD, "", self.BAD[first], self.GOOD,
                                   self.BAD[second], ""]))
        with pytest.raises(first, match="line 3") as info:
            read_samples(path, k_pred=2, k_out=2)
        assert type(info.value) is first

    @pytest.mark.parametrize("bins", [None, 2])
    def test_mismatched_feature_lengths_name_a_line(self, tmp_path, bins):
        path = tmp_path / "records.ndjson"
        short = self.GOOD.replace("[0.0, 1.0]", "[0.0]")
        path.write_text("\n".join([self.GOOD, self.GOOD, short]))
        with pytest.raises(LengthMismatch, match="line 3: features"):
            read_samples(path, k_pred=bins, k_out=bins)

    def test_mismatched_prediction_lengths_name_a_line_without_bin_counts(self, tmp_path):
        path = tmp_path / "records.ndjson"
        path.write_text("\n".join([self.GOOD, self.GOOD.replace("[0.5, 0.5]", "[1.0]")]))
        with pytest.raises(LengthMismatch, match="line 2: prediction"):
            read_samples(path)

    @pytest.mark.parametrize("prediction", ["[]", "0.5", "[[0.5, 0.5]]"])
    def test_a_prediction_that_is_not_a_nonempty_list_is_empty_input(self, tmp_path, prediction):
        path = tmp_path / "records.ndjson"
        path.write_text(self.GOOD.replace("[0.5, 0.5]", prediction))
        with pytest.raises(EmptyInput, match="line 1"):
            read_samples(path)

    @pytest.mark.parametrize("field, value", [
        ("output_bin", 1.7), ("output_bin", "1"), ("output_bin", True), ("workload", 2.9),
        ("workload", False), ("stalled", "no"), ("stalled", 2), ("noise", 0.5),
        ("raw_output", "2.5"), ("loss", "0.25"), ("loss", True),
        ("features", ["0.5", "1"]), ("prediction", ["0.5", 0.5]),
        ("output_bin", 10**23), ("workload", 10**30), ("workload", 2**63), ("workload", -2**63 - 1),
        ("features", [True, 1.0]), ("prediction", [True, False]),
        ("features", {"a": 1}), ("features", [{"a": 1}, 1.0]),
        ("prediction", {"a": 1}), ("prediction", [{"a": 1}, 0.5]),
    ])
    def test_a_mistyped_field_is_refused_not_coerced(self, tmp_path, field, value):
        path = tmp_path / "records.ndjson"
        path.write_text(self.GOOD + "\n" + json.dumps(json.loads(self.GOOD) | {field: value}))
        with pytest.raises(ValueError, match=f"line 2: {field} must be") as info:
            read_samples(path, k_pred=2, k_out=2)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("workload", [2**63 - 1, -2**63])
    def test_a_workload_at_the_int64_limits_reads(self, tmp_path, workload):
        path = tmp_path / "records.ndjson"
        path.write_text(json.dumps(json.loads(self.GOOD) | {"workload": workload}))
        assert read_samples(path).workload.tolist() == [workload]

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"x"', "null"])
    def test_a_line_that_is_not_an_object_is_refused(self, tmp_path, line):
        path = tmp_path / "records.ndjson"
        path.write_text(self.GOOD + "\n" + line)
        with pytest.raises(ValueError, match="line 2: record must be a JSON object") as info:
            read_samples(path)
        assert type(info.value) is ValueError
