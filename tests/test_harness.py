import dataclasses
import hashlib
import math
import typing

import numpy as np
import pytest

from covmem import (
    LarsStrategy,
    RunConfig,
    balanced_accuracy,
    parse_config,
    percentile_nearest_rank,
    run,
    sweep,
)
from covmem.harness import coerce_value
from covmem.errors import (
    BadFraction,
    BatchExceedsCapacity,
    ConfigError,
    EmptyInput,
    NegativeTemperature,
    NonPositiveBandwidth,
    NonPositiveCount,
    NotClassification,
    UnbalancedEvalSet,
)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 0, 1, 1], [0, 0, 1, 1], 2) == 1.0

    def test_per_class_average_not_pooled(self):
        # class 0: 2/2 right, class 1: 0/2 -> balanced 0.5 no matter the mix
        assert balanced_accuracy([0, 0, 1, 1], [0, 0, 0, 0], 2) == 0.5

    def test_rejects_unbalanced(self):
        with pytest.raises(UnbalancedEvalSet):
            balanced_accuracy([0, 0, 0, 1], [0, 0, 0, 1], 2)

    def test_rejects_missing_class(self):
        with pytest.raises(UnbalancedEvalSet):
            balanced_accuracy([0, 0, 1, 1], [0, 0, 1, 1], 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(UnbalancedEvalSet):
            balanced_accuracy([0, 1], [0, 1, 1], 2)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            balanced_accuracy([], [], 2)


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        values = np.arange(1, 101)
        assert percentile_nearest_rank(values, 0.99) == 99.0
        assert percentile_nearest_rank(values, 0.01) == 1.0
        assert percentile_nearest_rank(values, 1.00) == 100.0

    def test_small_sets_round_up(self):
        assert percentile_nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile_nearest_rank([7.0], 0.99) == 7.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            percentile_nearest_rank([], 0.5)


class TestRunConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            RunConfig(strategy="memento", capacity=10, batch_size=5)
        with pytest.raises(ConfigError):
            RunConfig(strategy="memento", capacity=10, batch_size=5,
                      scenario="rare_patterns", input="pool.ndjson")

    def test_file_runs_need_bin_counts(self):
        with pytest.raises(ConfigError, match="k_pred"):
            RunConfig(strategy="memento", capacity=10, batch_size=5, input="pool.ndjson")

    @pytest.mark.parametrize("field,value", [
        ("strategy", "sorting_hat"),
        ("scenario", "austral_winter"),
        ("predictor", "tea_leaves"),
        ("retrain", "sometimes"),
    ])
    def test_rejects_unknown_names(self, field, value):
        kwargs = dict(strategy="memento", capacity=10, batch_size=5, scenario="rare_patterns")
        kwargs[field] = value
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("field", [
        "iterations", "samples_per_iteration", "feature_dim", "eval_per_class",
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_run_shapes_below_one(self, field, value):
        kwargs = dict(strategy="memento", capacity=10, batch_size=5, scenario="rare_patterns")
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            RunConfig(**kwargs)

    @pytest.mark.parametrize("source,value", [
        (dict(scenario="rare_patterns"), -0.1),
        (dict(scenario="rare_patterns"), 1.5),
        (dict(scenario="rare_patterns"), float("nan")),
        (dict(input="pool.ndjson", k_pred=3, k_out=3), 0.05),
    ], ids=["negative", "above_one", "nan", "file_input"])
    def test_rejects_noise_fractions_it_cannot_apply(self, source, value):
        with pytest.raises(ConfigError, match="noise_fraction"):
            RunConfig(strategy="memento", capacity=10, batch_size=5, noise_fraction=value,
                      **source)


    @pytest.mark.parametrize("field, value, cause", [
        ("capacity", 0, NonPositiveCount),
        ("capacity", -5, NonPositiveCount),
        ("batch_size", 0, NonPositiveCount),
        ("batch_size", 11, BatchExceedsCapacity),
        ("bandwidth", 0.0, NonPositiveBandwidth),
        ("bandwidth", -0.1, NonPositiveBandwidth),
        ("bandwidth", math.nan, NonPositiveBandwidth),
        ("bandwidth", math.inf, NonPositiveBandwidth),
        ("temperature", -0.01, NegativeTemperature),
        ("temperature", math.nan, NegativeTemperature),
        ("threshold", -0.1, BadFraction),
        ("threshold", 1.5, BadFraction),
        ("threshold", math.nan, BadFraction),
    ])
    def test_rejects_bad_strategy_knobs_at_construction(self, field, value, cause):
        """A bad knob fails as a ConfigError chaining the StrategyConfig error, before any work."""
        kwargs = dict(strategy="memento", capacity=10, batch_size=5, scenario="rare_patterns")
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field) as info:
            RunConfig(**kwargs)
        assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_a_committee_below_one_at_construction(self, value):
        with pytest.raises(ConfigError, match="committee_size"):
            RunConfig(strategy="qbc", capacity=10, batch_size=5, scenario="rare_patterns",
                      committee_size=value)

    def test_rejects_an_unknown_qbc_vote_at_construction(self):
        with pytest.raises(ConfigError, match="qbc_vote"):
            RunConfig(strategy="qbc", capacity=10, batch_size=5, scenario="rare_patterns",
                      qbc_vote="hard")

    def test_rejects_a_negative_seed_at_construction(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(strategy="memento", capacity=10, batch_size=5, scenario="rare_patterns",
                      seed=-1)

    def test_file_runs_check_their_bin_counts(self):
        with pytest.raises(ConfigError, match="k_out") as info:
            RunConfig(strategy="memento", capacity=10, batch_size=5, input="pool.ndjson",
                      k_pred=3, k_out=0)
        assert isinstance(info.value.__cause__, NonPositiveCount)

    @pytest.mark.parametrize("bins", [dict(k_pred=7, k_out=2), dict(k_pred=3), dict(k_out=3)])
    def test_scenario_runs_refuse_bin_counts(self, bins):
        """A scenario fixes its bin counts, so a value set beside it would be ignored."""
        with pytest.raises(ConfigError, match="fixes k_pred and k_out"):
            RunConfig(strategy="fifo", capacity=100, batch_size=10, scenario="rare_patterns",
                      iterations=2, samples_per_iteration=200, eval_per_class=10, **bins)

    def test_file_runs_reject_more_output_bins_than_prediction_bins(self):
        """Predictors index their k_pred-bin predictions by output bin, so a
        larger k_out would fail mid-run, differently in each predictor."""
        source = dict(strategy="fifo", capacity=100, batch_size=10, input="pool.ndjson")
        with pytest.raises(ConfigError, match="k_out 5 exceeds k_pred 3"):
            RunConfig(**source, k_pred=3, k_out=5)
        for k_out in (3, 2):
            RunConfig(**source, k_pred=3, k_out=k_out)


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_happy_path(self, tmp_path):
        path = self.write(tmp_path, """
            # smoke config
            strategy = memento
            scenario = rare_patterns
            capacity = 500          # inline comment
            batch_size = 16
            iterations = 4
            samples_per_iteration = 200
            temperature = 0.01
            stationary = true
        """)
        config = parse_config(path)
        assert config.strategy == "memento"
        assert config.capacity == 500
        assert config.temperature == 0.01
        assert config.stationary is True

    def test_unknown_key_names_the_line(self, tmp_path):
        path = self.write(tmp_path, "strategy = memento\nflux = 9\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(path)

    def test_missing_required_keys(self, tmp_path):
        path = self.write(tmp_path, "strategy = memento\n")
        with pytest.raises(ConfigError, match="capacity"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = self.write(tmp_path, "strategy = memento\ncapacity = lots\nbatch_size = 4\n")
        with pytest.raises(ConfigError, match="capacity"):
            parse_config(path)

    def test_run_shape_below_one_fails_at_parse(self, tmp_path):
        path = self.write(tmp_path, "strategy = memento\nscenario = rare_patterns\n"
                                    "capacity = 8\nbatch_size = 4\niterations = 0\n")
        with pytest.raises(ConfigError, match="iterations"):
            parse_config(path)

    @pytest.mark.parametrize("line", ["capacity = 0", "batch_size = 9", "bandwidth = nan",
                                      "bandwidth = inf", "temperature = -1", "threshold = 2",
                                      "separation = nan", "separation = -inf"])
    def test_bad_strategy_knob_fails_at_parse(self, tmp_path, line):
        path = self.write(tmp_path, "strategy = memento\nscenario = rare_patterns\n"
                                    f"capacity = 8\nbatch_size = 4\n{line}\n")
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(path)

    def test_noise_fraction_above_one_fails_at_parse(self, tmp_path):
        path = self.write(tmp_path, "strategy = memento\nscenario = rare_patterns\n"
                                    "capacity = 8\nbatch_size = 4\nnoise_fraction = 1.5\n")
        with pytest.raises(ConfigError, match="noise_fraction"):
            parse_config(path)

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = self.write(tmp_path, "strategy = memento\nscenario = rare_patterns\n"
                                    "capacity = 8\nbatch_size = 4\n"
                                    "out_dir = /tmp/run#1\n")
        assert parse_config(path).out_dir == "/tmp/run#1"

    def test_line_without_equals(self, tmp_path):
        path = self.write(tmp_path, "strategy memento\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)


# One valid and one malformed string per field type; any string is a valid str.
VALID_RAW = {bool: ("yes", True), int: ("7", 7), float: ("0.5", 0.5), str: ("abc", "abc")}
MALFORMED_RAW = {bool: "maybe", int: "1.5", float: "half"}


def field_type(field):
    """The field's type with ``X | None`` read as ``X``."""
    args = [t for t in typing.get_args(field.type) if t is not type(None)]
    return args[0] if args else field.type


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
class TestCoerceValue:
    def test_a_valid_string_coerces_to_the_field_type(self, field):
        raw, want = VALID_RAW[field_type(field)]
        got = coerce_value(field.name, f" {raw} ")
        assert type(got) is field_type(field) and got == want

    def test_a_malformed_string_raises_config_error(self, field):
        kind = field_type(field)
        if kind is str:
            assert coerce_value(field.name, "any text at all") == "any text at all"
            return
        with pytest.raises(ConfigError, match=field.name):
            coerce_value(field.name, MALFORMED_RAW[kind])


def test_coerce_value_rejects_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        coerce_value("flux", "9")


def small_config(**overrides):
    base = dict(
        strategy="memento",
        scenario="rare_patterns",
        capacity=400,
        batch_size=16,
        iterations=4,
        samples_per_iteration=800,
        feature_dim=4,
        eval_per_class=50,
        predictor="centroid",
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRun:
    def test_produces_one_report_per_iteration(self):
        reports = run(small_config())
        assert len(reports) == 4
        for t, r in enumerate(reports):
            assert r.iteration == t
            assert 0.0 <= r.rci <= 1.0
            assert r.mem_class_counts.sum() <= 400
            assert r.selection_seconds >= 0.0
        assert reports[0].retrained  # first pass always fires

    def test_accuracy_improves_over_uniform(self):
        reports = run(small_config())
        # 3 classes, separation 4: a trained centroid should be near-perfect
        assert reports[-1].balanced_accuracy > 0.9

    def test_likelihood_predictor_also_learns_the_classes(self):
        reports = run(small_config(predictor="likelihood"))
        assert reports[-1].balanced_accuracy > 0.9

    def test_regression_scenario_reports_p99(self):
        reports = run(small_config(scenario="gradual_drift", iterations=3,
                                   predictor="histogram"))
        for r in reports:
            assert np.isnan(r.balanced_accuracy)
            assert np.isfinite(r.p99_error)

    def test_classification_reports_no_p99(self):
        reports = run(small_config())
        assert all(np.isnan(r.p99_error) for r in reports)

    def test_retrain_every_schedule(self):
        reports = run(small_config(retrain="every", retrain_every=2))
        assert [r.retrained for r in reports] == [True, False, True, False]

    def test_writes_report_files(self, tmp_path):
        run(small_config(out_dir=str(tmp_path / "out")))
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert report[0].startswith("iteration,retrained,rci,balanced_accuracy")
        assert len(report) == 5
        assert "mem_count_class_2" in report[0]
        timings = (tmp_path / "out" / "timings.csv").read_text().splitlines()
        assert timings[0] == "iteration,selection_seconds"

    def test_report_is_deterministic_timings_are_separate(self, tmp_path):
        run(small_config(out_dir=str(tmp_path / "a")))
        run(small_config(out_dir=str(tmp_path / "b")))
        report_a = (tmp_path / "a" / "report.csv").read_bytes()
        report_b = (tmp_path / "b" / "report.csv").read_bytes()
        assert report_a == report_b

    def test_different_seed_changes_the_run(self, tmp_path):
        run(small_config(out_dir=str(tmp_path / "a")))
        run(small_config(out_dir=str(tmp_path / "b"), seed=7))
        assert (tmp_path / "a" / "report.csv").read_bytes() != \
               (tmp_path / "b" / "report.csv").read_bytes()

    def test_snapshots(self, tmp_path):
        run(small_config(out_dir=str(tmp_path / "out"), snapshots=True,
                         retrain="every", retrain_every=1))
        dumps = sorted((tmp_path / "out").glob("memory_*.ndjson"))
        assert len(dumps) == 4

    def test_noise_fraction_flows_through(self):
        reports = run(small_config(noise_fraction=0.05))
        assert len(reports) == 4

    def test_file_based_run(self, tmp_path):
        from covmem import write_samples
        from covmem.workloads import generate, rare_patterns

        spec = rare_patterns(iterations=2, samples_per_iteration=400, feature_dim=4)
        pool = [s for chunk in generate(spec, seed=0) for s in chunk]
        path = tmp_path / "pool.ndjson"
        write_samples(path, pool)

        reports = run(RunConfig(
            strategy="fifo", capacity=200, batch_size=16,
            input=str(path), samples_per_iteration=400,
            k_pred=3, k_out=3, predictor="histogram",
        ))
        assert len(reports) == 2
        for r in reports:
            assert np.isnan(r.balanced_accuracy)  # no balanced split from files
            assert np.isfinite(r.mean_logscore)

    def test_an_empty_record_file_is_empty_input_before_any_work(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        out_dir = tmp_path / "out"
        config = RunConfig(strategy="fifo", capacity=10, batch_size=5, input=str(path),
                           k_pred=3, k_out=3, out_dir=str(out_dir))
        with pytest.raises(EmptyInput, match="empty.ndjson"):
            run(config)
        assert not out_dir.exists()

    def test_lars_refuses_a_regression_scenario_before_any_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(LarsStrategy, "select", lambda *args: calls.append(args))
        out_dir = tmp_path / "out"
        config = small_config(strategy="lars", scenario="gradual_drift", iterations=3,
                              out_dir=str(out_dir))
        with pytest.raises(NotClassification, match="gradual_drift"):
            run(config)
        assert not out_dir.exists() and not calls

    def test_oracle_predictor_needs_a_scenario(self, tmp_path):
        from covmem import write_samples
        from covmem.workloads import generate, rare_patterns

        spec = rare_patterns(iterations=1, samples_per_iteration=50, feature_dim=4)
        path = tmp_path / "pool.ndjson"
        write_samples(path, [s for chunk in generate(spec, seed=0) for s in chunk])
        config = RunConfig(strategy="fifo", capacity=100, batch_size=16,
                           input=str(path), k_pred=3, k_out=3, predictor="oracle")
        with pytest.raises(ConfigError, match="oracle"):
            run(config)


class TestSweep:
    def test_sweeps_one_parameter(self, tmp_path):
        results = sweep(small_config(out_dir=str(tmp_path)), "capacity", ["200", "400"])
        assert set(results) == {"200", "400"}
        assert (tmp_path / "capacity=200" / "report.csv").exists()
        assert (tmp_path / "capacity=400" / "report.csv").exists()

    def test_swept_value_actually_applies(self, tmp_path):
        results = sweep(small_config(), "capacity", ["100", "300"])
        last_100 = results["100"][-1].mem_class_counts.sum()
        last_300 = results["300"][-1].mem_class_counts.sum()
        assert last_100 <= 100 and 100 < last_300 <= 300

    def test_rejects_unknown_and_unsweepable_keys(self):
        with pytest.raises(ConfigError):
            sweep(small_config(), "flux", ["1"])
        with pytest.raises(ConfigError):
            sweep(small_config(), "out_dir", ["/tmp/x"])

    def test_rejects_empty_values(self):
        with pytest.raises(ConfigError):
            sweep(small_config(), "capacity", [])

    def test_refuses_bin_counts_on_a_scenario(self):
        """A scenario fixes k_pred, so sweeping it would run one variant repeatedly."""
        with pytest.raises(ConfigError, match="fixes k_pred"):
            sweep(small_config(), "k_pred", ["3", "7"])

    def test_accepts_typed_values(self):
        results = sweep(small_config(), "temperature", [0.0, 0.01])
        assert set(results) == {"0.0", "0.01"}


# sha256 of output files from small runs, recorded with the code that fit
# predictors on Sample rows and scored the unbalanced path separately.
# Fits, evaluation and snapshots must keep producing the same bytes.
GOLDEN_OUTPUTS = {
    "rare_patterns_centroid":
        "a1b8012c098eded8fcf1179a27938cd02dd7103c1c7aeaeae005158b2491a940",
    "rare_patterns_centroid_snapshot":
        "f911b7b520e8b5a2fbbf5eb848b587c552508d72c49e4e3f44ad175872473168",
    "gradual_drift_likelihood":
        "defdf916501de042cb97aec7d0a7ffa8fc247e10f5c38fe9fc6d5927dc1ea2c2",
    "file_fifo_histogram":
        "d1183c6304f298c611b8b2d742560354b41ce7602b7158a64ece635738bf883f",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    def test_rare_patterns_centroid(self, tmp_path):
        run(small_config(out_dir=str(tmp_path), snapshots=True))
        assert sha256_of(tmp_path / "report.csv") == GOLDEN_OUTPUTS["rare_patterns_centroid"]
        assert sha256_of(tmp_path / "memory_0001.ndjson") == \
            GOLDEN_OUTPUTS["rare_patterns_centroid_snapshot"]

    def test_gradual_drift_likelihood(self, tmp_path):
        run(small_config(out_dir=str(tmp_path), scenario="gradual_drift", iterations=3,
                         predictor="likelihood", noise_fraction=0.05))
        assert sha256_of(tmp_path / "report.csv") == GOLDEN_OUTPUTS["gradual_drift_likelihood"]

    def test_file_fifo_histogram(self, tmp_path):
        from covmem import write_samples
        from covmem.workloads import generate, rare_patterns

        spec = rare_patterns(iterations=3, samples_per_iteration=400, feature_dim=4)
        path = tmp_path / "pool.ndjson"
        write_samples(path, [s for chunk in generate(spec, seed=5) for s in chunk])
        run(RunConfig(
            strategy="fifo", capacity=300, batch_size=16, input=str(path),
            samples_per_iteration=400, k_pred=3, k_out=3, predictor="histogram",
            out_dir=str(tmp_path / "out"),
        ))
        assert sha256_of(tmp_path / "out" / "report.csv") == GOLDEN_OUTPUTS["file_fifo_histogram"]


@pytest.mark.parametrize("overrides, golden", [
    (dict(snapshots=True), "rare_patterns_centroid"),
    (dict(scenario="gradual_drift", iterations=3, predictor="likelihood", noise_fraction=0.05),
     "gradual_drift_likelihood"),
])
def test_scenario_runs_build_no_sample_rows(tmp_path, monkeypatch, overrides, golden):
    """Generated and noisy chunks reach selection as their pools: no row is built."""
    from covmem import samples

    def no_rows(pool):
        raise AssertionError("a Sample row was built")

    monkeypatch.setattr(samples, "_build_rows", no_rows)
    run(small_config(out_dir=str(tmp_path), **overrides))
    assert sha256_of(tmp_path / "report.csv") == GOLDEN_OUTPUTS[golden]


def test_file_run_stacks_the_file_once(tmp_path, monkeypatch):
    """Selection and evaluation share each chunk's pool; no row is stacked twice."""
    from covmem import samples, write_samples
    from covmem.workloads import generate, rare_patterns

    spec = rare_patterns(iterations=3, samples_per_iteration=100, feature_dim=4)
    path = tmp_path / "pool.ndjson"
    write_samples(path, [s for chunk in generate(spec, seed=5) for s in chunk])
    stacked = []
    stack_rows = samples._stack_rows
    monkeypatch.setattr(samples, "_stack_rows",
                        lambda rows, column, dtype=None:
                        stacked.append(column) or stack_rows(rows, column, dtype))
    reports = run(RunConfig(
        strategy="memento", capacity=150, batch_size=8, input=str(path),
        samples_per_iteration=100, k_pred=3, k_out=3, predictor="histogram",
    ))
    assert len(reports) == 3
    assert stacked == ["features", "prediction"]
