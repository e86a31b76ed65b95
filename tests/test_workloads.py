import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmem import (
    Sample,
    SamplePool,
    ScenarioSpec,
    build_scenario,
    eval_set,
    generate,
    gradual_drift,
    incremental,
    inject_noise,
    rare_patterns,
)
from covmem.errors import BadFraction, BadSchedule
from covmem.workloads import (
    DRIFT_PHASE_SCALES,
    RARE_W1_OVERALL,
    RARE_W1_PERIOD,
    RARE_W3_OVERALL,
    RARE_W3_PERIOD,
    SCENARIO_KINDS,
)


def counts_by_workload(samples, n_classes):
    return np.bincount(
        [s.workload for s in samples if s.workload >= 0], minlength=n_classes
    )


class TestRarePatterns:
    def test_cadences(self):
        spec = rare_patterns(iterations=20, samples_per_iteration=2000)
        for t, chunk in enumerate(generate(spec, seed=0)):
            counts = counts_by_workload(chunk, 3)
            if t % RARE_W1_PERIOD == 0:
                assert counts[0] > 0
            else:
                assert counts[0] == 0
            if t % RARE_W3_PERIOD == 0:
                assert counts[2] > 0
            else:
                assert counts[2] == 0

    def test_overall_fractions(self):
        spec = rare_patterns(iterations=20, samples_per_iteration=5000)
        total = np.zeros(3)
        n = 0
        for chunk in generate(spec, seed=1):
            total += counts_by_workload(chunk, 3)
            n += len(chunk)
        # multinomial noise: 3 sigma on 100k draws
        for fraction, target in ((total[0] / n, RARE_W1_OVERALL),
                                 (total[2] / n, RARE_W3_OVERALL)):
            sigma = np.sqrt(target * (1 - target) / n)
            assert abs(fraction - target) < 3 * sigma + 1e-4

    def test_stationary_spreads_the_rare_mass(self):
        spec = rare_patterns(iterations=10, samples_per_iteration=4000, stationary=True)
        for chunk in generate(spec, seed=2):
            counts = counts_by_workload(chunk, 3)
            assert counts[0] > 0 and counts[2] > 0

    def test_stall_flag_marks_exactly_one_class(self):
        spec = rare_patterns(iterations=5, samples_per_iteration=3000)
        for chunk in generate(spec, seed=3):
            for s in chunk:
                assert s.stalled == (s.workload == 0)

    def test_output_bin_is_the_class(self):
        spec = rare_patterns(iterations=5, samples_per_iteration=500)
        for chunk in generate(spec, seed=4):
            assert all(s.output_bin == s.workload for s in chunk)


class TestIncremental:
    def test_disjoint_phases(self):
        spec = incremental(iterations=9, samples_per_iteration=300)
        for t, chunk in enumerate(generate(spec, seed=0)):
            classes = {s.workload for s in chunk}
            assert classes == {t // 3}

    def test_iterations_must_divide(self):
        with pytest.raises(BadSchedule):
            incremental(iterations=10)


class TestGradualDrift:
    def test_phase_scales_shift_the_outputs(self):
        spec = gradual_drift(iterations=6, samples_per_iteration=4000)
        raw_by_phase = [[], []]
        for t, chunk in enumerate(generate(spec, seed=0)):
            phase = t // 2
            if phase in (0, 2):
                raw_by_phase[phase // 2] += [s.raw_output for s in chunk]
        first = np.median(raw_by_phase[0])
        last = np.median(raw_by_phase[1])
        assert last / first == pytest.approx(DRIFT_PHASE_SCALES[2] / DRIFT_PHASE_SCALES[0],
                                             rel=0.05)

    def test_bins_respect_fixed_edges(self):
        spec = gradual_drift(iterations=3, samples_per_iteration=2000)
        for chunk in generate(spec, seed=1):
            for s in chunk:
                assert 0 <= s.output_bin < spec.k_out
                if s.raw_output < spec.bin_edges[-1]:
                    edge_lo = spec.bin_edges[s.output_bin]
                    edge_hi = spec.bin_edges[s.output_bin + 1]
                    assert edge_lo <= s.raw_output < edge_hi

    def test_overflow_clips_to_last_bin(self):
        spec = gradual_drift(iterations=3, samples_per_iteration=1)
        assert spec.bin_edges[-1] == 32.0
        # no assertion on the draw itself; just confirm the clip path is sound
        raw = np.array([40.0, -1.0, 5.0])
        bins = np.clip(np.digitize(raw, spec.bin_edges) - 1, 0, spec.k_out - 1)
        assert bins.tolist() == [spec.k_out - 1, 0, np.digitize(5.0, spec.bin_edges) - 1]


class TestGenerate:
    def test_deterministic(self):
        spec = rare_patterns(iterations=3, samples_per_iteration=200)
        a = [s for chunk in generate(spec, seed=9) for s in chunk]
        b = [s for chunk in generate(spec, seed=9) for s in chunk]
        assert len(a) == len(b) == 600
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            assert x.output_bin == y.output_bin

    def test_seed_changes_the_stream(self):
        spec = rare_patterns(iterations=1, samples_per_iteration=100)
        (a,) = list(generate(spec, seed=0))
        (b,) = list(generate(spec, seed=1))
        assert not np.array_equal(tuple(a)[0].features, tuple(b)[0].features)

    def test_arrival_indices_are_a_global_counter(self):
        spec = incremental(iterations=3, samples_per_iteration=50)
        chunks = list(generate(spec, seed=0))
        assert all(type(chunk) is SamplePool for chunk in chunks)
        seen = [s.arrival_index for chunk in chunks for s in chunk]
        assert seen == list(range(150))

    def test_placeholder_predictions_are_uniform(self):
        spec = rare_patterns(iterations=1, samples_per_iteration=10)
        (chunk,) = list(generate(spec, seed=0))
        for s in chunk:
            np.testing.assert_allclose(s.prediction, 1.0 / spec.k_pred)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_placeholder_predictions_are_one_shared_read_only_view(self, kind):
        spec = build_scenario(kind, iterations=3, samples_per_iteration=30)
        for pool in (next(generate(spec, seed=0)), eval_set(spec, 1, 10, seed=0)):
            rows = tuple(pool)
            shared = rows[0].prediction
            assert all(s.prediction is shared for s in rows)
            assert not shared.flags.writeable
            np.testing.assert_array_equal(shared, pool.prediction[0])

    def test_rows_of_a_generated_chunk_stay_small(self):
        """Traced bytes per row of a 10k-row chunk: 407 with one prediction
        view per row, 295 with one shared view (Python 3.11, numpy 2.4).
        Rows are built on first use, so ``tuple`` builds them inside the
        traced window; its copy adds 8 bytes a row."""
        spec = rare_patterns(iterations=1, samples_per_iteration=10_000)
        pool = next(generate(spec, seed=0))
        tracemalloc.start()
        try:
            rows = tuple(pool)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 10_000
        assert held / len(rows) < 350


class TestEvalSet:
    def test_balanced(self):
        spec = rare_patterns(iterations=5, samples_per_iteration=100)
        pool = eval_set(spec, iteration=0, per_class=40, seed=0)
        assert isinstance(pool, SamplePool)
        np.testing.assert_array_equal(np.bincount(pool.workload, minlength=3), 40)

    def test_independent_of_stream_state(self):
        spec = rare_patterns(iterations=5, samples_per_iteration=100)
        before = eval_set(spec, iteration=2, per_class=10, seed=0)
        list(generate(spec, seed=0))  # exhaust the stream
        after = eval_set(spec, iteration=2, per_class=10, seed=0)
        np.testing.assert_array_equal(before.features, after.features)

    def test_regression_eval_uses_iteration_scale(self):
        spec = gradual_drift(iterations=6, samples_per_iteration=100)
        early = eval_set(spec, iteration=0, per_class=2000, seed=0)
        late = eval_set(spec, iteration=5, per_class=2000, seed=0)
        ratio = np.median(late.raw_output) / np.median(early.raw_output)
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestInjectNoise:
    def test_exact_count_per_iteration(self):
        spec = rare_patterns(iterations=4, samples_per_iteration=1000)
        noisy = inject_noise(generate(spec, seed=0), 0.05, spec, seed=0)
        for chunk in noisy:
            assert type(chunk) is SamplePool
            assert sum(s.noise for s in chunk) == 50
            assert len(chunk) == 1000

    def test_zero_fraction_is_identity(self):
        spec = rare_patterns(iterations=2, samples_per_iteration=100)
        clean = [s for chunk in generate(spec, seed=0) for s in chunk]
        noisy = [
            s for chunk in inject_noise(generate(spec, seed=0), 0.0, spec, seed=0)
            for s in chunk
        ]
        for x, y in zip(clean, noisy):
            np.testing.assert_array_equal(x.features, y.features)
            assert not y.noise

    def test_replacements_keep_arrival_indices(self):
        spec = rare_patterns(iterations=2, samples_per_iteration=500)
        noisy = inject_noise(generate(spec, seed=0), 0.1, spec, seed=0)
        arrivals = [s.arrival_index for chunk in noisy for s in chunk]
        assert arrivals == list(range(1000))

    def test_noise_features_fill_the_box(self):
        spec = rare_patterns(iterations=1, samples_per_iteration=5000)
        (chunk,) = list(inject_noise(generate(spec, seed=0), 0.5, spec, seed=0))
        noise_features = np.stack([s.features for s in chunk if s.noise])
        # half-width = quarter of the mean inter-class distance = sqrt(2)
        half = np.sqrt(2.0)
        assert noise_features.min() > -half
        assert noise_features.max() < half
        # spread across the box (uniform std = half / sqrt(3)), not piled up
        assert noise_features.std() > 0.7
        assert abs(noise_features.mean()) < 0.05

    def test_noise_is_unlabeled_workload(self):
        spec = rare_patterns(iterations=1, samples_per_iteration=200)
        (chunk,) = list(inject_noise(generate(spec, seed=0), 0.2, spec, seed=0))
        for s in chunk:
            if s.noise:
                assert s.workload == -1
                assert 0 <= s.output_bin < spec.k_out

    def test_replacements_reset_every_field_of_plain_rows(self):
        spec = rare_patterns(iterations=2, samples_per_iteration=200)
        plain = [
            [Sample(features=s.features, output_bin=1, prediction=np.array([0.0, 1.0, 0.0]),
                    arrival_index=s.arrival_index, raw_output=1.0, loss=0.5, stalled=True,
                    workload=1)
             for s in chunk]
            for chunk in generate(spec, seed=0)
        ]
        noisy = list(inject_noise(plain, 0.25, spec, seed=0))
        for before, after in zip(plain, noisy):
            assert sum(s.noise for s in after) == 50
            for a, b in zip(before, after):
                assert b.arrival_index == a.arrival_index
                if b.noise:
                    assert (b.loss, b.stalled, b.workload) == (None, False, -1)
                    assert b.raw_output == float(b.output_bin)
                    np.testing.assert_array_equal(b.prediction, np.full(3, 1 / 3))
                else:
                    assert (b.loss, b.stalled, b.workload, b.output_bin) == (0.5, True, 1, 1)
                    np.testing.assert_array_equal(b.features, a.features)
                    np.testing.assert_array_equal(b.prediction, a.prediction)

    def test_bad_fraction(self):
        spec = rare_patterns(iterations=1, samples_per_iteration=10)
        with pytest.raises(BadFraction):
            list(inject_noise(generate(spec, seed=0), 1.5, spec, seed=0))

    @pytest.mark.parametrize("fraction", [1.5, -0.1, float("nan")])
    def test_bad_fraction_fails_at_the_call(self, fraction):
        spec = rare_patterns(iterations=1, samples_per_iteration=10)
        with pytest.raises(BadFraction):
            inject_noise(generate(spec, seed=0), fraction, spec, seed=0)

    def test_deterministic(self):
        spec = rare_patterns(iterations=2, samples_per_iteration=300)

        def features(seed):
            return [
                s.features
                for chunk in inject_noise(generate(spec, seed=0), 0.1, spec, seed=seed)
                for s in chunk
            ]

        for x, y in zip(features(7), features(7)):
            np.testing.assert_array_equal(x, y)


def test_importing_covmem_loads_no_scipy_spatial():
    """scipy.spatial is imported only once noise is injected."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, covmem; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(BadSchedule):
            build_scenario("quantum_foam")

    def test_known_kinds(self):
        for kind in SCENARIO_KINDS:
            spec = build_scenario(kind, iterations=3, samples_per_iteration=10)
            assert spec.kind == kind

    def test_schedule_must_sum_to_one(self):
        with pytest.raises(BadSchedule, match="sum to 1"):
            ScenarioSpec(
                kind="custom",
                iterations=1,
                samples_per_iteration=10,
                class_means=np.zeros((2, 2)),
                schedule=np.array([[0.6, 0.6]]),
            )

    def test_schedule_shape(self):
        with pytest.raises(BadSchedule, match="shape"):
            ScenarioSpec(
                kind="custom",
                iterations=2,
                samples_per_iteration=10,
                class_means=np.zeros((2, 2)),
                schedule=np.array([[1.0, 0.0]]),
            )

    def test_negative_weights(self):
        with pytest.raises(BadSchedule, match="nonnegative"):
            ScenarioSpec(
                kind="custom",
                iterations=1,
                samples_per_iteration=10,
                class_means=np.zeros((2, 2)),
                schedule=np.array([[1.5, -0.5]]),
            )

    def test_regression_needs_edges(self):
        with pytest.raises(BadSchedule, match="regression"):
            ScenarioSpec(
                kind="custom",
                iterations=1,
                samples_per_iteration=10,
                class_means=np.zeros((2, 2)),
                schedule=np.array([[0.5, 0.5]]),
                regression=True,
            )

    def test_bin_midpoints(self):
        spec = gradual_drift(iterations=3, samples_per_iteration=1)
        mids = spec.bin_midpoints()
        assert len(mids) == spec.k_out
        np.testing.assert_allclose(mids[0], spec.bin_edges[:2].mean())
        classification = rare_patterns(iterations=5, samples_per_iteration=1)
        np.testing.assert_array_equal(classification.bin_midpoints(), [0.0, 1.0, 2.0])


# sha256 over every column of generator output, recorded with the code that
# built each chunk row by row as a list of Sample objects.  Each chunk is
# hashed twice: as the pool SamplePool.from_samples returns for the chunk
# itself and as the pool stacked from a plain list of its rows.  Keys are
# scenario-seed-output; shapes are those of GOLDEN_COLUMN_SPEC.
GOLDEN_COLUMN_SPEC = dict(iterations=3, samples_per_iteration=300, feature_dim=4)
GOLDEN_COLUMNS = {
    "rare_patterns-0-stream":
        "614946dc863f191a9d118f54cc8e374dec51b333cea7d9d812a27219d8888108",
    "rare_patterns-0-noise0.1":
        "e79802c4f22f4ce1adb9acbc4bab1b3d0d3770b9c915198e8c6c09e352c3e105",
    "rare_patterns-0-eval":
        "5e02ba901bd379672e1bbbb9c2413ab15bc2d9cfe4d66ebc5d4750b0aaf4a983",
    "rare_patterns-5-stream":
        "d7c05e37917f898b24ee2f6df91626e75d30a153c30e6730466f0546f3104c4d",
    "rare_patterns-5-noise0.1":
        "69e5997173364137d17b7e44dbb05c2a5d1abe05d6778a12cbff267ad98f76cc",
    "rare_patterns-5-eval":
        "77635bb351e035372c03f02b2414838f2e6475b293ec27bb04ebbcbe6e17328e",
    "incremental-0-stream":
        "b81cf35c97fc58320eef0ca0269af893ba3c1d3d10d916cb57b68b9fb8b72e8e",
    "incremental-0-noise0.1":
        "c113469326dd353b99973993dd6fc0aa5528d9ba1ceb606c48382f9bf8b16732",
    "incremental-0-eval":
        "4483301c0ab58c0ae3ab65d2dd90e1e51ab9aaf5387519d36b51c0ed1bb61156",
    "incremental-5-stream":
        "9f3785327fd12a9c23bd64d0b0102b4f461d6cbc8e5bedaeff97344a9dcfebe4",
    "incremental-5-noise0.1":
        "45f425d259b50f0c2e87c12cc05ae34199389d64a11e4df771105a1b2d14478f",
    "incremental-5-eval":
        "3d630439c799c4ee82d4e1a7c1d95d94f2628f01850f2d94cf560e24894e5656",
    "gradual_drift-0-stream":
        "dfca3dceb76632db364d699b9fa6e23039f1aba2410023075d243f9127baad58",
    "gradual_drift-0-noise0.1":
        "fc165f392645f858c08daf11ae9c6f58d1736474df1279fc47de5ec96094c7c5",
    "gradual_drift-0-eval":
        "0dcbecb8ef5b2f0eec02673d7953b25fde45a399689d2b4998b28737067d9a52",
    "gradual_drift-5-stream":
        "5bfe32ddfbb58914af72103dd8fbe44da3a45c2dc445d5d72e4d4163fe94545b",
    "gradual_drift-5-noise0.1":
        "c57bac6f039e185cc95ab5757b841c14e5d8b201f8f848684773ee04f7f228b9",
    "gradual_drift-5-eval":
        "90a88ed78c27ed2df47aba4db45867978e1d1b190ecbc50b17b328b026fbc40c",
}


def column_digest(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        for pool in (SamplePool.from_samples(chunk), SamplePool.from_samples(list(chunk))):
            for f in fields(SamplePool):
                column = getattr(pool, f.name)
                digest.update(f"{f.name} {column.dtype.str} {column.shape}".encode())
                digest.update(column.tobytes())
    return digest.hexdigest()


def generator_outputs(kind, seed):
    spec = build_scenario(kind, **GOLDEN_COLUMN_SPEC)
    return {
        "stream": list(generate(spec, seed)),
        "noise0.1": list(inject_noise(generate(spec, seed), 0.1, spec, seed)),
        # eval pools, hashed as the chunks are: the pool, then its restacked rows
        "eval": [eval_set(spec, 1, 25, seed), eval_set(spec, 2, 25, seed)],
    }


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", [0, 5])
def test_generator_columns_match_golden_digests(kind, seed):
    for output, chunks in generator_outputs(kind, seed).items():
        assert column_digest(chunks) == GOLDEN_COLUMNS[f"{kind}-{seed}-{output}"], output
    # a zero noise fraction hands every row through unchanged
    spec = build_scenario(kind, **GOLDEN_COLUMN_SPEC)
    assert column_digest(inject_noise(generate(spec, seed), 0.0, spec, seed)) == \
        GOLDEN_COLUMNS[f"{kind}-{seed}-stream"]


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    seed=st.integers(0, 2**32 - 1),
    samples_per_iteration=st.integers(1, 60),
    feature_dim=st.integers(1, 5),
    noise=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    per_class=st.integers(1, 8),
)
def test_generator_chunks_carry_the_pool_their_rows_stack_into(
        kind, seed, samples_per_iteration, feature_dim, noise, per_class):
    spec = build_scenario(kind, iterations=3, samples_per_iteration=samples_per_iteration,
                          feature_dim=feature_dim)
    chunks = [
        *generate(spec, seed),
        *inject_noise(generate(spec, seed), noise, spec, seed),
        eval_set(spec, 2, per_class, seed),
    ]
    for chunk in chunks:
        assert isinstance(chunk, SamplePool)
        carried = SamplePool.from_samples(chunk)
        assert carried is chunk
        stacked = SamplePool.from_samples(list(chunk))
        for f in fields(SamplePool):
            got, want = getattr(carried, f.name), getattr(stacked, f.name)
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f"), f.name
