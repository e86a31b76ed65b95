"""Distance-layer checks.

Reference values were computed independently (scipy's base-2
``jensenshannon`` plus hand-evaluated KL sums) and frozen here, so the
implementation is compared against numbers it did not produce.
"""
import dataclasses
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import jensenshannon

from covmem import (
    BatchTable,
    cross_distance_matrix,
    distance_matrix,
    jsd,
    jsd_cross,
    jsd_pairwise,
    kl_divergence,
)
from covmem import distances
from covmem.distances import (
    _SCRATCH,
    _euclidean,
    _halves_exactly,
    _plane_sum,
    distinct_rows,
)
from covmem.errors import EmptyInput, LengthMismatch, UndefinedDivergence


def rows_per_block(rows, cols, k):
    """Shrink the scratch budget so a block of ``cols`` columns holds ``rows`` rows."""
    return patch.object(distances, "_SCRATCH", rows * cols * k)


def assert_distance_matrix(mat):
    """Exactly symmetric, zero on the diagonal, non-negative."""
    np.testing.assert_array_equal(mat, mat.T)
    np.testing.assert_array_equal(np.diagonal(mat), 0.0)
    assert (mat >= 0).all()


# Frozen reference values.
KL_HALF_VS_THREEQUARTER = 0.2075187496394219   # 0.5*log2(0.5/0.75) + 0.5*log2(0.5/0.25)
JSD_UNIFORM_VS_POINT = 0.5579230452841438      # sqrt of half the binary entropy gap


class TestKL:
    def test_frozen_value(self):
        got = kl_divergence([0.5, 0.5], [0.75, 0.25])
        assert got == pytest.approx(KL_HALF_VS_THREEQUARTER, abs=1e-15)

    def test_identical_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_zero_p_terms_drop_out(self):
        # KL([1,0] || [0.5,0.5]) = log2(2) = 1 bit
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_undefined_when_q_lacks_support(self):
        with pytest.raises(UndefinedDivergence):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_asymmetry(self):
        a = kl_divergence([0.9, 0.1], [0.5, 0.5])
        b = kl_divergence([0.5, 0.5], [0.9, 0.1])
        assert a != pytest.approx(b)


class TestJSDScalar:
    def test_frozen_value(self):
        assert jsd([0.5, 0.5], [1.0, 0.0]) == pytest.approx(JSD_UNIFORM_VS_POINT, abs=1e-15)

    def test_disjoint_support_is_one(self):
        assert jsd([1.0, 0.0, 0.0], [0.0, 0.4, 0.6]) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        assert jsd([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 40))
            p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            q = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            assert jsd(p, q) == pytest.approx(jensenshannon(p, q, base=2), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            jsd([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            jsd([], [])


class TestJSDMatrixPaths:
    """The blocked entropy-identity path must agree with the scalar one."""

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(7), size=23)
        mat = jsd_pairwise(rows)
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i == j:
                    assert mat[i, j] == 0.0
                else:
                    assert mat[i, j] == pytest.approx(jsd(rows[i], rows[j]), abs=1e-12)

    def test_blocking_does_not_change_results(self):
        rng = np.random.default_rng(6)
        rows = rng.dirichlet(np.ones(4), size=40)
        with rows_per_block(7, 40, 4):
            blocked = jsd_pairwise(rows)
        assert np.array_equal(blocked, jsd_pairwise(rows))

    def test_cross_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.dirichlet(np.ones(5), size=9)
        b = rng.dirichlet(np.ones(5), size=13)
        mat = jsd_cross(a, b)
        assert mat.shape == (9, 13)
        for i in (0, 4, 8):
            for j in (0, 6, 12):
                assert mat[i, j] == pytest.approx(jsd(a[i], b[j]), abs=1e-12)

    def test_pairwise_validates(self):
        rng = np.random.default_rng(8)
        rows = rng.dirichlet(np.ones(3), size=12)
        assert_distance_matrix(jsd_pairwise(rows))

    def test_cross_bin_mismatch(self):
        with pytest.raises(LengthMismatch):
            jsd_cross(np.ones((2, 3)) / 3, np.ones((2, 4)) / 4)

    def test_no_rows_is_empty_input(self):
        rows, empty = np.ones((2, 3)) / 3, np.empty((0, 3))
        for call in (lambda: jsd_pairwise(empty), lambda: jsd_cross(empty, rows),
                     lambda: jsd_cross(rows, empty)):
            with pytest.raises(EmptyInput):
                call()


def _reference_entropy_rows(rows):
    safe = np.where(rows > 0, rows, 1.0)
    return -(safe * np.log(safe)).sum(axis=-1) / np.log(2.0)


def reference_jsd_pairwise(rows, block=256):
    """The full-square blocked pass, symmetrised afterwards."""
    n = rows.shape[0]
    ent = _reference_entropy_rows(rows)
    out = np.empty((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        mix = 0.5 * (rows[start:stop, None, :] + rows[None, :, :])
        div = _reference_entropy_rows(mix) - 0.5 * (ent[start:stop, None] + ent[None, :])
        out[start:stop] = np.sqrt(np.maximum(div, 0.0))
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 0.0)
    return out


def reference_jsd_cross(rows_a, rows_b):
    """The entropy-identity pass over every pair of rows."""
    ent_a, ent_b = _reference_entropy_rows(rows_a), _reference_entropy_rows(rows_b)
    mix = 0.5 * (rows_a[:, None, :] + rows_b[None, :, :])
    div = _reference_entropy_rows(mix) - 0.5 * (ent_a[:, None] + ent_b[None, :])
    return np.sqrt(np.maximum(div, 0.0))


def mixed_rows(n, k, point_mass_share, seed):
    """Dirichlet rows of which about ``point_mass_share`` are one-hot."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(k) * 0.7, size=n)
    one_hot = rng.random(n) < point_mass_share
    rows[one_hot] = np.eye(k)[rng.integers(0, k, size=int(one_hot.sum()))]
    return rows


class TestHalfMatrixAndPointMassPaths:
    """The half matrix gives exactly the full-square entropy pass's numbers.

    Point-mass rows have no shortcut of their own: they take the entropy
    path, which gives them the bin comparison's 0s and 1s bit for bit.
    """

    @given(st.integers(1, 40), st.integers(1, 24), st.integers(1, 50),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_equals_full_square_reference(self, n, k, block, share, seed):
        rows = mixed_rows(n, k, share, seed)
        with rows_per_block(block, n, k):
            got = jsd_pairwise(rows)
        assert np.array_equal(got, reference_jsd_pairwise(rows, block))

    @given(st.integers(1, 40), st.integers(1, 24), st.integers(1, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_all_point_mass_pairwise_equals_full_square_reference(self, n, k, block, seed):
        rows = mixed_rows(n, k, 1.0, seed)
        with rows_per_block(block, n, k):
            got = jsd_pairwise(rows)
        assert np.array_equal(got, reference_jsd_pairwise(rows, block))
        assert set(np.unique(got)) <= {0.0, 1.0}

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_point_mass_cross_equals_entropy_path(self, n_a, n_b, k, seed):
        rows_a = mixed_rows(n_a, k, 1.0, seed)
        rows_b = mixed_rows(n_b, k, 1.0, seed + 1)
        assert np.array_equal(jsd_cross(rows_a, rows_b), reference_jsd_cross(rows_a, rows_b))

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(2, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mixed_cross_keeps_the_entropy_path(self, n_a, n_b, k, seed):
        rows_a = mixed_rows(n_a, k, 1.0, seed)
        rows_b = mixed_rows(n_b, k, 0.0, seed + 1)
        assert np.array_equal(jsd_cross(rows_a, rows_b), reference_jsd_cross(rows_a, rows_b))

    def test_scaled_one_hot_is_not_a_point_mass(self):
        rows = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(jsd_pairwise(rows), reference_jsd_pairwise(rows))


class TestPlaneSum:
    """The bin-major entropy sum adds in numpy's pairwise ``sum(axis=-1)`` order."""

    @staticmethod
    def values(rng, kind, shape):
        if kind == "dense":
            return rng.normal(size=shape) * np.exp(rng.normal(scale=10.0, size=shape))
        if kind == "zeros":
            x = rng.normal(size=shape)
            x[rng.random(shape) < 0.5] = 0.0
            return x
        if kind == "subnormal":
            # subnormals and the normal numbers just above them
            x = np.ldexp(rng.uniform(-1.0, 1.0, size=shape), rng.integers(-1080, -1010, size=shape))
            x[rng.random(shape) < 0.2] = np.finfo(float).tiny
            return x
        # signed zeros only: the sum's sign shows the reduction's initial value
        return np.where(rng.random(shape) < 0.7, -0.0, 0.0)

    @pytest.mark.parametrize("kind", ["dense", "zeros", "subnormal", "signed_zeros"])
    def test_equals_add_reduce_byte_for_byte(self, kind):
        rng = np.random.default_rng(["dense", "zeros", "subnormal", "signed_zeros"].index(kind))
        for k in range(1, 301):
            for shape in ((3, 5, k), (1, 1, k), (4, k)):
                x = self.values(rng, kind, shape)
                want = np.add.reduce(x, axis=-1)
                got = _plane_sum(np.ascontiguousarray(np.moveaxis(x, -1, 0)))
                assert got.tobytes() == want.tobytes(), (kind, k, shape)

    def test_all_negative_zeros_sum_to_positive_zero(self):
        planes = np.full((21, 2, 3), -0.0)
        assert not np.signbit(_plane_sum(planes)).any()


def rows_of_kind(kind, n, k, seed):
    """Distribution rows that take one branch of the bin-major kernel.

    ``positive`` rows skip the log mask and are halved up front;
    ``subnormal`` rows are positive but hold a subnormal entry, so they
    skip the mask and are not halved; ``zeros`` rows hold zeros, so the
    mask stays and they are halved; ``mixed`` stacks all three.
    """
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(k) * 2.0, size=n)
    if kind in ("positive", "subnormal"):
        rows = np.maximum(rows, 1e-12)
    if kind == "subnormal":
        rows[np.arange(n), rng.integers(k, size=n)] = 5e-321
    if kind == "zeros":
        rows[rng.random(rows.shape) < 0.3] = 0.0
    if kind == "mixed":
        parts = [rows_of_kind(part, n, k, seed + i) for i, part in
                 enumerate(("positive", "subnormal", "zeros"))]
        rows = np.vstack(parts)[rng.permutation(3 * n)][:n]
    return rows


class TestBinMajorBranches:
    """Every branch of the bin-major kernel equals the row-major reference bit for bit."""

    kinds = st.sampled_from(["positive", "subnormal", "zeros", "mixed"])

    @given(st.integers(1, 30), st.integers(1, 64), st.integers(1, 40), kinds,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_pairwise_equals_full_square_reference(self, n, k, block, kind, seed):
        rows = rows_of_kind(kind, n, k, seed)
        with rows_per_block(block, n, k):
            got = jsd_pairwise(rows)
        assert np.array_equal(got, reference_jsd_pairwise(rows, block))

    @given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 64), kinds, kinds,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_cross_equals_reference(self, n_a, n_b, k, kind_a, kind_b, seed):
        rows_a = rows_of_kind(kind_a, n_a, k, seed)
        rows_b = rows_of_kind(kind_b, n_b, k, seed + 7)
        assert np.array_equal(jsd_cross(rows_a, rows_b), reference_jsd_cross(rows_a, rows_b))

    def test_kinds_reach_their_branches(self):
        for kind, positive, halved in (("positive", True, True), ("subnormal", True, False),
                                       ("zeros", False, True)):
            rows = rows_of_kind(kind, 50, 21, 3)
            assert bool(np.all(rows > 0)) == positive, kind
            assert _halves_exactly(rows) == halved, kind

    def test_halving_needs_magnitudes_between_twice_tiny_and_half_max(self):
        tiny, top = np.finfo(float).tiny, np.finfo(float).max
        assert _halves_exactly(np.array([[0.0, -0.0, 2 * tiny, 1.0, -3.0, top / 2]]))
        for bad in (tiny, 1.5 * tiny, 5e-324, top, np.inf, np.nan):
            assert not _halves_exactly(np.array([[0.5, bad]])), bad


class TestCacheSizedBlocks:
    """The budget-derived block size gives exactly the single-block numbers."""

    @given(st.integers(300, 700), st.integers(1, 120), st.floats(0.0, 0.5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_default_block_equals_one_block(self, n, m, zero_share, seed):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(21) * 0.7, size=n)
        rows[rng.random(rows.shape) < zero_share] = 0.0  # sparse rows
        rows /= np.maximum(rows.sum(axis=1, keepdims=True), 1e-300)
        other = rng.dirichlet(np.ones(21), size=m)
        assert _SCRATCH // (n * 21) < n  # several blocks
        features = rng.normal(size=(n, 21))
        calls = (lambda: jsd_pairwise(rows), lambda: jsd_cross(rows, other),
                 lambda: jsd_cross(other, rows), lambda: _euclidean(features),
                 lambda: _euclidean(features, features[:m]))
        with rows_per_block(n, n, 21):  # every call in one block
            one_block = [call() for call in calls]
        for call, want in zip(calls, one_block):
            assert np.array_equal(call(), want)

    def test_zero_width_features_are_at_distance_zero(self):
        features = np.zeros((5, 0))
        assert np.array_equal(_euclidean(features), np.zeros((5, 5)))
        assert np.array_equal(_euclidean(features, features[:2]), np.zeros((5, 2)))

    def test_scratch_stays_within_budget(self):
        """Peak allocation is the output plus a few scratch budgets, at any n."""
        n, k = 2000, 21
        rng = np.random.default_rng(11)
        rows = rng.dirichlet(np.ones(k) * 0.7, size=n)
        other = rng.dirichlet(np.ones(k) * 0.7, size=n)
        bound = 8 * n * n + 4 * 8 * _SCRATCH
        for call in (lambda: jsd_pairwise(rows), lambda: jsd_cross(rows, other)):
            tracemalloc.start()
            try:
                out = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == (n, n)
            assert peak < bound, f"peak {peak / 2**20:.1f} MiB over {bound / 2**20:.1f} MiB"

    def test_jsd_blocks_allocate_only_their_scratch(self):
        """Beside its output, a JSD call holds its two scratch arrays and small per-row
        arrays: the mean row entropy is built in the block's own scratch."""
        rows = np.random.default_rng(12).dirichlet(np.ones(2), size=700)
        for call in (lambda: jsd_pairwise(rows), lambda: jsd_cross(rows, rows[:350])):
            tracemalloc.start()
            try:
                out = call()
                above = tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()
            assert above < 1.3 * 2**20, f"peak {above / 2**20:.2f} MiB above the output"


def dirichlet_rows(k, n):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).dirichlet(np.ones(k) * 0.7, size=n)
    )


class TestMetricProperties:
    @given(dirichlet_rows(5, 3))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_identity_range_triangle(self, rows):
        p, q, r = rows
        d_pq, d_qp = jsd(p, q), jsd(q, p)
        assert abs(d_pq - d_qp) <= 1e-12
        assert 0.0 <= d_pq <= 1.0
        assert jsd(p, p) <= 1e-9
        assert jsd(p, r) <= d_pq + jsd(q, r) + 1e-9


class TestBatchSpaces:
    def make_batches(self, seed=9, n=5, k_out=4):
        rng = np.random.default_rng(seed)
        return BatchTable(
            member_ids=np.arange(n),
            size=np.ones(n, dtype=np.int64),
            pred_dist=rng.dirichlet(np.ones(3), size=n),
            out_bin=rng.integers(k_out, size=n),
            mean_features=rng.normal(size=(n, 2)),
        )

    def test_spaces_pick_the_right_summary(self):
        batches = self.make_batches()
        out_dist = np.eye(4)[batches.out_bin]
        pred = distance_matrix(batches, space="pred")
        out = distance_matrix(batches, space="out")
        assert pred[0, 1] == pytest.approx(jsd(batches.pred_dist[0], batches.pred_dist[1]))
        assert out[0, 1] == pytest.approx(jsd(out_dist[0], out_dist[1]))

    @pytest.mark.parametrize("seed,n,k_out", [(0, 1, 1), (1, 7, 2), (2, 40, 3), (3, 120, 21)])
    def test_out_space_equals_jsd_of_one_hot_rows(self, seed, n, k_out):
        a = self.make_batches(seed, n, k_out)
        b = self.make_batches(seed + 100, n + 3, k_out)
        one_hot_a, one_hot_b = np.eye(k_out)[a.out_bin], np.eye(k_out)[b.out_bin]
        np.testing.assert_array_equal(distance_matrix(a, "out"), jsd_pairwise(one_hot_a))
        np.testing.assert_array_equal(cross_distance_matrix(a, b, "out"),
                                      jsd_cross(one_hot_a, one_hot_b))

    def test_euclidean_over_mean_features(self):
        batches = self.make_batches()
        mat = distance_matrix(batches, space="features")
        expect = np.linalg.norm(batches.mean_features[0] - batches.mean_features[2])
        assert mat[0, 2] == pytest.approx(expect)
        assert_distance_matrix(mat)

    def test_cross_euclidean(self):
        batches = self.make_batches()
        mat = cross_distance_matrix(batches.take([0, 1]), batches.take([2, 3, 4]),
                                    space="features")
        assert mat.shape == (2, 3)
        assert mat[1, 0] == pytest.approx(
            np.linalg.norm(batches.mean_features[1] - batches.mean_features[2])
        )

    def test_features_space_is_the_euclidean_kernel_bit_for_bit(self):
        batches = self.make_batches(n=40)
        want = _euclidean(batches.mean_features)
        assert distance_matrix(batches, "features").tobytes() == want.tobytes()
        other = self.make_batches(seed=10, n=7)
        want = _euclidean(batches.mean_features, other.mean_features)
        assert cross_distance_matrix(batches, other, "features").tobytes() == want.tobytes()

    def test_unknown_space(self):
        batches = self.make_batches()
        with pytest.raises(ValueError):
            distance_matrix(batches, space="bogus")

    def test_empty_batches(self):
        with pytest.raises(EmptyInput):
            distance_matrix([])

    @pytest.mark.parametrize("space, column", [("pred", "pred_dist"),
                                               ("features", "mean_features")])
    def test_cross_tables_of_different_widths_are_refused(self, space, column):
        batches = self.make_batches()
        # width 1 broadcasts against any other width, so it must be caught by name
        narrow = dataclasses.replace(batches, **{column: getattr(batches, column)[:, :1]})
        for a, b in ((batches, narrow), (narrow, batches)):
            with pytest.raises(LengthMismatch, match=f"{space} rows differ in width"):
                cross_distance_matrix(a, b, space)


    def test_distinct_rows_merge_only_equal_rows_in_first_occurrence_order(self):
        batches = BatchTable(
            member_ids=np.arange(6),
            size=np.ones(6, dtype=np.int64),
            pred_dist=np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0],
                                [0.5, 0.5]]),
            out_bin=np.array([3, 1, 3, 0, 1, 1]),
            # -0.0 equals 0.0 as a value but not as bytes, so it stays its own row
            mean_features=np.array([[0.0], [-0.0], [0.0], [1.0], [0.0], [-0.0]]),
        )
        for space, first, types in [
            ("pred", [0, 1, 3], [0, 1, 0, 2, 1, 0]),
            ("out", [0, 1, 3], [0, 1, 0, 2, 1, 1]),
            ("features", [0, 1, 3], [0, 1, 0, 2, 0, 1]),
        ]:
            got_first, got_types = distinct_rows(batches, space)
            np.testing.assert_array_equal(got_first, first)
            np.testing.assert_array_equal(got_types, types)
