"""Distance-layer checks.

Reference values were computed independently (scipy's base-2
``jensenshannon`` plus hand-evaluated KL sums) and frozen here, so the
implementation is compared against numbers it did not produce.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import jensenshannon

from covmem import (
    Batch,
    cross_distance_matrix,
    distance_matrix,
    jsd,
    jsd_cross,
    jsd_pairwise,
    kl_divergence,
)
from covmem.errors import EmptyInput, LengthMismatch, UndefinedDivergence

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
        np.testing.assert_allclose(
            jsd_pairwise(rows, block=7), jsd_pairwise(rows, block=1000), atol=1e-14
        )

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
    """Both shortcuts give exactly the full-square entropy pass's numbers."""

    @given(st.integers(1, 40), st.integers(1, 24), st.integers(1, 50),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_equals_full_square_reference(self, n, k, block, share, seed):
        rows = mixed_rows(n, k, share, seed)
        assert np.array_equal(jsd_pairwise(rows, block=block), reference_jsd_pairwise(rows, block))

    @given(st.integers(1, 40), st.integers(1, 24), st.integers(1, 50), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_all_point_mass_pairwise_equals_full_square_reference(self, n, k, block, seed):
        rows = mixed_rows(n, k, 1.0, seed)
        got = jsd_pairwise(rows, block=block)
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
    def make_batches(self):
        rng = np.random.default_rng(9)
        return [
            Batch(
                sample_ids=np.array([i]),
                pred_dist=rng.dirichlet(np.ones(3)),
                out_dist=rng.dirichlet(np.ones(4)),
                mean_features=rng.normal(size=2),
            )
            for i in range(5)
        ]

    def test_spaces_pick_the_right_summary(self):
        batches = self.make_batches()
        pred = distance_matrix(batches, space="pred")
        out = distance_matrix(batches, space="out")
        assert pred[0, 1] == pytest.approx(jsd(batches[0].pred_dist, batches[1].pred_dist))
        assert out[0, 1] == pytest.approx(jsd(batches[0].out_dist, batches[1].out_dist))

    def test_euclidean_over_mean_features(self):
        batches = self.make_batches()
        mat = distance_matrix(batches, space="features", metric="euclidean")
        expect = np.linalg.norm(batches[0].mean_features - batches[2].mean_features)
        assert mat[0, 2] == pytest.approx(expect)
        assert_distance_matrix(mat)

    def test_cross_euclidean(self):
        batches = self.make_batches()
        mat = cross_distance_matrix(batches[:2], batches[2:], space="features", metric="euclidean")
        assert mat.shape == (2, 3)
        assert mat[1, 0] == pytest.approx(
            np.linalg.norm(batches[1].mean_features - batches[2].mean_features)
        )

    def test_unknown_space_or_metric(self):
        batches = self.make_batches()
        with pytest.raises(ValueError):
            distance_matrix(batches, space="bogus")
        with pytest.raises(ValueError):
            distance_matrix(batches, metric="bogus")

    def test_empty_batches(self):
        with pytest.raises(EmptyInput):
            distance_matrix([])

