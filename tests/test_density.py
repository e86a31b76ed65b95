import numpy as np
import pytest

from covmem import DensityState, kde
from covmem.errors import EmptyInput, LastBatch, NonPositiveBandwidth

PEAK = 0.3989422804014327            # 1 / sqrt(2 pi)
PAIR_AT_ONE_SIGMA = 0.32045650246028806  # two points, d = h: (PEAK / 2) (1 + e^-0.5)


class TestKde:
    def test_single_point_hits_the_kernel_peak(self):
        got = kde(np.zeros((1, 1)), bandwidth=0.1)
        assert got[0] == pytest.approx(PEAK, abs=1e-15)

    def test_two_points_one_bandwidth_apart(self):
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        got = kde(d, bandwidth=0.1)
        np.testing.assert_allclose(got, PAIR_AT_ONE_SIGMA, atol=1e-15)

    def test_densities_stay_in_range(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(40, 1))
        d = np.abs(pts - pts.T)
        rho = kde(d, bandwidth=0.2)
        assert np.all(rho > 0)
        assert np.all(rho <= PEAK + 1e-15)

    def test_rectangular_evaluates_against_reference(self):
        # one query point, two references at distances 0.0 and 0.1
        d = np.array([[0.0, 0.1]])
        got = kde(d, bandwidth=0.1)
        assert got[0] == pytest.approx(PAIR_AT_ONE_SIGMA)

    def test_bad_bandwidth(self):
        with pytest.raises(NonPositiveBandwidth):
            kde(np.zeros((1, 1)), bandwidth=0.0)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            kde(np.zeros((0, 0)), bandwidth=0.1)


def random_state(rng, n):
    """A DensityState over two random valid distance matrices."""
    def mat():
        pts = rng.uniform(0, 1, size=(n, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        return np.minimum(d, 1.0)
    return DensityState(mat(), mat(), bandwidth=float(rng.uniform(0.05, 0.5)))


class TestDensityState:
    def test_initial_densities_match_kde(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 8)
        ref_pred, ref_out = state.recompute()
        np.testing.assert_allclose(state.rho_pred, ref_pred, atol=1e-12)
        np.testing.assert_allclose(state.rho_out, ref_out, atol=1e-12)

    def test_incremental_removal_tracks_recompute(self):
        """Exactness of the removal identity over many random sequences."""
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            state = random_state(rng, n)
            while state.count > 1:
                state.remove_batch(int(rng.integers(state.count)))
                ref_pred, ref_out = state.recompute()
                np.testing.assert_allclose(state.rho_pred, ref_pred, atol=1e-9)
                np.testing.assert_allclose(state.rho_out, ref_out, atol=1e-9)

    def test_active_indices_track_original_positions(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 5)
        state.remove_batch(2)
        np.testing.assert_array_equal(state.active_indices, [0, 1, 3, 4])
        state.remove_batch(0)
        np.testing.assert_array_equal(state.active_indices, [1, 3, 4])
        assert state.count == 3

    def test_rho_min_is_the_elementwise_min(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 6)
        np.testing.assert_allclose(
            state.rho_min, np.minimum(state.rho_pred, state.rho_out)
        )

    def test_refuses_to_empty_itself(self):
        state = DensityState(np.zeros((1, 1)), np.zeros((1, 1)), bandwidth=0.1)
        with pytest.raises(LastBatch):
            state.remove_batch(0)

    def test_out_of_range_index(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        with pytest.raises(IndexError):
            state.remove_batch(3)
        with pytest.raises(IndexError):
            state.remove_batch(-1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityState(np.zeros((2, 2)), np.zeros((3, 3)), bandwidth=0.1)

    def test_matrices_are_not_copied_on_removal(self):
        """Removal cost must not grow with matrix size via copying."""
        rng = np.random.default_rng(6)
        state = random_state(rng, 10)
        before_pred = state._d_pred
        state.remove_batch(4)
        assert state._d_pred is before_pred
