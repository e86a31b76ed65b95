import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmem import BatchTable, DensityState, distance_matrix, kde
from covmem.density import kernel_table
from covmem.distances import distinct_rows
from covmem.errors import EmptyInput, LastBatch, NegativeTemperature, NonPositiveBandwidth
from covmem.selection import discard_probabilities, draw_index

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

    @pytest.mark.parametrize("bandwidth", [np.inf, -np.inf, np.nan])
    def test_non_finite_bandwidth(self, bandwidth):
        """An infinite bandwidth makes every density equal, so it is refused like zero."""
        with pytest.raises(NonPositiveBandwidth, match="positive and finite"):
            kde(np.zeros((1, 1)), bandwidth=bandwidth)
        with pytest.raises(NonPositiveBandwidth, match="positive and finite"):
            DensityState(kernel_table(np.zeros((1, 1)), bandwidth),
                         kernel_table(np.zeros((1, 1)), bandwidth))

    def test_empty(self):
        with pytest.raises(EmptyInput):
            kde(np.zeros((0, 0)), bandwidth=0.1)


def random_state(rng, n):
    """A DensityState over two random valid distance matrices."""
    def mat():
        pts = rng.uniform(0, 1, size=(n, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        return np.minimum(d, 1.0)
    bandwidth = float(rng.uniform(0.05, 0.5))
    return DensityState(kernel_table(mat(), bandwidth), kernel_table(mat(), bandwidth))


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
        assert not state.active_indices.flags.writeable  # handed out without a copy
        state.remove_batch(1)
        np.testing.assert_array_equal(state.active_indices, [1, 4])
        assert not state.active_indices.flags.writeable

    def test_rho_min_is_the_elementwise_min(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 6)
        np.testing.assert_allclose(
            state.rho_min, np.minimum(state.rho_pred, state.rho_out)
        )

    def test_refuses_to_empty_itself(self):
        state = DensityState(kernel_table(np.zeros((1, 1)), 0.1),
                             kernel_table(np.zeros((1, 1)), 0.1))
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
            DensityState(kernel_table(np.zeros((2, 2)), 0.1), kernel_table(np.zeros((3, 3)), 0.1))

    def test_fortran_ordered_matrix_gives_the_same_bits(self):
        """Row means of a Fortran-ordered table sum in the C-ordered table's order."""
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, size=(40, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        c_state = DensityState(kernel_table(d, 0.2), kernel_table(d, 0.2))
        f_state = DensityState(kernel_table(np.asfortranarray(d), 0.2),
                               kernel_table(np.asfortranarray(d), 0.2))
        assert c_state.rho_pred.tobytes() == kde(d, 0.2).tobytes()
        assert f_state.rho_pred.tobytes() == c_state.rho_pred.tobytes()
        assert f_state.rho_out.tobytes() == c_state.rho_out.tobytes()

    def test_kernel_table_equals_the_textbook_expression(self):
        """``exp(-0.5 * (s * s))`` in one array equals ``exp(-0.5 * s * s)`` bit for bit,
        and building it in the distances' own buffer gives the same bytes."""
        rng = np.random.default_rng(9)
        tiny = np.finfo(float).tiny
        d = np.concatenate([rng.uniform(0, 1, 2000), np.ldexp(1.0, np.arange(-1074, 1024, 3)),
                            [0.0, -0.0, tiny, 2 * tiny, np.finfo(float).max, np.inf]])
        with np.errstate(over="ignore"):
            for h in (0.05, 0.1, 0.3, 1e-160, 1e160):
                scaled = d / h
                want = np.exp(-0.5 * scaled * scaled).tobytes()
                assert kernel_table(d, h).tobytes() == want
                buffer = d.copy()
                assert kernel_table(buffer, h, out=buffer) is buffer
                assert buffer.tobytes() == want

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.inf, np.nan])
    def test_kernel_table_checks_the_bandwidth(self, bandwidth):
        d = np.zeros((2, 2))
        with pytest.raises(NonPositiveBandwidth, match="positive and finite"):
            kernel_table(d, bandwidth, out=d)
        assert not d.any()  # refused before the buffer is written

    def test_matrices_are_not_copied_on_removal(self):
        """Removal cost must not grow with matrix size via copying."""
        rng = np.random.default_rng(6)
        state = random_state(rng, 10)
        before_pred = state._kernel_pred
        state.remove_batch(4)
        assert state._kernel_pred is before_pred


def prediction_rows(rng, n, k, kind):
    if kind == "point_mass":
        return np.eye(k)[rng.integers(k, size=n)]
    if kind == "dense":
        return rng.dirichlet(np.ones(k), size=n)
    palette = np.vstack([rng.dirichlet(np.full(k, 0.5), size=3), np.eye(k)[:2]])
    return palette[rng.integers(len(palette), size=n)]


class TestTablesOverDistinctRows:
    """A state over distinct-row tables and types equals one over the full matrices."""

    @given(st.integers(1, 40), st.sampled_from([2, 3, 21]),
           st.sampled_from(["repeated", "point_mass", "dense"]),
           st.sampled_from([0.05, 0.1, 0.5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_table_state_equals_matrix_state(self, n, k, kind, bandwidth, seed):
        rng = np.random.default_rng(seed)
        batches = BatchTable(member_ids=np.arange(n), size=np.ones(n, dtype=np.int64),
                             pred_dist=prediction_rows(rng, n, k, kind),
                             out_bin=rng.integers(k, size=n), mean_features=np.zeros((n, 1)))
        tables, types, full = [], [], []
        for space in ("pred", "out"):
            first, space_types = distinct_rows(batches, space)
            assert np.all(np.diff(first) > 0)
            table = distance_matrix(batches.take(first), space)
            # the gathered table is the full matrix, bit for bit
            matrix = distance_matrix(batches, space)
            np.testing.assert_array_equal(np.take(table[space_types], space_types, axis=1),
                                          matrix)
            tables.append(table)
            types.append(space_types)
            full.append(matrix)
        from_tables = DensityState(*(kernel_table(t, bandwidth) for t in tables), *types)
        from_matrices = DensityState(*(kernel_table(m, bandwidth) for m in full))
        while True:
            for got, want in ((from_tables.rho_pred, from_matrices.rho_pred),
                              (from_tables.rho_out, from_matrices.rho_out),
                              (from_tables.active_indices, from_matrices.active_indices),
                              *zip(from_tables.recompute(), from_matrices.recompute())):
                np.testing.assert_array_equal(got, want)
            if from_tables.count == 1:
                break
            j = int(rng.integers(from_tables.count))
            from_tables.remove_batch(j)
            from_matrices.remove_batch(j)

    def test_types_must_index_the_table(self):
        with pytest.raises(ValueError):
            DensityState(kernel_table(np.zeros((2, 2)), 0.1), kernel_table(np.zeros((1, 1)), 0.1),
                         [0, 2], [0, 0])
        with pytest.raises(ValueError):
            DensityState(kernel_table(np.zeros((2, 2)), 0.1), kernel_table(np.zeros((1, 1)), 0.1),
                         [0, 1, 1], [0, 0])


def typed_state(rng, n):
    """A DensityState over distinct-row tables of repeated prediction rows."""
    batches = BatchTable(member_ids=np.arange(n), size=np.ones(n, dtype=np.int64),
                         pred_dist=prediction_rows(rng, n, 3, "repeated"),
                         out_bin=rng.integers(3, size=n), mean_features=np.zeros((n, 1)))
    tables, types = [], []
    for space in ("pred", "out"):
        first, space_types = distinct_rows(batches, space)
        tables.append(kernel_table(distance_matrix(batches.take(first), space), 0.1))
        types.append(space_types)
    return DensityState(*tables, *types)


class TestDraw:
    """``DensityState.draw`` is ``draw_index(discard_probabilities(rho_min, T))``, bit for bit."""

    @pytest.mark.parametrize("temperature", [0.0, 1e-3, 1e-2, 1.0, 1e9])
    @pytest.mark.parametrize("make", [random_state, typed_state], ids=["identity", "typed"])
    def test_matches_the_public_softmax_and_draw(self, make, temperature):
        for seed in range(4):
            state, twin = (make(np.random.default_rng(seed), 40) for _ in range(2))
            rng, ref_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            while state.count > 1:
                probs = discard_probabilities(state.rho_min, temperature)
                want = draw_index(probs, ref_rng)
                # the properties hand out fresh arrays: scribbling moves no draw
                for handed_out in (state.rho_min, state.rho_pred, state.rho_out):
                    handed_out.fill(np.nan)
                j, probability = state.draw(temperature, rng)
                assert j == want
                assert np.float64(probability).tobytes() == probs[j].tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                state.remove_batch(j)
                twin.remove_batch(j)
                assert state.rho_pred.tobytes() == twin.rho_pred.tobytes()
                assert state.rho_out.tobytes() == twin.rho_out.tobytes()

    def test_zero_temperature_takes_the_first_densest_and_one_uniform(self):
        d = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        state = DensityState(kernel_table(d, 0.1), kernel_table(np.zeros((3, 3)), 0.1))
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        assert state.draw(0.0, rng) == (0, 1.0)  # batches 0 and 2 tie
        ref_rng.random()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_negative_temperature(self):
        state = random_state(np.random.default_rng(0), 3)
        with pytest.raises(NegativeTemperature):
            state.draw(-1.0, np.random.default_rng(0))
