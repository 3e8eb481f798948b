"""Tests for the six model-based reliability measures."""

import numpy as np
import numpy.testing as npt
import pytest

from avfusion.core import normalize_posteriors
from avfusion.model_reliability import (
    dispersion,
    dispersion_ratio,
    entropy,
    entropy_ratio,
    kl_divergence,
    posterior_difference,
    stream_measures,
    temporal_divergence,
)


def floored_rows(rng, t, s):
    return normalize_posteriors(rng.exponential(1.0, size=(t, s)) + 1e-6)


class TestEntropy:
    def test_uniform_is_log_s(self):
        npt.assert_allclose(entropy(np.full((1, 4), 0.25))[0], np.log(4),
                            rtol=1e-12)

    def test_one_hot_is_near_zero(self):
        row = normalize_posteriors(np.array([[1.0, 0.0, 0.0]]))
        assert entropy(row)[0] < 1e-6

    def test_hand_value(self):
        npt.assert_allclose(entropy(np.array([[0.7, 0.2, 0.1]]))[0],
                            0.8018185525433372, rtol=1e-12)

    def test_bounds_in_bulk(self):
        rng = np.random.default_rng(31)
        p = floored_rows(rng, 500, 12)
        h = entropy(p)
        assert np.all(h >= 0)
        assert np.all(h <= np.log(12) + 1e-12)


class TestDispersion:
    def test_uniform_row_is_zero(self):
        npt.assert_allclose(dispersion(np.full((1, 6), 1 / 6), k=4), 0.0,
                            atol=1e-12)

    def test_hand_value_k2(self):
        val = dispersion(np.array([0.5, 0.3, 0.2]), k=2)
        npt.assert_allclose(val, 0.5108256237659907, rtol=1e-12)

    def test_hand_value_k3(self):
        val = dispersion(np.array([0.5, 0.3, 0.2]), k=3)
        npt.assert_allclose(val, 0.6108604879161034, rtol=1e-12)

    def test_matches_pairwise_double_sum(self):
        rng = np.random.default_rng(40)
        p = floored_rows(rng, 80, 20)
        for k in (2, 5, 15, 20):
            got = dispersion(p, k=k)
            top = np.sort(p, axis=1)[:, ::-1][:, :k]
            want = np.zeros(80)
            for l in range(k):
                for m in range(l + 1, k):
                    want += np.log(top[:, l] / top[:, m])
            want *= 2.0 / (k * (k - 1))
            npt.assert_allclose(got, want, rtol=1e-10)

    def test_k_clamped_to_state_count(self):
        p = np.array([[0.5, 0.3, 0.2]])
        npt.assert_allclose(dispersion(p, k=15), dispersion(p, k=3))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(41)
        p = floored_rows(rng, 20, 8)
        shuffled = p[:, rng.permutation(8)]
        npt.assert_allclose(dispersion(shuffled, k=5), dispersion(p, k=5),
                            rtol=1e-12)

    def test_rejects_degenerate_k(self):
        with pytest.raises(ValueError, match="K >= 2"):
            dispersion(np.array([[1.0]]), k=15)


class TestPosteriorDifference:
    def test_uniform_row_is_zero(self):
        npt.assert_allclose(posterior_difference(np.full((1, 5), 0.2), k=3),
                            0.0, atol=1e-12)

    def test_hand_value_k3(self):
        val = posterior_difference(np.array([0.5, 0.3, 0.2]), k=3)
        npt.assert_allclose(val, 0.7135581778200729, rtol=1e-12)

    def test_one_hot_floored_dominated_by_floor(self):
        row = normalize_posteriors(np.array([[1.0, 0.0, 0.0]]))
        val = posterior_difference(row, k=3)
        expected = np.mean(np.log(row[0, 0] / np.sort(row[0])[:2]))
        npt.assert_allclose(val, expected, rtol=1e-12)
        assert val > 15  # log(1/1e-8) territory

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        p = floored_rows(rng, 60, 10)
        for k in (2, 7, 10):
            top = np.sort(p, axis=1)[:, ::-1][:, :k]
            want = np.mean(np.log(top[:, :1] / top[:, 1:]), axis=1)
            npt.assert_allclose(posterior_difference(p, k=k), want, rtol=1e-10)

    def test_nonnegative_and_permutation_invariant(self):
        rng = np.random.default_rng(43)
        p = floored_rows(rng, 200, 9)
        d = posterior_difference(p, k=9)
        assert np.all(d >= 0)
        npt.assert_allclose(posterior_difference(p[:, ::-1], k=9), d,
                            rtol=1e-12)


class TestTemporalDivergence:
    def test_static_sequence_is_zero(self):
        p = np.tile(normalize_posteriors(np.array([[0.6, 0.3, 0.1]])), (40, 1))
        npt.assert_allclose(temporal_divergence(p), 0.0, atol=1e-12)

    def test_kl_hand_value(self):
        val = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        npt.assert_allclose(val, 0.14384103622589042, rtol=1e-12)

    def test_nonnegative_on_random_sequences(self):
        rng = np.random.default_rng(50)
        p = floored_rows(rng, 120, 6)
        div = temporal_divergence(p)
        assert div.shape == (120,)
        assert np.all(div >= -1e-15)

    def test_pooled_over_five_frame_segments(self):
        rng = np.random.default_rng(51)
        p = floored_rows(rng, 60, 4)
        div = temporal_divergence(p, frame_shift=0.01)
        raw = kl_divergence(p[:35], p[25:])
        full = np.concatenate([raw, np.full(25, raw[-1])])
        for start in range(0, 60, 5):
            seg = slice(start, min(start + 5, 60))
            npt.assert_allclose(div[seg], full[seg].mean(), rtol=1e-10)

    @pytest.mark.parametrize("lag,window", [(25, 5), (3, 7)])
    @pytest.mark.parametrize("t_total", [26, 30, 60, 63, 101])
    def test_matches_per_window_loop(self, t_total, lag, window):
        # the pooling as it stood before it was reshaped: one mean per window
        p = floored_rows(np.random.default_rng(t_total), t_total, 7)
        div = np.empty(t_total)
        valid = t_total - lag
        div[:valid] = kl_divergence(p[:valid], p[lag:])
        div[valid:] = div[valid - 1]
        want = np.empty_like(div)
        for start in range(0, t_total, window):
            seg = slice(start, min(start + window, t_total))
            want[seg] = div[seg].mean()
        got = temporal_divergence(p, lag_s=lag * 0.01, window_s=window * 0.01)
        npt.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_short_sequence_warns_and_zeroes(self):
        p = floored_rows(np.random.default_rng(52), 10, 4)
        with pytest.warns(UserWarning, match="frames apart"):
            div = temporal_divergence(p)
        npt.assert_array_equal(div, np.zeros(10))

    def test_kl_zero_iff_equal(self):
        rng = np.random.default_rng(53)
        p = floored_rows(rng, 30, 5)
        npt.assert_allclose(kl_divergence(p, p), 0.0, atol=1e-14)
        q = floored_rows(rng, 30, 5)
        mask = np.max(np.abs(p - q), axis=1) > 1e-3
        assert np.all(kl_divergence(p, q)[mask] > 0)


class TestRatios:
    def test_entropy_ratio_hand_values(self):
        om = entropy_ratio(np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(om, np.array([1.0, 2.0, 10000.0]) / 10003.0,
                            rtol=1e-12)

    def test_entropy_ratio_equal_entropies(self):
        npt.assert_allclose(entropy_ratio(np.array([1.5, 1.5, 1.5])),
                            np.full(3, 1 / 3), rtol=1e-12)

    def test_entropy_ratio_zero_zero_three(self):
        om = entropy_ratio(np.array([0.0, 0.0, 3.0]))
        npt.assert_allclose(om, [0.0, 0.0, 1.0], atol=1e-12)

    def test_dispersion_ratio_hand_values(self):
        om = dispersion_ratio(np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(om, np.array([1e-4, 2.0, 3.0]) / 5.0001,
                            rtol=1e-12)

    def test_dispersion_ratio_equal_values(self):
        npt.assert_allclose(dispersion_ratio(np.array([2.0, 2.0, 2.0])),
                            np.full(3, 1 / 3), rtol=1e-12)

    def test_dispersion_ratio_five_zero_zero(self):
        om = dispersion_ratio(np.array([5.0, 0.0, 0.0]))
        npt.assert_allclose(om, np.array([5.0, 1e-4, 1e-4]) / 5.0002,
                            rtol=1e-12)

    def test_rows_sum_to_one_in_bulk(self):
        rng = np.random.default_rng(60)
        ent = rng.uniform(0.0, 3.0, size=(300, 3))
        disp = rng.uniform(0.0, 5.0, size=(300, 3))
        for om in (entropy_ratio(ent), dispersion_ratio(disp)):
            assert np.all(om >= 0)
            npt.assert_allclose(om.sum(axis=1), 1.0, rtol=1e-12)


class TestStreamMeasures:
    def test_keys_and_shapes(self):
        rng = np.random.default_rng(70)
        p = floored_rows(rng, 40, 6)
        out = stream_measures(p)
        assert sorted(out) == ["dispersion", "entropy", "posterior_difference",
                               "temporal_divergence"]
        for v in out.values():
            assert v.shape == (40,)
