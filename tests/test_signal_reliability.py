"""Tests for audio/video signal reliability features and the vector layout."""

import numpy as np
import numpy.testing as npt
import pytest

from avfusion.corpus import WorldConfig, build_world, mix_noise, sample_utterance
from avfusion.signal_reliability import (
    FRAME_LEN,
    FRAME_SHIFT,
    SAMPLE_RATE,
    SNR_CAP_DB,
    ReliabilityLayout,
    N_FFT,
    assemble_reliability_vector,
    dct2,
    dct_matrix,
    delta,
    estimate_frame_snr,
    frame_snr,
    idct_features,
    image_distortion,
    mel_filterbank,
    mfcc_frames,
    num_frames,
    pitch_nccf,
    snr_db_from_energies,
    zigzag_indices,
)


class TestFraming:
    def test_frame_count_arithmetic(self):
        assert num_frames(FRAME_LEN) == 1
        assert num_frames(FRAME_LEN + FRAME_SHIFT) == 2
        assert num_frames(16000) == 1 + (16000 - FRAME_LEN) // FRAME_SHIFT

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            num_frames(FRAME_LEN - 1)


class TestMfcc:
    def test_silence_gives_constant_frames(self):
        feats = mfcc_frames(np.zeros(SAMPLE_RATE // 2))
        assert feats.shape[1] == 5
        npt.assert_allclose(feats, np.tile(feats[0], (feats.shape[0], 1)),
                            atol=1e-12)

    def test_tone_energy_above_silence(self):
        t = np.arange(SAMPLE_RATE // 2) / SAMPLE_RATE
        tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        c0_tone = mfcc_frames(tone)[5:-5, 0]
        c0_silence = mfcc_frames(np.zeros(SAMPLE_RATE // 2))[0, 0]
        assert np.all(c0_tone > c0_silence + 10.0)

    def test_shift_by_one_frame_shifts_features(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(SAMPLE_RATE // 4)
        base = mfcc_frames(x)
        shifted = mfcc_frames(np.concatenate([np.zeros(FRAME_SHIFT), x]))
        # interior frames of the shifted signal reproduce the original
        npt.assert_allclose(shifted[2:base.shape[0]], base[1:-1], atol=1e-9)


class TestDelta:
    def test_constant_sequence_is_zero(self):
        npt.assert_allclose(delta(np.full((8, 3), 2.5)), 0.0, atol=1e-14)

    def test_linear_ramp_gives_slope(self):
        ramp = 0.7 * np.arange(10.0)
        npt.assert_allclose(delta(ramp)[2:-2], 0.7, rtol=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(13)
        f = rng.standard_normal(5)
        window = 2
        want = np.zeros(5)
        for t in range(5):
            ns = np.arange(-window, window + 1)
            ys = f[np.clip(t + ns, 0, 4)]
            want[t] = np.polyfit(ns, ys, 1)[0]
        npt.assert_allclose(delta(f, window), want, atol=1e-12)

    def test_matrix_input_per_column(self):
        rng = np.random.default_rng(14)
        f = rng.standard_normal((20, 4))
        out = delta(f)
        for d in range(4):
            npt.assert_allclose(out[:, d], delta(f[:, d]), atol=1e-14)


class TestSnr:
    def test_equal_energies_give_zero_db(self):
        npt.assert_allclose(snr_db_from_energies(np.ones(4), np.ones(4)), 0.0,
                            atol=1e-12)

    def test_ten_times_power_gives_ten_db(self):
        npt.assert_allclose(snr_db_from_energies(np.array([10.0]),
                                                 np.array([1.0])),
                            10.0, atol=1e-12)

    def test_caps_at_forty_db(self):
        val = snr_db_from_energies(np.array([1.0]), np.array([0.0]))
        npt.assert_allclose(val, SNR_CAP_DB, atol=1e-12)
        val = snr_db_from_energies(np.array([0.0]), np.array([1.0]))
        npt.assert_allclose(val, -SNR_CAP_DB, atol=1e-12)

    def test_clean_utterance_pinned_at_cap(self):
        world = build_world(WorldConfig(vocab_size=3), seed=0)
        utt = sample_utterance(world, 2, seed=5)
        npt.assert_array_equal(frame_snr(utt), SNR_CAP_DB)

    def test_mixed_utterance_matches_energy_ratio(self):
        world = build_world(WorldConfig(vocab_size=3), seed=0)
        utt = mix_noise(sample_utterance(world, 2, seed=6), "white", 0.0, seed=1)
        track = frame_snr(utt)
        idx = np.arange(FRAME_LEN)[None, :] + FRAME_SHIFT * np.arange(len(track))[:, None]
        s = np.sum(utt.audio_clean[idx] ** 2, axis=1)
        n = np.sum(utt.noise_component[idx] ** 2, axis=1)
        npt.assert_allclose(track, np.clip(10 * np.log10(s / n), -40, 40),
                            atol=1e-9)

    def test_estimator_tracks_oracle_on_white_noise(self):
        world = build_world(WorldConfig(vocab_size=3), seed=1)
        diffs = []
        for seed in range(4):
            utt = mix_noise(sample_utterance(world, 3, seed=seed), "white",
                            3.0, seed=seed)
            _, voicing = pitch_nccf(utt.audio_clean)
            voiced = voicing >= 0.5
            est = estimate_frame_snr(utt.audio)[voiced]
            oracle = frame_snr(utt)[voiced]
            diffs.append(est.mean() - oracle.mean())
        assert abs(np.mean(diffs)) < 1.5

    def test_estimator_monotone_in_true_snr(self):
        from scipy.stats import spearmanr

        world = build_world(WorldConfig(vocab_size=3), seed=2)
        grid = [-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 9.0]
        means = []
        for snr in grid:
            vals = []
            for seed in range(5):
                utt = mix_noise(sample_utterance(world, 2, seed=seed), "white",
                                snr, seed=seed + 100)
                vals.append(estimate_frame_snr(utt.audio).mean())
            means.append(np.mean(vals))
        rho = spearmanr(grid, means).statistic
        assert rho >= 0.9


class TestPitch:
    def test_sawtooth_pitch_within_one_percent(self):
        n = SAMPLE_RATE  # one second
        t = np.arange(n) / SAMPLE_RATE
        saw = 2.0 * (t * 100.0 - np.floor(t * 100.0 + 0.5))
        f0, voicing = pitch_nccf(saw)
        voiced = f0 > 0
        assert voiced.mean() > 0.9
        npt.assert_allclose(np.median(f0[voiced]), 100.0, rtol=0.01)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(15)
        noise = rng.standard_normal(SAMPLE_RATE // 2)
        _, voicing = pitch_nccf(noise)
        assert np.mean(voicing < 0.5) >= 0.9

    def test_silence_reports_zero(self):
        f0, voicing = pitch_nccf(np.zeros(SAMPLE_RATE // 4))
        npt.assert_array_equal(f0, 0.0)
        npt.assert_array_equal(voicing, 0.0)

    def test_voicing_always_in_unit_interval(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            x = rng.standard_normal(SAMPLE_RATE // 5) * rng.uniform(0.01, 2.0)
            _, voicing = pitch_nccf(x)
            assert np.all(voicing >= 0.0)
            assert np.all(voicing <= 1.0)


class TestCachedMatrices:
    """dct_matrix and mel_filterbank are memoised and shared read-only."""

    def test_dct_matrix_is_the_formula_and_read_only(self):
        for n in (23, 32):
            k = np.arange(n)[:, None]
            m = np.arange(n)[None, :]
            want = np.cos(np.pi * k * (2 * m + 1) / (2 * n)) * np.sqrt(2.0 / n)
            want[0] /= np.sqrt(2.0)
            got = dct_matrix(n)
            assert dct_matrix(n) is got
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0, 0] = 0.0

    def test_mel_filterbank_is_the_formula_and_read_only(self):
        n_mels = 23
        mel = np.linspace(0.0, 2595.0 * np.log10(1.0 + SAMPLE_RATE / 2.0 / 700.0),
                          n_mels + 2)
        points = 700.0 * (10.0 ** (mel / 2595.0) - 1.0)
        bins = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
        want = np.zeros((n_mels, bins.shape[0]))
        for i in range(n_mels):
            lo, mid, hi = points[i:i + 3]
            up = (bins - lo) / max(mid - lo, 1e-12)
            down = (hi - bins) / max(hi - mid, 1e-12)
            want[i] = np.clip(np.minimum(up, down), 0.0, None)
        got = mel_filterbank(n_mels)
        assert mel_filterbank(n_mels) is got
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


class TestImageFeatures:
    def test_constant_image_dct(self):
        coeffs = dct2(np.full((32, 32), 0.25))
        npt.assert_allclose(coeffs[0, 0], 32 * 0.25, rtol=1e-12)
        coeffs[0, 0] = 0.0
        npt.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_brightness_offset_changes_only_dc(self):
        rng = np.random.default_rng(17)
        img = rng.uniform(0.0, 1.0, size=(32, 32))
        base = idct_features(img)
        shifted = idct_features(img + 0.2)
        npt.assert_allclose(shifted[0] - base[0], 32 * 0.2, rtol=1e-9)
        npt.assert_allclose(shifted[1:], base[1:], atol=1e-12)

    def test_dct_matches_naive_double_sum(self):
        rng = np.random.default_rng(18)
        img = rng.uniform(size=(4, 4))
        got = dct2(img)
        n = 4
        want = np.zeros((n, n))
        for k in range(n):
            for l in range(n):
                acc = 0.0
                for i in range(n):
                    for j in range(n):
                        acc += (img[i, j]
                                * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
                                * np.cos(np.pi * l * (2 * j + 1) / (2 * n)))
                ck = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
                cl = np.sqrt(1.0 / n) if l == 0 else np.sqrt(2.0 / n)
                want[k, l] = ck * cl * acc
        npt.assert_allclose(got, want, atol=1e-12)

    def test_zigzag_prefix(self):
        assert zigzag_indices(32, 5) == [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1)]

    def test_idct_requires_32x32(self):
        with pytest.raises(ValueError, match="32x32"):
            idct_features(np.zeros((16, 16)))

    def test_constant_image_distortion(self):
        brightness, blur, rotation = image_distortion(np.full((32, 32), 0.4))
        npt.assert_allclose(brightness, 0.4, rtol=1e-12)
        npt.assert_allclose(blur, 0.0, atol=1e-12)
        npt.assert_allclose(rotation, 1.0, atol=1e-12)

    def test_symmetric_image_rotation_is_one(self):
        rng = np.random.default_rng(19)
        half = rng.uniform(size=(32, 16))
        img = np.concatenate([half, half[:, ::-1]], axis=1)
        _, _, rotation = image_distortion(img)
        npt.assert_allclose(rotation, 1.0, atol=1e-12)

    def test_checkerboard_blur_value(self):
        img = (np.indices((32, 32)).sum(axis=0) % 2).astype(float)
        _, blur, _ = image_distortion(img)
        npt.assert_allclose(blur, 16.0, rtol=1e-12)


class TestReliabilityLayout:
    def test_default_dimension_is_41(self):
        assert ReliabilityLayout().dim == 41

    def test_block_structure(self):
        layout = ReliabilityLayout()
        assert layout.slice_of("A.entropy") == slice(0, 1)
        assert layout.slice_of("audio.mfcc") == slice(18, 23)
        assert layout.slice_of("video.rotation") == slice(40, 41)
        assert len(layout.names) == 18 + 6 + 5

    def test_assemble_and_recover(self):
        rng = np.random.default_rng(20)
        layout = ReliabilityLayout()
        t = 12
        model = {
            s: {f: rng.standard_normal(t) for f in layout.model_fields}
            for s in layout.streams
        }
        audio = {
            "mfcc": rng.standard_normal((t, 5)),
            "delta_mfcc": rng.standard_normal((t, 5)),
            "snr": rng.standard_normal(t),
            "f0": rng.standard_normal(t),
            "delta_f0": rng.standard_normal(t),
            "voicing": rng.standard_normal(t),
        }
        video = {
            "confidence": rng.standard_normal(t),
            "idct": rng.standard_normal((t, 5)),
            "brightness": rng.standard_normal(t),
            "blur": rng.standard_normal(t),
            "rotation": rng.standard_normal(t),
        }
        vec = assemble_reliability_vector(model, audio, video, layout)
        assert vec.shape == (t, 41)
        npt.assert_array_equal(vec[:, layout.slice_of("VA.dispersion")][:, 0],
                               model["VA"]["dispersion"])
        npt.assert_array_equal(vec[:, layout.slice_of("audio.mfcc")],
                               audio["mfcc"])
        npt.assert_array_equal(vec[:, layout.slice_of("video.idct")],
                               video["idct"])
        npt.assert_array_equal(vec[:, layout.slice_of("audio.voicing")][:, 0],
                               audio["voicing"])

    def test_mismatched_lengths_rejected(self):
        layout = ReliabilityLayout()
        rng = np.random.default_rng(21)
        model = {
            s: {f: rng.standard_normal(10) for f in layout.model_fields}
            for s in layout.streams
        }
        audio = {
            "mfcc": rng.standard_normal((10, 5)),
            "delta_mfcc": rng.standard_normal((10, 5)),
            "snr": rng.standard_normal(10),
            "f0": rng.standard_normal(10),
            "delta_f0": rng.standard_normal(10),
            "voicing": rng.standard_normal(10),
        }
        video = {
            "confidence": rng.standard_normal(9),  # wrong length
            "idct": rng.standard_normal((10, 5)),
            "brightness": rng.standard_normal(10),
            "blur": rng.standard_normal(10),
            "rotation": rng.standard_normal(10),
        }
        with pytest.raises(ValueError, match="lengths differ"):
            assemble_reliability_vector(model, audio, video, layout)

    def test_zero_constituents_give_zero_vector(self):
        layout = ReliabilityLayout()
        t = 4
        model = {s: {f: np.zeros(t) for f in layout.model_fields}
                 for s in layout.streams}
        audio = {"mfcc": np.zeros((t, 5)), "delta_mfcc": np.zeros((t, 5)),
                 "snr": np.zeros(t), "f0": np.zeros(t),
                 "delta_f0": np.zeros(t), "voicing": np.zeros(t)}
        video = {"confidence": np.zeros(t), "idct": np.zeros((t, 5)),
                 "brightness": np.zeros(t), "blur": np.zeros(t),
                 "rotation": np.zeros(t)}
        npt.assert_array_equal(
            assemble_reliability_vector(model, audio, video, layout),
            np.zeros((t, 41)))
