"""Tests for audio/video signal reliability features and the reliability
vector built from them."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from avfusion.align import bresenham_map
from avfusion.core import STREAMS, PosteriorSequence
from avfusion.corpus import (
    WorldConfig,
    build_world,
    compute_stream_posteriors,
    mix_noise,
    sample_utterance,
)
from avfusion.decode import build_decoding_graph
from avfusion import experiment
from avfusion.model_reliability import (
    dispersion,
    dispersion_ratio,
    entropy,
    entropy_ratio,
    posterior_difference,
    stream_measures,
    temporal_divergence,
)
from avfusion.signal_reliability import (
    FRAME_LEN,
    FRAME_SHIFT,
    PITCH_BLOCK,
    PITCH_FMAX,
    PITCH_FMIN,
    SAMPLE_RATE,
    SNR_CAP_DB,
    VOICING_F0_THRESHOLD,
    N_FFT,
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
    zigzag_arrays,
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


def _pitch_by_frames(waveform, fs=SAMPLE_RATE, corr_len=FRAME_LEN):
    """pitch_nccf as it stood before it was batched: one direct correlation
    per frame. Also returns each frame's NCCF over its lags (None when the
    frame is skipped) and the first lag of that array."""
    x = np.asarray(waveform, dtype=np.float64)
    n = x.shape[0]
    t_total = num_frames(n)
    lag_min = int(fs / PITCH_FMAX)
    lag_max = int(round(fs / PITCH_FMIN))
    f0 = np.zeros(t_total)
    voicing = np.zeros(t_total)
    curves = [None] * t_total
    for t in range(t_total):
        s = t * FRAME_SHIFT
        avail = n - s
        k = min(corr_len, avail - lag_max)
        if k < 32:
            k = max(avail - lag_min - 1, 0)
            if k < 32:
                continue
        base = x[s:s + k]
        e0 = float(base @ base)
        if e0 < 1e-12:
            continue
        top_lag = min(lag_max, avail - k)
        seg = x[s:s + k + top_lag]
        corr = np.correlate(seg, base, mode="valid")  # lag 0 .. top_lag
        csum = np.concatenate(([0.0], np.cumsum(seg * seg)))
        lag_energy = csum[k:] - csum[:-k]  # energy of seg[lag:lag+k]
        lags = np.arange(lag_min, top_lag + 1)
        if lags.size == 0:
            continue
        nccf = corr[lags] / np.sqrt(e0 * np.maximum(lag_energy[lags], 1e-300))
        curves[t] = nccf
        best = int(np.argmax(nccf))
        voicing[t] = float(np.clip(nccf[best], 0.0, 1.0))
        if voicing[t] >= VOICING_F0_THRESHOLD:
            f0[t] = fs / float(lags[best])
    return f0, voicing, curves, lag_min


def _sawtooth(freq, n=SAMPLE_RATE):
    t = np.arange(n) / SAMPLE_RATE
    return 2.0 * (t * freq - np.floor(t * freq + 0.5))


class TestPitchMatchesFrameLoop:
    """The batched pitch tracker against the per-frame definition: voicing
    within 1e-12 and f0 equal."""

    def _check(self, x, ties_allowed=False):
        f0, voicing = pitch_nccf(x)
        want_f0, want_voicing, curves, lag_min = _pitch_by_frames(x)
        npt.assert_allclose(voicing, want_voicing, rtol=0.0, atol=1e-12)
        differ = np.flatnonzero(f0 != want_f0)
        if not ties_allowed:
            npt.assert_array_equal(f0, want_f0)
        for t in differ:
            # the chosen lag scores the reference's peak up to rounding
            lag = int(round(SAMPLE_RATE / f0[t]))
            npt.assert_allclose(curves[t][lag - lag_min], curves[t].max(),
                                rtol=0.0, atol=1e-12)
        return f0, voicing

    @pytest.mark.parametrize("kind", [None, "white", "babble"])
    @pytest.mark.parametrize("snr", [-9.0, 9.0])
    def test_corpus_audio(self, kind, snr):
        world = build_world(WorldConfig(vocab_size=6), seed=4)
        for seed in range(4):
            utt = sample_utterance(world, 4, seed=seed)
            if kind is not None:
                utt = mix_noise(utt, kind, snr, seed=seed)
            self._check(utt.audio)

    def test_sawtooth_off_the_sample_grid(self):
        f0, _ = self._check(_sawtooth(110.0))
        assert np.all(f0 > 0)

    def test_sawtooth_with_whole_sample_period(self):
        # lags 160 and 320 fit whole periods, so their NCCFs tie up to
        # rounding and either version may report 50 Hz on some frames
        self._check(_sawtooth(100.0), ties_allowed=True)

    def test_silence(self):
        _, voicing = self._check(np.zeros(SAMPLE_RATE // 4))
        npt.assert_array_equal(voicing, 0.0)

    def test_exact_zeros_after_a_tone(self):
        x = _sawtooth(130.0, 6000)
        x[3000:] = 0.0
        _, voicing = self._check(x)
        silent = FRAME_SHIFT * np.arange(voicing.shape[0]) >= 3000
        npt.assert_array_equal(voicing[silent], 0.0)

    @pytest.mark.parametrize("n", [FRAME_LEN, 500, 650, 719, 720, 721, 900])
    def test_short_signals_through_the_edge_path(self, n):
        rng = np.random.default_rng(n)
        x = np.sin(0.05 * np.arange(n)) + 0.1 * rng.standard_normal(n)
        self._check(x)

    def test_several_frame_blocks(self):
        n = FRAME_SHIFT * (2 * PITCH_BLOCK + 10) + FRAME_LEN
        rng = np.random.default_rng(44)
        x = _sawtooth(143.0, n) + 0.3 * rng.standard_normal(n)
        f0, _ = self._check(x)
        assert f0.shape == (num_frames(n),)


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

    def test_zigzag_arrays_are_the_indices_and_read_only(self):
        rows, cols = zigzag_arrays(32, 24)
        assert zigzag_arrays(32, 24)[0] is rows
        assert list(zip(rows.tolist(), cols.tolist())) == zigzag_indices(32, 24)
        with pytest.raises(ValueError):
            rows[0] = 1


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


def _distortion_of_frame(frame):
    """image_distortion as it stood before it took stacks of frames."""
    img = np.asarray(frame, dtype=np.float64)
    brightness = float(img.mean())
    lap = (-4.0 * img[1:-1, 1:-1] + img[:-2, 1:-1] + img[2:, 1:-1]
           + img[1:-1, :-2] + img[1:-1, 2:])
    blur = float(lap.var())
    centered = img - img.mean()
    denom = float(np.sum(centered * centered))
    if denom < 1e-30:
        rotation = 1.0
    else:
        rotation = float(np.sum(centered * centered[:, ::-1]) / denom)
    return brightness, blur, rotation


def _idct_of_frame(frame, n_keep):
    """idct_features as it stood before it took stacks of frames."""
    coeffs = dct_matrix(32) @ frame @ dct_matrix(32).T
    return np.array([coeffs[i, j] for i, j in zigzag_indices(32, n_keep)])


class TestVideoFeaturesMatchFrameLoop:
    """Stacked video features against the per-frame definitions, 1e-12."""

    def _frames(self):
        world = build_world(WorldConfig(vocab_size=4), seed=2)
        frames = sample_utterance(world, 3, seed=9).video
        return np.concatenate([frames, np.full((1, 32, 32), 0.3)])

    def test_idct_features(self):
        frames = self._frames()
        for n_keep in (1, 5, 24):
            got = idct_features(frames, n_keep)
            assert got.shape == (frames.shape[0], n_keep)
            want = np.stack([_idct_of_frame(f, n_keep) for f in frames])
            npt.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_image_distortion(self):
        frames = self._frames()
        got = image_distortion(frames)
        want = np.array([_distortion_of_frame(f) for f in frames])
        npt.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert got[-1, 2] == 1.0  # the constant frame

    def test_one_frame_is_a_stack_of_one(self):
        frame = self._frames()[0]
        npt.assert_array_equal(image_distortion(frame),
                               image_distortion(frame[None])[0])
        npt.assert_array_equal(idct_features(frame),
                               idct_features(frame[None])[0])


class TestReliabilityFeatures:
    """The reliability vector of ``experiment.build_cell`` on a real noisy
    cell, column block by column block against each feature computed
    directly."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig(vocab_size=3), seed=0)

    @pytest.fixture(scope="class")
    def cell(self, world):
        utt = mix_noise(sample_utterance(world, 3, seed=30), "babble", -3.0,
                        seed=31)
        return experiment.build_cell(world, utt,
                                     experiment.video_part(world, utt))

    def test_shape_is_frames_by_41(self, cell):
        assert cell.rel.shape == (cell.utt.num_audio_frames, 41)
        assert cell.rel.dtype == np.float64

    def test_posteriors_are_the_stream_posteriors(self, world, cell):
        for s, log in zip(STREAMS, cell.logs):
            want = compute_stream_posteriors(cell.utt, world, s).frames
            assert cell.posts[s].frames.tobytes() == want.tobytes()
            assert log.tobytes() == np.log(want).tobytes()

    def test_model_block_is_the_per_stream_measures(self, cell):
        frames = [cell.posts[s].frames for s in STREAMS]
        ent_ratio = entropy_ratio(np.stack([entropy(p) for p in frames], 1))
        disp_ratio = dispersion_ratio(
            np.stack([dispersion(p) for p in frames], 1))
        for i, p in enumerate(frames):
            want = [entropy(p), dispersion(p), posterior_difference(p),
                    temporal_divergence(p), ent_ratio[:, i], disp_ratio[:, i]]
            npt.assert_array_equal(cell.rel[:, 6 * i:6 * i + 6],
                                   np.stack(want, axis=1))

    def test_audio_block_is_the_audio_features(self, cell):
        utt, rel = cell.utt, cell.rel
        mfcc = mfcc_frames(utt.audio, n_keep=5)
        f0, voicing = pitch_nccf(utt.audio)
        npt.assert_array_equal(rel[:, 18:23], mfcc)
        npt.assert_array_equal(rel[:, 23:28], delta(mfcc))
        npt.assert_array_equal(rel[:, 28], utt.true_snr)
        npt.assert_array_equal(rel[:, 29:32],
                               np.stack([f0, delta(f0), voicing], axis=1))

    def test_video_block_is_upsampled_video_features(self, cell):
        utt = cell.utt
        frame_map = bresenham_map(utt.num_audio_frames, utt.num_video_frames)
        video = np.column_stack([utt.confidence, idct_features(utt.video, 5),
                                 image_distortion(utt.video)])
        npt.assert_array_equal(cell.rel[:, 32:41], video[frame_map])

    def test_mismatched_lengths_rejected(self, world, cell):
        video = experiment.video_part(world, cell.utt)
        vs = video.posts["VS"].frames[1:]
        short = replace(video,
                        posts=dict(video.posts, VS=PosteriorSequence("VS", vs)),
                        measures=dict(video.measures, VS=stream_measures(vs)))
        with pytest.raises(ValueError):
            experiment.build_cell(world, cell.utt, short)


class TestCachedVideoMeasures:
    """``video_cache`` computes the VA and VS measures once per utterance;
    a condition's cells compute only the audio stream's, and are the cells
    ``build_cell`` computes from scratch, bit for bit."""

    def test_cells_reuse_the_video_measures(self, monkeypatch):
        world = build_world(WorldConfig(vocab_size=3), seed=0)
        utts = [sample_utterance(world, 2 + i, seed=40 + i) for i in range(3)]
        measured = []

        def counted(posteriors):
            measured.append(posteriors.shape)
            return stream_measures(posteriors)

        monkeypatch.setattr(experiment, "stream_measures", counted)
        cache = experiment.video_cache(world, utts)
        assert len(measured) == 2 * len(utts)
        for cond in (-6.0, None):
            measured.clear()
            cells = experiment.condition_cells(world, utts, cache, cond,
                                               ["white", "babble"], 0)
            assert len(measured) == len(utts)
            for cell in cells:
                fresh = experiment.build_cell(
                    world, cell.utt, experiment.video_part(world, cell.utt))
                assert cell.rel.tobytes() == fresh.rel.tobytes()
                for log, fresh_log in zip(cell.logs, fresh.logs):
                    assert log.tobytes() == fresh_log.tobytes()


def test_training_items_are_cells(monkeypatch):
    """Each training item holds the posteriors, logs and reliability
    vector that ``build_cell`` gives its mixed utterance, bit for bit."""
    world = build_world(WorldConfig(vocab_size=3), seed=0)
    graph = build_decoding_graph(world, 1.0)
    utts = [sample_utterance(world, 2 + i % 3, seed=50 + i) for i in range(4)]
    mixed = []

    def recorded(*args, **kwargs):
        mixed.append(mix_noise(*args, **kwargs))
        return mixed[-1]

    monkeypatch.setattr(experiment, "mix_noise", recorded)
    items = experiment.build_training_items(
        world, graph, utts, 0, [-3.0, None], ["white", "babble"], 5)
    assert len(mixed) == len(items) == len(utts)
    for item, noisy in zip(items, mixed):
        # a copy starts with no log-mel memo of the item build
        noisy = replace(noisy)
        cell = experiment.build_cell(world, noisy,
                                     experiment.video_part(world, noisy))
        for got, s in zip(item["posteriors"], STREAMS):
            assert got.tobytes() == cell.posts[s].frames.tobytes()
        assert item["log_posts"].tobytes() == np.stack(cell.logs).tobytes()
        assert item["reliability"].tobytes() == cell.rel.tobytes()
