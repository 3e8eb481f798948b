"""Tests for the synthetic audio-visual world: generation, mixing, posteriors."""

from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from avfusion import corpus, experiment
from avfusion.align import align_stream, bresenham_map
from avfusion.core import normalize_posteriors
from avfusion.corpus import (
    FRAME_LEN,
    FRAME_SHIFT,
    SAMPLES_PER_VIDEO_FRAME,
    VIDEO_SIZE,
    World,
    WorldConfig,
    build_world,
    compute_joint_posteriors,
    compute_stream_posteriors,
    draw_world,
    load_audio_wav,
    load_video_raw,
    mix_noise,
    sample_utterance,
    save_audio_wav,
    save_video_raw,
    stream_loglik,
)
from avfusion.decode import build_decoding_graph, viterbi_decode, wer, pool_reports
from avfusion.model_reliability import entropy
from avfusion.signal_reliability import (
    dct_matrix,
    idct_features,
    log_mel_frames,
    mfcc_frames,
    zigzag_indices,
)


class TestBuildWorld:
    def test_state_count_arithmetic(self):
        world = build_world(WorldConfig(vocab_size=2, states_per_word=2), 0)
        assert world.config.num_states == 4

    def test_same_seed_same_manifest(self):
        cfg = WorldConfig(vocab_size=4)
        m1 = build_world(cfg, seed=9).to_manifest()
        m2 = build_world(cfg, seed=9).to_manifest()
        assert m1 == m2

    def test_different_seed_different_world(self):
        cfg = WorldConfig(vocab_size=4)
        m1 = build_world(cfg, seed=1).to_manifest()
        m2 = build_world(cfg, seed=2).to_manifest()
        assert m1 != m2

    def test_thirty_state_world_lm_stochastic(self):
        world = build_world(WorldConfig(vocab_size=10, states_per_word=3), 7)
        assert world.config.num_states == 30
        npt.assert_allclose(world.lm_bigram.sum(axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(world.lm_initial.sum(), 1.0, atol=1e-12)
        assert all(len(chain) == 3 for chain in world.lexicon.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="vocabulary"):
            WorldConfig(vocab_size=1)
        with pytest.raises(ValueError, match="at least 1 state"):
            WorldConfig(states_per_word=0)
        with pytest.raises(ValueError, match="similarity"):
            WorldConfig(glyph_similarity=1.0)


class TestDrawWorld:
    """``draw_world`` is ``build_world`` without the stream models."""

    def test_drawn_fields_equal_built(self):
        cfg = WorldConfig(vocab_size=3, calib_frames=40, calib_video_frames=30)
        drawn, built = draw_world(cfg, 5), build_world(cfg, 5)
        assert drawn.obs_means == {} and drawn.obs_vars == {}
        assert set(built.obs_means) == set(built.obs_vars) == {"A", "VA", "VS"}
        for f in fields(World):
            if f.name in ("obs_means", "obs_vars"):
                continue
            a, b = getattr(drawn, f.name), getattr(built, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                    f.name
            else:
                assert a == b, f.name
        assert drawn.to_manifest() == built.to_manifest()

    def test_stream_loglik_needs_calibration(self):
        world = draw_world(WorldConfig(vocab_size=2), 0)
        utt = sample_utterance(world, 2, seed=1)
        for stream in ("A", "VA", "VS"):
            with pytest.raises(ValueError, match="no calibrated stream "
                               "models.*build_world"):
                stream_loglik(utt, world, stream)


class TestSampleUtterance:
    def test_word_count_and_lengths(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 4, seed=2)
        assert len(utt.words) == 4
        t = utt.num_audio_frames
        assert utt.alignment.num_frames == t
        assert utt.audio.shape[0] == FRAME_SHIFT * t + (FRAME_LEN - FRAME_SHIFT)
        expected_vf = -(-utt.audio.shape[0] // SAMPLES_PER_VIDEO_FRAME)
        assert utt.num_video_frames == expected_vf

    def test_single_word(self):
        world = build_world(WorldConfig(vocab_size=2), 0)
        utt = sample_utterance(world, 1, seed=3)
        assert len(utt.words) == 1
        assert utt.words[0] in world.vocabulary

    def test_fixed_seed_reproducible(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        u1 = sample_utterance(world, 3, seed=11)
        u2 = sample_utterance(world, 3, seed=11)
        npt.assert_array_equal(u1.audio, u2.audio)
        npt.assert_array_equal(u1.video, u2.video)
        assert u1.words == u2.words

    def test_geometric_duration_mean(self):
        world = build_world(WorldConfig(vocab_size=2, mean_duration_frames=5.0), 1)
        total_frames = 0
        total_states = 0
        for seed in range(250):
            utt = sample_utterance(world, 2, seed=seed)
            total_frames += utt.num_audio_frames
            total_states += 2 * world.config.states_per_word
        mean_dur = total_frames / total_states
        assert abs(mean_dur - 5.0) / 5.0 < 0.1

    def test_rejects_empty(self):
        world = build_world(WorldConfig(vocab_size=2), 0)
        with pytest.raises(ValueError, match="at least 1 word"):
            sample_utterance(world, 0, seed=0)


class TestMixNoise:
    def test_global_snr_within_tenth_db(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 3, seed=4)
        for target in (-9.0, 0.0, 9.0):
            for kind in ("white", "babble"):
                noisy = mix_noise(utt, kind, target, seed=5)
                measured = 10 * np.log10(
                    np.mean(noisy.audio_clean ** 2)
                    / np.mean(noisy.noise_component ** 2))
                assert abs(measured - target) < 0.1

    def test_clean_condition_passthrough(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=5)
        clean = mix_noise(utt, "white", None, seed=6)
        npt.assert_array_equal(clean.audio, utt.audio_clean)
        assert clean.noise_component is None
        npt.assert_array_equal(clean.true_snr, 40.0)

    def test_energy_weighted_track_matches_global(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 3, seed=7)
        noisy = mix_noise(utt, "white", 3.0, seed=8)
        # pool frame energies: total signal over total noise in the framed span
        idx = (np.arange(FRAME_LEN)[None, :]
               + FRAME_SHIFT * np.arange(noisy.num_audio_frames)[:, None])
        s = np.sum(noisy.audio_clean[idx] ** 2)
        n = np.sum(noisy.noise_component[idx] ** 2)
        pooled = 10 * np.log10(s / n)
        assert abs(pooled - 3.0) < 0.5

    def test_unknown_kind_rejected(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=9)
        with pytest.raises(ValueError, match="noise kind"):
            mix_noise(utt, "pink", 0.0)

    def test_zero_signal_rejected(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=10)
        silent = type(utt)(
            utt_id="z", words=utt.words, alignment=utt.alignment,
            audio=np.zeros_like(utt.audio),
            audio_clean=np.zeros_like(utt.audio),
            video=utt.video, confidence=utt.confidence,
            true_snr=utt.true_snr)
        with pytest.raises(ValueError, match="zero-energy"):
            mix_noise(silent, "white", 0.0)

    def test_noise_seed_reproducible(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=11)
        n1 = mix_noise(utt, "babble", -3.0, seed=77)
        n2 = mix_noise(utt, "babble", -3.0, seed=77)
        npt.assert_array_equal(n1.audio, n2.audio)


class TestStreamPosteriors:
    def test_rows_stochastic_all_streams(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=15)
        for stream in ("A", "VA", "VS"):
            post = compute_stream_posteriors(utt, world, stream)
            assert post.shape == (utt.num_audio_frames,
                                  world.config.num_states)
            npt.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_identical_models_give_uniform_rows(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=16)
        s = world.config.num_states
        world.obs_means["A"] = np.tile(world.obs_means["A"][:1], (s, 1))
        world.obs_vars["A"] = np.tile(world.obs_vars["A"][:1], (s, 1))
        post = compute_stream_posteriors(utt, world, "A")
        npt.assert_allclose(post, 1.0 / s, atol=1e-12)

    def test_bayes_hand_example(self):
        # uniform prior: posterior is the normalized likelihood row
        from avfusion.corpus import _softmax_rows

        loglik = np.log(np.array([[0.6, 0.3, 0.1]]))
        npt.assert_allclose(_softmax_rows(loglik), [[0.6, 0.3, 0.1]],
                            atol=1e-12)

    def test_clean_audio_argmax_tracks_alignment(self):
        world = build_world(WorldConfig(vocab_size=4), 1)
        utt = sample_utterance(world, 3, seed=17)
        post = compute_stream_posteriors(utt, world, "A")
        agree = np.mean(post.argmax(axis=1) == utt.alignment.states)
        assert agree > 0.6  # boundary frames straddle states

    def test_unknown_stream_rejected(self):
        world = build_world(WorldConfig(vocab_size=2), 0)
        utt = sample_utterance(world, 1, seed=18)
        with pytest.raises(ValueError, match="stream"):
            stream_loglik(utt, world, "Q")

    def test_joint_posteriors_shape_and_rows(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        utt = sample_utterance(world, 2, seed=19)
        joint = compute_joint_posteriors(utt, world)
        assert joint.shape == (utt.num_audio_frames, world.config.num_states)
        npt.assert_allclose(joint.sum(axis=1), 1.0, atol=1e-9)


class TestLogMelMemo:
    """An utterance computes its log-mel once; the A stream's features are
    still ``mfcc_frames`` of its audio, bit for bit."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig(vocab_size=3, audio_obs_dim=9,
                                       temp_a=1.5), 4)

    def test_a_posteriors_are_the_mfcc_definition(self, world):
        from avfusion.corpus import _gauss_loglik, _softmax_rows

        cfg = world.config
        noisy = mix_noise(sample_utterance(world, 3, seed=40), "babble",
                          0.0, seed=3)
        want = _gauss_loglik(mfcc_frames(noisy.audio, n_keep=9),
                             world.obs_means["A"], world.obs_vars["A"],
                             cfg.temp_a)
        assert stream_loglik(noisy, world, "A").tobytes() == want.tobytes()
        post = compute_stream_posteriors(noisy, world, "A")
        assert post.tobytes() == \
            normalize_posteriors(_softmax_rows(want)).tobytes()
        total = want
        for stream in ("VS", "VA"):
            ll = stream_loglik(noisy, world, stream)
            total = total + align_stream(
                ll, bresenham_map(noisy.num_audio_frames, ll.shape[0]))
        joint = compute_joint_posteriors(noisy, world)
        assert joint.tobytes() == \
            normalize_posteriors(_softmax_rows(total)).tobytes()

    def test_mixing_starts_a_new_memo(self, world):
        utt = sample_utterance(world, 2, seed=41)
        clean_mel = utt.log_mel
        for snr in (0.0, None):
            mixed = mix_noise(utt, "white", snr, seed=5)
            assert mixed.log_mel is not clean_mel
            assert mixed.log_mel.tobytes() == \
                log_mel_frames(mixed.audio).tobytes()

    def test_one_log_mel_per_cell(self, world, monkeypatch):
        calls = []

        def counted(waveform, *args):
            calls.append(len(waveform))
            return log_mel_frames(waveform, *args)

        monkeypatch.setattr(corpus, "log_mel_frames", counted)
        utts = [sample_utterance(world, 2, seed=42 + i) for i in range(3)]
        cache = experiment.video_cache(world, utts)
        calls.clear()
        cells = experiment.condition_cells(world, utts, cache, 3.0,
                                           ["white"], 0)
        experiment.fuse_cells(cells, ["ao", "early", "static"], world, {},
                              "renormalized")
        assert calls == [len(u.audio) for u in utts]


def test_va_features_match_einsum_form():
    frames = np.random.default_rng(38).random((30, VIDEO_SIZE, VIDEO_SIZE))
    c = dct_matrix(VIDEO_SIZE)
    coeffs = np.einsum("ij,fjk,lk->fil", c, frames, c)
    rows, cols = zip(*zigzag_indices(VIDEO_SIZE, 24))
    npt.assert_allclose(idct_features(frames, 24),
                        coeffs[:, list(rows), list(cols)], rtol=0.0,
                        atol=1e-12)


class TestWorldSeparability:
    def test_clean_decoding_recovers_transcripts(self):
        world = build_world(WorldConfig(vocab_size=6), 3)
        graph = build_decoding_graph(world, 1.0)
        reports = []
        for seed in range(50):
            utt = sample_utterance(world, 2 + seed % 4, seed=seed)
            post = compute_stream_posteriors(utt, world, "A")
            hyp = viterbi_decode(np.log(post), graph).words
            reports.append(wer(utt.words, hyp))
        assert pool_reports(reports).wer < 0.05

    def test_audio_entropy_monotone_in_snr(self):
        from scipy.stats import spearmanr

        grid = [-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 9.0, None]
        rhos = []
        for seed in range(5):
            world = build_world(WorldConfig(vocab_size=4), seed)
            means = []
            for cond in grid:
                vals = []
                for us in range(3):
                    utt = sample_utterance(world, 2, seed=us)
                    noisy = mix_noise(utt, "white", cond, seed=us + 50)
                    post = compute_stream_posteriors(noisy, world, "A")
                    vals.append(entropy(post).mean())
                means.append(np.mean(vals))
            snr_rank = [-9, -6, -3, 0, 3, 6, 9, 12]
            rhos.append(spearmanr(snr_rank, means).statistic)
        assert np.mean(rhos) <= -0.9


class TestMediaIO:
    def test_wav_round_trip(self, tmp_path):
        world = build_world(WorldConfig(vocab_size=2), 0)
        utt = sample_utterance(world, 2, seed=20)
        p = tmp_path / "a.wav"
        save_audio_wav(p, utt.audio)
        back = load_audio_wav(p)
        assert back.shape == utt.audio.shape
        npt.assert_allclose(back, np.clip(utt.audio, -1, 1), atol=1.0 / 32767)

    def test_video_round_trip(self, tmp_path):
        world = build_world(WorldConfig(vocab_size=2), 0)
        utt = sample_utterance(world, 2, seed=21)
        p = tmp_path / "v.raw"
        save_video_raw(p, utt.video)
        back = load_video_raw(p, utt.num_video_frames)
        assert back.shape == utt.video.shape
        npt.assert_allclose(back, utt.video, atol=1.0 / 255)

    def test_video_size_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.raw"
        p.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError, match="expected"):
            load_video_raw(p, 2)
