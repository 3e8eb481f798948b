"""Synthetic audio-visual toy world: vocabulary, word state chains, harmonic
audio sources, glyph video, noise mixing at exact SNR, and closed-form
per-stream state posteriors as plain (T, S) arrays at the audio frame rate.

Every state owns a harmonic audio source (distinct fundamental plus a random
harmonic envelope) and a smooth 32x32 glyph. Observation models are diagonal
Gaussians in feature space, calibrated once per world by Monte Carlo, so
single-stream posteriors come straight from Bayes' rule with a uniform
prior. Per-stream temperature knobs inflate the calibrated variances to set
how sharp each stream's posteriors are. ``draw_world`` stops short of the
calibration, for callers that never compute posteriors; ``build_world``
adds it. ``save_stream_models`` writes a calibrated world's models to a
file, with the learned strategies trained against them, and
``load_stream_models`` gives the drawn world those very models back
without calibrating it.

A condition changes the audio alone: ``mix_noise`` adds white or babble
noise at an exact SNR and keeps the exact per-frame SNR as ``true_snr``,
while the video an utterance is sampled with is the video every condition
sees. ``save_audio_wav`` and ``save_video_raw`` write ``synth``'s export
(16-bit PCM WAV, raw 8-bit frames); ``load_audio_wav`` and
``load_video_raw`` read it back.
"""

from __future__ import annotations

import json
import math
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .align import align_stream, bresenham_map
from .core import (
    STREAMS,
    AlignmentTarget,
    normalize_posteriors,
    reading_artifact,
)
from .signal_reliability import (
    FRAME_LEN,
    FRAME_SHIFT,
    SAMPLE_RATE,
    frame_energy,
    idct_features,
    log_mel_frames,
    mfcc_frames,
    mfcc_from_log_mel,
    snr_db_from_energies,
)

VIDEO_FPS = 25
VIDEO_SIZE = 32
SAMPLES_PER_VIDEO_FRAME = SAMPLE_RATE // VIDEO_FPS  # 640
AUDIO_FRAMES_PER_VIDEO_FRAME = SAMPLES_PER_VIDEO_FRAME // FRAME_SHIFT  # 4
NOISE_KINDS = ("white", "babble")
VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class WorldConfig:
    """A world's recipe; its defaults are the config's ``world`` defaults."""

    vocab_size: int = 8
    states_per_word: int = 3
    mean_duration_frames: float = 5.0
    n_harmonics: int = 6
    f0_range: tuple[float, float] = (110.0, 320.0)
    excitation_noise: float = 0.10
    pixel_noise: float = 0.07
    video_contrast: float = 0.08
    glyph_similarity: float = 0.85
    audio_obs_dim: int = 8
    va_obs_dim: int = 10
    vs_obs_dim: int = 12
    calib_frames: int = 160
    calib_video_frames: int = 120
    calib_snrs: tuple[float, ...] = (9.0, 0.0, -9.0)
    temp_a: float = 1.5
    temp_va: float = 1.0
    temp_vs: float = 1.0
    lm_concentration: float = 3.0

    def __post_init__(self):
        # a validated config gives lists; as tuples, every world config
        # compares and hashes by value
        for name in ("f0_range", "calib_snrs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.vocab_size < 2:
            raise ValueError("need a vocabulary of at least 2 words")
        if self.states_per_word < 1:
            raise ValueError("words need at least 1 state")
        if self.mean_duration_frames < 1.0:
            raise ValueError("mean state duration must be >= 1 frame")
        if not 0.0 <= self.glyph_similarity < 1.0:
            raise ValueError("glyph similarity must be in [0, 1)")

    @property
    def num_states(self) -> int:
        return self.vocab_size * self.states_per_word

    def to_doc(self) -> dict:
        """The config as a JSON document."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(self).items()}


@dataclass
class World:
    config: WorldConfig
    seed: int
    vocabulary: list[str]
    lexicon: dict[str, list[int]]
    lm_initial: np.ndarray  # (V,)
    lm_bigram: np.ndarray  # (V, V) row-stochastic
    state_f0: np.ndarray  # (S,)
    state_amps: np.ndarray  # (S, n_harmonics)
    glyphs: np.ndarray  # (S, 32, 32) in [0, 1]
    vs_projection: np.ndarray  # (vs_obs_dim, 1024)
    obs_means: dict[str, np.ndarray] = field(default_factory=dict)
    obs_vars: dict[str, np.ndarray] = field(default_factory=dict)

    def to_manifest(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config.to_doc(),
            "vocabulary": self.vocabulary,
            "lexicon": {w: list(map(int, s)) for w, s in self.lexicon.items()},
            "lm_initial": [round(float(p), 12) for p in self.lm_initial],
            "lm_bigram": [[round(float(p), 12) for p in row]
                          for row in self.lm_bigram],
            "state_f0": [round(float(f), 6) for f in self.state_f0],
            "glyph_checksums": [round(float(g.sum()), 9) for g in self.glyphs],
        }


@dataclass
class Utterance:
    utt_id: str
    words: list[str]
    alignment: AlignmentTarget
    audio: np.ndarray  # waveform as heard: clean, or mixed by mix_noise
    audio_clean: np.ndarray  # the source waveform before any noise
    video: np.ndarray  # (Vf, 32, 32) glyph frames, which no condition changes
    confidence: np.ndarray  # (Vf,) synthetic tracker confidence
    # (T,) exact per-frame SNR in dB from the clean and noise parts,
    # clipped to +-40 dB (+40 when clean): truth only the generator knows
    true_snr: np.ndarray
    noise_component: np.ndarray | None = None  # the scaled noise mixed in
    # not an init field, so ``replace`` (``mix_noise``) starts a new
    # utterance without it
    _log_mel: np.ndarray | None = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def log_mel(self) -> np.ndarray:
        """Log mel energies of ``audio``, computed once: the A stream's
        features and the reliability vector's MFCCs both start from them."""
        if self._log_mel is None:
            self._log_mel = log_mel_frames(self.audio)
        return self._log_mel

    @property
    def num_audio_frames(self) -> int:
        return self.alignment.num_frames

    @property
    def num_video_frames(self) -> int:
        return self.video.shape[0]


def _cosine_pattern(rng: np.random.Generator) -> np.ndarray:
    """Random low-frequency pattern with unit peak amplitude."""
    grid = np.linspace(0.0, np.pi, VIDEO_SIZE)
    pattern = np.zeros((VIDEO_SIZE, VIDEO_SIZE))
    for i in range(4):
        for j in range(4):
            if i == 0 and j == 0:
                continue
            c = rng.normal()
            pattern += c * np.outer(np.cos(i * grid), np.cos(j * grid))
    peak = np.abs(pattern).max()
    if peak > 0:
        pattern /= peak
    return pattern


def _smooth_glyph(rng: np.random.Generator, contrast: float,
                  base: np.ndarray | None = None,
                  similarity: float = 0.0) -> np.ndarray:
    """Low-frequency pattern centered at 0.5 with the given contrast.

    With a base pattern and similarity > 0, the glyph is a mix of the
    shared base and its own pattern, shrinking between-class separation
    the way confusable visemes do.
    """
    pattern = _cosine_pattern(rng)
    if base is not None and similarity > 0.0:
        pattern = similarity * base + (1.0 - similarity) * pattern
    return np.clip(0.5 + contrast * pattern, 0.0, 1.0)


def draw_world(config: WorldConfig, seed: int = 0) -> World:
    """Deterministically draw a world without its stream models.

    Everything a world fixes except the calibrated observation models:
    vocabulary, lexicon, LM, state pitches and amplitudes, glyphs and the
    VS projection. Enough to sample utterances, mix noise and build the
    decoding graph; ``stream_loglik`` needs ``build_world``.
    """
    rng = np.random.default_rng([seed, 0xA1])
    cfg = config
    vocabulary = [f"w{i:02d}" for i in range(cfg.vocab_size)]
    lexicon = {w: list(range(i * cfg.states_per_word,
                             (i + 1) * cfg.states_per_word))
               for i, w in enumerate(vocabulary)}

    alpha = np.full(cfg.vocab_size, cfg.lm_concentration)
    lm_initial = rng.dirichlet(alpha)
    lm_bigram = rng.dirichlet(alpha, size=cfg.vocab_size)

    # Distinct fundamentals on a uniform grid with small jitter, shuffled so
    # neighbouring states of one word do not get neighbouring pitches.
    s = cfg.num_states
    grid = np.linspace(cfg.f0_range[0], cfg.f0_range[1], s)
    jitter = rng.uniform(-0.3, 0.3, size=s) * (grid[1] - grid[0] if s > 1 else 1.0)
    state_f0 = rng.permutation(grid + jitter)
    amps = rng.uniform(0.2, 1.0, size=(s, cfg.n_harmonics))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    state_amps = amps * np.sqrt(2.0) * 0.1  # waveform RMS about 0.1

    base = _cosine_pattern(rng)
    glyphs = np.stack([
        _smooth_glyph(rng, cfg.video_contrast, base, cfg.glyph_similarity)
        for _ in range(s)])
    vs_projection = rng.standard_normal((cfg.vs_obs_dim, VIDEO_SIZE * VIDEO_SIZE))
    vs_projection /= np.linalg.norm(vs_projection, axis=1, keepdims=True)

    return World(cfg, seed, vocabulary, lexicon, lm_initial, lm_bigram,
                 state_f0, state_amps, glyphs, vs_projection)


def build_world(config: WorldConfig, seed: int = 0) -> World:
    """Deterministically draw a world and calibrate its stream models.

    Calibration draws from its own generator and reads only what
    ``draw_world`` fixed, so both functions agree on every drawn field.
    """
    world = draw_world(config, seed)
    _calibrate_models(world, np.random.default_rng([seed, 0xCA]))
    return world


def _stream_models_doc(world: World) -> dict:
    return {"config": world.config.to_doc(), "seed": world.seed,
            "obs_means": {s: world.obs_means[s].tolist() for s in STREAMS},
            "obs_vars": {s: world.obs_vars[s].tolist() for s in STREAMS}}


def save_stream_models(world: World, path, trained=()) -> None:
    """Write a calibrated world's stream models to ``path`` as JSON, with
    the world config and seed they belong to and ``trained``, the learned
    strategies trained against them. Floats are written as their shortest
    repr, so ``load_stream_models`` reads the same float64 arrays back."""
    doc = dict(_stream_models_doc(world), trained=sorted(trained))
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def trained_strategies(path, world: World) -> list[str]:
    """The learned strategies ``path`` lists as trained against ``world``'s
    stream models; none when the file is missing or damaged or holds other
    models."""
    try:
        doc = json.loads(Path(path).read_text())
        trained = sorted(doc.pop("trained"))
    except (OSError, ValueError, AttributeError, KeyError, TypeError):
        return []
    same = doc == json.loads(json.dumps(_stream_models_doc(world)))
    return trained if same else []


def load_stream_models(path, config: WorldConfig, seed: int,
                       needs=()) -> World:
    """``draw_world(config, seed)`` with the stream models that
    ``save_stream_models`` wrote to ``path`` instead of a calibration.

    A file written for another world config or seed, one that does not
    list every learned strategy of ``needs`` as trained against its
    models, or a damaged one (not JSON, arrays of the wrong shape,
    non-finite values, variances that are not positive), raises
    ``ArtifactError`` naming it.
    """
    world = draw_world(config, seed)
    with reading_artifact(path):
        doc = json.loads(Path(path).read_text())
        if doc["seed"] != seed or doc["config"] != config.to_doc():
            raise ValueError(f"written for another world than seed {seed} "
                             f"of this world config; rerun `train`")
        dims = {"A": config.audio_obs_dim, "VA": config.va_obs_dim,
                "VS": config.vs_obs_dim}
        for stream, dim in dims.items():
            shape = (config.num_states, dim)
            mean = np.asarray(doc["obs_means"][stream], dtype=np.float64)
            var = np.asarray(doc["obs_vars"][stream], dtype=np.float64)
            if mean.shape != shape or var.shape != shape:
                raise ValueError(f"{stream} means and variances have shapes "
                                 f"{mean.shape} and {var.shape}, expected "
                                 f"{shape}")
            if not (np.isfinite(mean).all() and np.isfinite(var).all()
                    and (var > 0).all()):
                raise ValueError(f"{stream} means and variances must be "
                                 f"finite, variances positive")
            world.obs_means[stream] = mean
            world.obs_vars[stream] = var
        stale = [s for s in needs if s not in doc.get("trained", [])]
        if stale:
            raise ValueError(f"lists no {', '.join(stale)} model trained "
                             f"against these stream models; run `train` "
                             f"with this config")
    return world


def _synthesize_audio(world: World, frame_states: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Phase-continuous harmonic source following the per-frame state path."""
    cfg = world.config
    t_frames = frame_states.shape[0]
    n = FRAME_SHIFT * t_frames + (FRAME_LEN - FRAME_SHIFT)
    sample_state = frame_states[np.minimum(np.arange(n) // FRAME_SHIFT,
                                           t_frames - 1)]
    f0 = world.state_f0[sample_state]
    phase = 2.0 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    amps = world.state_amps[sample_state]  # (n, H)
    harmonics = np.arange(1, cfg.n_harmonics + 1)
    wave_sum = (amps * np.sin(phase[:, None] * harmonics)).sum(axis=1)
    return wave_sum + cfg.excitation_noise * 0.1 * rng.standard_normal(n)


def _render_video(world: World, frame_states: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Render glyph frames at 25 fps for an audio-rate state path."""
    t_frames = frame_states.shape[0]
    n = FRAME_SHIFT * t_frames + (FRAME_LEN - FRAME_SHIFT)
    vf = math.ceil(n / SAMPLES_PER_VIDEO_FRAME)
    vstates = frame_states[np.minimum(
        AUDIO_FRAMES_PER_VIDEO_FRAME * np.arange(vf), t_frames - 1)]
    frames = world.glyphs[vstates] + \
        world.config.pixel_noise * rng.standard_normal((vf, VIDEO_SIZE, VIDEO_SIZE))
    return np.clip(frames, 0.0, 1.0)


def _vs_features(frames: np.ndarray, projection: np.ndarray) -> np.ndarray:
    return frames.reshape(frames.shape[0], -1) @ projection.T


def _calibrate_models(world: World, rng: np.random.Generator) -> None:
    """Monte Carlo moments of each state's features under generation noise."""
    cfg = world.config
    s = cfg.num_states
    a_mu = np.empty((s, cfg.audio_obs_dim))
    a_var = np.empty((s, cfg.audio_obs_dim))
    va_mu = np.empty((s, cfg.va_obs_dim))
    va_var = np.empty((s, cfg.va_obs_dim))
    vs_mu = np.empty((s, cfg.vs_obs_dim))
    vs_var = np.empty((s, cfg.vs_obs_dim))
    for state in range(s):
        path = np.full(cfg.calib_frames + 4, state)
        audio = _synthesize_audio(world, path, rng)
        # Multi-condition moments: one clean block plus one white-noise
        # block per calibration SNR, so noisy test audio stays in-model.
        blocks = [mfcc_frames(audio, n_keep=cfg.audio_obs_dim)[2:-2]]
        p_sig = float(np.mean(audio ** 2))
        for snr in cfg.calib_snrs:
            scale = math.sqrt(p_sig / 10.0 ** (snr / 10.0))
            noisy = audio + scale * rng.standard_normal(audio.shape[0])
            blocks.append(mfcc_frames(noisy, n_keep=cfg.audio_obs_dim)[2:-2])
        feats = np.concatenate(blocks, axis=0)
        a_mu[state] = feats.mean(axis=0)
        a_var[state] = feats.var(axis=0)
        frames = world.glyphs[state][None] + cfg.pixel_noise * \
            rng.standard_normal((cfg.calib_video_frames, VIDEO_SIZE, VIDEO_SIZE))
        frames = np.clip(frames, 0.0, 1.0)
        va = idct_features(frames, cfg.va_obs_dim)
        va_mu[state] = va.mean(axis=0)
        va_var[state] = va.var(axis=0)
        vs = _vs_features(frames, world.vs_projection)
        vs_mu[state] = vs.mean(axis=0)
        vs_var[state] = vs.var(axis=0)
    world.obs_means = {"A": a_mu, "VA": va_mu, "VS": vs_mu}
    world.obs_vars = {"A": np.maximum(a_var, VARIANCE_FLOOR),
                      "VA": np.maximum(va_var, VARIANCE_FLOOR),
                      "VS": np.maximum(vs_var, VARIANCE_FLOOR)}


def sample_utterance(world: World, length_words: int, seed: int,
                     utt_id: str | None = None) -> Utterance:
    """Draw a clean utterance: LM word sequence, geometric state durations,
    harmonic audio, glyph video."""
    if length_words < 1:
        raise ValueError("utterance needs at least 1 word")
    cfg = world.config
    rng = np.random.default_rng([world.seed, 0x07, seed])
    v = cfg.vocab_size
    word_idx = [int(rng.choice(v, p=world.lm_initial))]
    for _ in range(length_words - 1):
        word_idx.append(int(rng.choice(v, p=world.lm_bigram[word_idx[-1]])))
    words = [world.vocabulary[i] for i in word_idx]
    states: list[int] = []
    p_leave = 1.0 / cfg.mean_duration_frames
    for w in words:
        for state in world.lexicon[w]:
            states.extend([state] * int(rng.geometric(p_leave)))
    frame_states = np.asarray(states, dtype=int)
    alignment = AlignmentTarget(frame_states, cfg.num_states)
    audio = _synthesize_audio(world, frame_states, rng)
    video = _render_video(world, frame_states, rng)
    confidence = np.clip(1.0 + 0.01 * rng.standard_normal(video.shape[0]),
                         0.0, 1.0)
    t_frames = frame_states.shape[0]
    return Utterance(
        utt_id=utt_id or f"utt{seed:06d}",
        words=words,
        alignment=alignment,
        audio=audio,
        audio_clean=audio,
        video=video,
        confidence=confidence,
        true_snr=np.full(t_frames, 40.0),
    )


def _babble_envelope(n: int, rng: np.random.Generator) -> np.ndarray:
    """Slowly varying positive amplitude envelope (about 10 Hz control rate)."""
    ctrl = np.abs(rng.standard_normal(max(n // 1600 + 2, 4)))
    env = np.interp(np.arange(n), np.arange(ctrl.size) * 1600.0, ctrl)
    return 0.25 + env


def mix_noise(utterance: Utterance, noise_kind: str, snr_db: float | None,
              seed: int = 0) -> Utterance:
    """Mix noise into the clean audio at an exact global SNR.

    ``snr_db=None`` returns the clean condition unchanged (true SNR pinned at
    the +40 dB cap). The scaled noise component is stored on the result so
    per-frame true SNR stays exact.
    """
    if snr_db is None:
        return replace(utterance, audio=utterance.audio_clean.copy(),
                       noise_component=None,
                       true_snr=np.full(utterance.num_audio_frames, 40.0))
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    clean = utterance.audio_clean
    sig_power = float(np.mean(clean ** 2))
    if sig_power <= 0.0:
        raise ValueError("cannot mix noise into a zero-energy signal")
    rng = np.random.default_rng([seed, 0x20, int(round(snr_db * 10)) & 0xFFFF])
    noise = rng.standard_normal(clean.shape[0])
    if noise_kind == "babble":
        noise = noise * _babble_envelope(clean.shape[0], rng)
    noise_power = float(np.mean(noise ** 2))
    scale = math.sqrt(sig_power / (noise_power * 10.0 ** (snr_db / 10.0)))
    noise = noise * scale
    track = snr_db_from_energies(frame_energy(clean), frame_energy(noise))
    return replace(utterance, audio=clean + noise, noise_component=noise,
                   true_snr=track)


def _gauss_loglik(feats: np.ndarray, means: np.ndarray, variances: np.ndarray,
                  temperature: float) -> np.ndarray:
    """(T, S) diagonal-Gaussian log-likelihoods with inflated variances."""
    var = variances[None] * temperature  # (1, S, D)
    diff = feats[:, None, :] - means[None]  # (T, S, D)
    return -0.5 * (np.log(2.0 * np.pi * var) + diff ** 2 / var).sum(axis=-1)


def stream_loglik(utterance: Utterance, world: World, stream: str) -> np.ndarray:
    """Per-frame state log-likelihoods at the stream's native frame rate."""
    if not world.obs_means:
        raise ValueError("the world has no calibrated stream models; build "
                         "it with build_world, not draw_world")
    cfg = world.config
    if stream == "A":
        feats = mfcc_from_log_mel(utterance.log_mel, cfg.audio_obs_dim)
        temp = cfg.temp_a
    elif stream == "VA":
        feats = idct_features(utterance.video, cfg.va_obs_dim)
        temp = cfg.temp_va
    elif stream == "VS":
        feats = _vs_features(utterance.video, world.vs_projection)
        temp = cfg.temp_vs
    else:
        raise ValueError(f"unknown stream {stream!r}")
    return _gauss_loglik(feats, world.obs_means[stream],
                         world.obs_vars[stream], temp)


def _softmax_rows(loglik: np.ndarray) -> np.ndarray:
    shifted = loglik - loglik.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)


def compute_stream_posteriors(utterance: Utterance, world: World,
                              stream: str) -> np.ndarray:
    """Bayes posteriors under the calibrated model and a uniform state prior,
    upsampled to the audio frame rate for the video streams."""
    loglik = stream_loglik(utterance, world, stream)
    post = normalize_posteriors(_softmax_rows(loglik))
    t_audio = utterance.num_audio_frames
    if stream in ("VA", "VS"):
        post = align_stream(post, bresenham_map(t_audio, post.shape[0]))
    elif post.shape[0] != t_audio:
        raise ValueError(f"audio posterior frames {post.shape[0]} != "
                         f"alignment frames {t_audio}")
    return post


def compute_joint_posteriors(utterance: Utterance, world: World) -> np.ndarray:
    """Early-integration posteriors: the concatenated-feature model under
    independent diagonal Gaussians, i.e. summed per-stream log-likelihoods
    with video frames repeated to the audio rate."""
    t_audio = utterance.num_audio_frames
    total = stream_loglik(utterance, world, "A")
    for stream in ("VS", "VA"):
        ll = stream_loglik(utterance, world, stream)
        total = total + align_stream(ll, bresenham_map(t_audio, ll.shape[0]))
    return normalize_posteriors(_softmax_rows(total))


def save_audio_wav(path, waveform: np.ndarray) -> None:
    """16-bit PCM mono WAV at 16 kHz."""
    pcm = np.clip(np.asarray(waveform) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def save_video_raw(path, frames: np.ndarray) -> None:
    """Raw 8-bit grayscale frames, concatenated row-major."""
    data = np.clip(np.asarray(frames) * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(data.tobytes())


def load_audio_wav(path) -> np.ndarray:
    """Read a 16-bit PCM mono WAV back to a float waveform in [-1, 1]."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError("expected 16-bit mono WAV: %s" % path)
        pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return pcm.astype(np.float64) / 32767.0


def load_video_raw(path, num_frames: int) -> np.ndarray:
    """Read raw 8-bit grayscale frames back to floats in [0, 1]."""
    data = np.fromfile(path, dtype=np.uint8)
    expected = num_frames * VIDEO_SIZE * VIDEO_SIZE
    if data.size != expected:
        raise ValueError("video file %s has %d bytes, expected %d"
                         % (path, data.size, expected))
    frames = data.reshape(num_frames, VIDEO_SIZE, VIDEO_SIZE)
    return frames.astype(np.float64) / 255.0
