"""Signal-based reliability indicators from audio waveforms and video frames.

Audio runs at 16 kHz with 25 ms frames and a 10 ms shift. The SNR comes in
two flavors: an exact track computed from the stored clean and noise
components of a mixture, and a decision-directed spectral estimator that is
only claimed accurate for stationary noise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

SAMPLE_RATE = 16000
FRAME_LEN = 400  # 25 ms
FRAME_SHIFT = 160  # 10 ms
N_FFT = 512
PREEMPHASIS = 0.97
MEL_LOG_FLOOR = 1e-10
SNR_CAP_DB = 40.0
PITCH_FMIN = 50.0
PITCH_FMAX = 500.0
VOICING_F0_THRESHOLD = 0.35


def num_frames(n_samples: int, frame_len: int = FRAME_LEN,
               shift: int = FRAME_SHIFT) -> int:
    if n_samples < frame_len:
        raise ValueError(f"signal of {n_samples} samples shorter than one frame")
    return 1 + (n_samples - frame_len) // shift


def _frame_signal(x: np.ndarray, frame_len: int = FRAME_LEN,
                  shift: int = FRAME_SHIFT) -> np.ndarray:
    t = num_frames(x.shape[0], frame_len, shift)
    idx = np.arange(frame_len)[None, :] + shift * np.arange(t)[:, None]
    return x[idx]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(n_mels: int, n_fft: int = N_FFT, fs: int = SAMPLE_RATE,
                   fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Triangular mel filters over the rfft bins, shape (n_mels, n_fft//2+1).

    Memoised; the returned array is shared and read-only."""
    if fmax is None:
        fmax = fs / 2.0
    points = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bins = np.fft.rfftfreq(n_fft, d=1.0 / fs)
    fb = np.zeros((n_mels, bins.shape[0]))
    for m in range(n_mels):
        lo, mid, hi = points[m], points[m + 1], points[m + 2]
        up = (bins - lo) / max(mid - lo, 1e-12)
        down = (hi - bins) / max(hi - mid, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, rows are coefficients.

    Memoised; the returned array is shared and read-only."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    c = np.cos(np.pi * k * (2 * m + 1) / (2 * n)) * np.sqrt(2.0 / n)
    c[0] /= np.sqrt(2.0)
    c.flags.writeable = False
    return c


def log_mel_frames(waveform: np.ndarray, n_mels: int = 23) -> np.ndarray:
    """Log mel filterbank energies per frame (pre-emphasis, Hann, magnitude)."""
    x = np.asarray(waveform, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty signal")
    emph = np.concatenate(([x[0]], x[1:] - PREEMPHASIS * x[:-1]))
    frames = _frame_signal(emph) * np.hanning(FRAME_LEN)
    mag = np.abs(np.fft.rfft(frames, n=N_FFT, axis=-1))
    mel = mag @ mel_filterbank(n_mels).T
    return np.log(np.maximum(mel, MEL_LOG_FLOOR))


def mfcc_frames(waveform: np.ndarray, n_mels: int = 23, n_keep: int = 5) -> np.ndarray:
    """First ``n_keep`` MFCCs per 10 ms frame of a 16 kHz signal."""
    logmel = log_mel_frames(waveform, n_mels)
    return logmel @ dct_matrix(n_mels)[:n_keep].T


def delta(features: np.ndarray, window: int = 2) -> np.ndarray:
    """Regression-based temporal derivative over +-window frames with edge
    replication; exact slope for linear inputs on interior frames."""
    f = np.asarray(features, dtype=np.float64)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    t = f.shape[0]
    num = np.zeros_like(f)
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    for n in range(1, window + 1):
        fwd = f[np.minimum(np.arange(t) + n, t - 1)]
        bwd = f[np.maximum(np.arange(t) - n, 0)]
        num += n * (fwd - bwd)
    out = num / denom
    return out[:, 0] if squeeze else out


def _frame_energy(x: np.ndarray) -> np.ndarray:
    return np.sum(_frame_signal(np.asarray(x, dtype=np.float64)) ** 2, axis=-1)


def snr_db_from_energies(signal_energy: np.ndarray, noise_energy: np.ndarray,
                         cap_db: float = SNR_CAP_DB) -> np.ndarray:
    """10 log10(S/N) per frame, clamped to +-cap_db (floors guard zeros)."""
    s = np.maximum(np.asarray(signal_energy, dtype=np.float64), 1e-300)
    n = np.maximum(np.asarray(noise_energy, dtype=np.float64), 1e-300)
    return np.clip(10.0 * np.log10(s / n), -cap_db, cap_db)


def frame_snr(utterance) -> np.ndarray:
    """Exact per-frame SNR from an utterance's stored clean and noise parts.

    A clean utterance (no noise component) pins every frame at the +cap.
    """
    clean = np.asarray(utterance.audio_clean, dtype=np.float64)
    noise = getattr(utterance, "noise_component", None)
    if noise is None:
        return np.full(num_frames(clean.shape[0]), SNR_CAP_DB)
    return snr_db_from_energies(_frame_energy(clean), _frame_energy(noise))


def estimate_frame_snr(noisy: np.ndarray, smoothing: float = 0.92,
                       noise_percentile: float = 20.0,
                       noise_bias: float = 1.8) -> np.ndarray:
    """Decision-directed per-frame SNR estimate from the noisy signal alone.

    The noise power spectrum is taken as a low percentile of the per-bin
    energy track (bias-corrected), which is only sensible for stationary
    noise; accuracy is not claimed for modulated noise kinds.
    """
    x = np.asarray(noisy, dtype=np.float64)
    frames = _frame_signal(x) * np.hanning(FRAME_LEN)
    psd = np.abs(np.fft.rfft(frames, n=N_FFT, axis=-1)) ** 2
    noise_psd = np.maximum(
        np.percentile(psd, noise_percentile, axis=0) * noise_bias, 1e-12
    )
    gamma = psd / noise_psd
    xi = np.empty_like(gamma)
    prev = np.maximum(gamma[0] - 1.0, 0.0)
    xi[0] = prev
    for t in range(1, gamma.shape[0]):
        prev = smoothing * prev + (1.0 - smoothing) * np.maximum(gamma[t] - 1.0, 0.0)
        xi[t] = prev
    weights = noise_psd / noise_psd.sum()
    ratio = np.maximum((xi * weights).sum(axis=-1), 1e-300)
    return np.clip(10.0 * np.log10(ratio), -SNR_CAP_DB, SNR_CAP_DB)


def pitch_nccf(waveform: np.ndarray, fs: int = SAMPLE_RATE,
               corr_len: int = FRAME_LEN) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (f0, voicing) from the normalized cross-correlation function.

    Lags span the 50-500 Hz pitch range; voicing is the peak NCCF clamped to
    [0, 1]; f0 is reported as 0 for unvoiced or silent frames. Edge frames
    whose lookahead runs past the signal use a truncated correlation window.
    """
    x = np.asarray(waveform, dtype=np.float64)
    n = x.shape[0]
    t_total = num_frames(n)
    lag_min = int(fs / PITCH_FMAX)
    lag_max = int(round(fs / PITCH_FMIN))
    f0 = np.zeros(t_total)
    voicing = np.zeros(t_total)
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
        best = int(np.argmax(nccf))
        voicing[t] = float(np.clip(nccf[best], 0.0, 1.0))
        if voicing[t] >= VOICING_F0_THRESHOLD:
            f0[t] = fs / float(lags[best])
    return f0, voicing


def dct2(image: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a grayscale image."""
    img = np.asarray(image, dtype=np.float64)
    return dct_matrix(img.shape[0]) @ img @ dct_matrix(img.shape[1]).T


def zigzag_indices(n: int, count: int) -> list[tuple[int, int]]:
    """First ``count`` (row, col) pairs in JPEG zigzag order for an n x n grid."""
    out: list[tuple[int, int]] = []
    for d in range(2 * n - 1):
        rng = range(max(0, d - n + 1), min(d, n - 1) + 1) if d % 2 else \
            range(min(d, n - 1), max(0, d - n + 1) - 1, -1)
        for i in rng:
            out.append((i, d - i))
            if len(out) == count:
                return out
    return out


def idct_features(frame: np.ndarray, n_keep: int = 5) -> np.ndarray:
    """First ``n_keep`` 2-D DCT coefficients of a 32x32 frame, zigzag order."""
    img = np.asarray(frame, dtype=np.float64)
    if img.shape != (32, 32):
        raise ValueError(f"expected a 32x32 frame, got {img.shape}")
    coeffs = dct2(img)
    idx = zigzag_indices(32, n_keep)
    return np.array([coeffs[i, j] for i, j in idx])


def image_distortion(frame: np.ndarray) -> tuple[float, float, float]:
    """(brightness, blur, rotation) distortion indicators for one frame.

    brightness is the pixel mean, blur the variance of the 3x3 Laplacian
    response, and rotation the normalized cross-correlation between the
    frame and its horizontal mirror (1 for a constant frame).
    """
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


@dataclass(frozen=True)
class ReliabilityLayout:
    """Fixed, named layout of the per-frame reliability vector.

    Three blocks: six model-based measures per stream, audio signal
    features, and video signal features shared by both video streams. The
    default configuration spans 41 dimensions.
    """

    streams: tuple[str, ...] = ("A", "VA", "VS")
    model_fields: tuple[str, ...] = (
        "entropy", "dispersion", "posterior_difference",
        "temporal_divergence", "entropy_ratio", "dispersion_ratio",
    )
    n_mfcc: int = 5
    n_idct: int = 5
    _slices: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        pos = 0
        slices: dict[str, slice] = {}
        for stream in self.streams:
            for name in self.model_fields:
                slices[f"{stream}.{name}"] = slice(pos, pos + 1)
                pos += 1
        for name, width in self._audio_fields():
            slices[f"audio.{name}"] = slice(pos, pos + width)
            pos += width
        for name, width in self._video_fields():
            slices[f"video.{name}"] = slice(pos, pos + width)
            pos += width
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "dim", pos)

    def _audio_fields(self) -> list[tuple[str, int]]:
        return [("mfcc", self.n_mfcc), ("delta_mfcc", self.n_mfcc),
                ("snr", 1), ("f0", 1), ("delta_f0", 1), ("voicing", 1)]

    def _video_fields(self) -> list[tuple[str, int]]:
        return [("confidence", 1), ("idct", self.n_idct),
                ("brightness", 1), ("blur", 1), ("rotation", 1)]

    def slice_of(self, name: str) -> slice:
        return self._slices[name]

    @property
    def names(self) -> list[str]:
        return list(self._slices)


def assemble_reliability_vector(
    model_feats: dict[str, dict[str, np.ndarray]],
    audio_feats: dict[str, np.ndarray],
    video_feats: dict[str, np.ndarray],
    layout: ReliabilityLayout | None = None,
) -> np.ndarray:
    """Stack per-frame constituents into the fixed layout, shape (T, layout.dim).

    Every constituent must already be at the audio frame rate; mismatched
    lengths are rejected.
    """
    layout = layout or ReliabilityLayout()
    lengths = set()
    for per_stream in model_feats.values():
        for v in per_stream.values():
            lengths.add(np.asarray(v).shape[0])
    for v in list(audio_feats.values()) + list(video_feats.values()):
        lengths.add(np.asarray(v).shape[0])
    if len(lengths) != 1:
        raise ValueError(f"constituent lengths differ: {sorted(lengths)}")
    t_total = lengths.pop()
    out = np.zeros((t_total, layout.dim))

    def put(name: str, values: np.ndarray):
        sl = layout.slice_of(name)
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[1] != sl.stop - sl.start:
            raise ValueError(f"{name}: expected width {sl.stop - sl.start}, "
                             f"got {v.shape[1]}")
        out[:, sl] = v

    for stream in layout.streams:
        for fname in layout.model_fields:
            put(f"{stream}.{fname}", model_feats[stream][fname])
    for fname, _ in layout._audio_fields():
        put(f"audio.{fname}", audio_feats[fname])
    for fname, _ in layout._video_fields():
        put(f"video.{fname}", video_feats[fname])
    return out
