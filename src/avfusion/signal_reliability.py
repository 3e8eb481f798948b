"""Signal-based reliability indicators from audio waveforms and video frames.

Audio runs at 16 kHz with 25 ms frames and a 10 ms shift. The SNR comes in
two flavors: an exact track computed from the stored clean and noise
components of a mixture, and a decision-directed spectral estimator that is
only claimed accurate for stationary noise.
"""

from __future__ import annotations

import functools

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
PITCH_BLOCK = 256  # frames per batched correlation, bounds its memory


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
    return mfcc_from_log_mel(log_mel_frames(waveform, n_mels), n_keep)


def mfcc_from_log_mel(logmel: np.ndarray, n_keep: int) -> np.ndarray:
    """First ``n_keep`` MFCCs of ``log_mel_frames`` output, so that one
    log-mel serves MFCCs of several lengths."""
    return logmel @ dct_matrix(logmel.shape[1])[:n_keep].T


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


def frame_energy(x: np.ndarray) -> np.ndarray:
    """Sum of squares of each 25 ms frame of a signal."""
    return np.sum(_frame_signal(np.asarray(x, dtype=np.float64)) ** 2, axis=-1)


def snr_db_from_energies(signal_energy: np.ndarray, noise_energy: np.ndarray,
                         cap_db: float = SNR_CAP_DB) -> np.ndarray:
    """10 log10(S/N) per frame, clamped to +-cap_db (floors guard zeros)."""
    s = np.maximum(np.asarray(signal_energy, dtype=np.float64), 1e-300)
    n = np.maximum(np.asarray(noise_energy, dtype=np.float64), 1e-300)
    return np.clip(10.0 * np.log10(s / n), -cap_db, cap_db)


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
    peak = np.zeros(t_total)
    best_lag = np.ones(t_total)
    # interior frames: the full window and every lag fit in the signal
    t_full = min(max(0, (n - corr_len - lag_max) // FRAME_SHIFT + 1), t_total)
    for lo in range(0, t_full, PITCH_BLOCK):
        hi = min(lo + PITCH_BLOCK, t_full)
        peak[lo:hi], best_lag[lo:hi] = _nccf_peaks(
            x[lo * FRAME_SHIFT:], hi - lo, corr_len, lag_min, lag_max)
    # edge frames: the lookahead runs past the signal, so truncate
    for t in range(t_full, t_total):
        s = t * FRAME_SHIFT
        avail = n - s
        k = min(corr_len, avail - lag_max)
        if k < 32:
            k = max(avail - lag_min - 1, 0)
            if k < 32:
                continue
        peak[t:t + 1], best_lag[t:t + 1] = _nccf_peaks(
            x[s:], 1, k, lag_min, min(lag_max, avail - k))
    voicing = np.clip(peak, 0.0, 1.0)
    f0 = np.where(voicing >= VOICING_F0_THRESHOLD, fs / best_lag, 0.0)
    return f0, voicing


def _window_sums(v: np.ndarray, k: int) -> np.ndarray:
    """``out[i] = v[i:i + k].sum()`` for every full window of ``v``.

    Built by doubling (widths 1, 2, 4, ... added by the bits of k), so each
    sum of nonnegative terms is accurate to a few ulps relative to itself,
    and a window of zeros sums to exactly 0.
    """
    n_out = v.shape[0] - k + 1
    total = np.zeros(n_out)
    level, width, offset = v, 1, 0
    while True:
        if k & width:
            total += level[offset:offset + n_out]
            offset += width
        if 2 * width > k:
            return total
        level = level[:-width] + level[width:]
        width *= 2


def _nccf_peaks(x: np.ndarray, frames: int, k: int, lag_min: int,
                lag_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Peak NCCF over lags lag_min..lag_max, and the lag that attains it, for
    ``frames`` frames of ``x`` FRAME_SHIFT apart, the first at sample 0.

    A frame correlates its first k samples with the k samples ``lag`` later.
    The correlations come from batched rffts of each frame's k + lag_max
    samples and of its first k, zero-padded to that length, so no lag wraps
    around. Frames of near-zero energy give peak 0, and a lag whose window
    holds only zeros scores exactly 0, as a direct sum would.
    """
    seg_len = k + lag_max
    span = (frames - 1) * FRAME_SHIFT + seg_len
    segs = np.lib.stride_tricks.sliding_window_view(x[:span], seg_len)
    segs = segs[::FRAME_SHIFT]
    padded = np.zeros((frames, seg_len))
    padded[:, :k] = segs[:, :k]
    spec = np.fft.rfft(padded, axis=-1)
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(segs, axis=-1)
    corr = np.fft.irfft(spec, n=seg_len, axis=-1)[:, lag_min:lag_max + 1]
    energy = _window_sums(x[:span] * x[:span], k)
    e0 = energy[:span - seg_len + 1:FRAME_SHIFT].copy()
    lag_energy = np.lib.stride_tricks.sliding_window_view(
        energy[lag_min:], lag_max - lag_min + 1)[::FRAME_SHIFT]
    silent = e0 < 1e-12
    e0[silent] = 1.0
    corr[lag_energy <= 0.0] = 0.0
    corr /= np.sqrt(e0[:, None] * np.maximum(lag_energy, 1e-300))
    best = np.argmax(corr, axis=-1)
    peak = corr[np.arange(frames), best]
    peak[silent] = 0.0
    return peak, (best + lag_min).astype(np.float64)


def dct2(image: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a grayscale image, or of each image in a
    stack (leading axes)."""
    img = np.asarray(image, dtype=np.float64)
    return dct_matrix(img.shape[-2]) @ img @ dct_matrix(img.shape[-1]).T


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


@functools.lru_cache(maxsize=None)
def zigzag_arrays(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``zigzag_indices`` as (rows, cols) index arrays.

    Memoised; the returned arrays are shared and read-only."""
    rows, cols = (np.array(a, dtype=np.intp)
                  for a in zip(*zigzag_indices(n, count)))
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def idct_features(frames: np.ndarray, n_keep: int = 5) -> np.ndarray:
    """First ``n_keep`` 2-D DCT coefficients of a 32x32 frame, zigzag order.

    ``frames`` is one frame or a stack of them (..., 32, 32); the result
    has shape (..., n_keep)."""
    img = np.asarray(frames, dtype=np.float64)
    if img.shape[-2:] != (32, 32):
        raise ValueError(f"expected 32x32 frames, got {img.shape}")
    rows, cols = zigzag_arrays(32, n_keep)
    return dct2(img)[..., rows, cols]


def image_distortion(frames: np.ndarray) -> np.ndarray:
    """(brightness, blur, rotation) distortion indicators of a frame, or of
    each frame in a stack; the result has shape (..., 3).

    brightness is the pixel mean, blur the variance of the 3x3 Laplacian
    response, and rotation the normalized cross-correlation between the
    frame and its horizontal mirror (1 for a constant frame).
    """
    img = np.asarray(frames, dtype=np.float64)
    axes = (-2, -1)
    brightness = img.mean(axis=axes)
    lap = (-4.0 * img[..., 1:-1, 1:-1] + img[..., :-2, 1:-1]
           + img[..., 2:, 1:-1] + img[..., 1:-1, :-2] + img[..., 1:-1, 2:])
    blur = lap.var(axis=axes)
    centered = img - brightness[..., None, None]
    denom = np.sum(centered * centered, axis=axes)
    flat = denom < 1e-30
    rotation = np.where(
        flat, 1.0,
        np.sum(centered * centered[..., ::-1], axis=axes)
        / np.where(flat, 1.0, denom))
    return np.stack([brightness, blur, rotation], axis=-1)
