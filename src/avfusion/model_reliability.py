"""Model-based reliability measures computed from per-stream state posteriors.

Six indicators per stream and frame: entropy, dispersion, K-largest
posterior difference, temporal divergence, and the clamped entropy and
dispersion ratios across streams. All logarithms are natural.
"""

from __future__ import annotations

import warnings

import numpy as np

DISPERSION_K = 15
DIVERGENCE_LAG_S = 0.250
DIVERGENCE_WINDOW_S = 0.050
RATIO_CLAMP = 10000.0


def entropy(posteriors: np.ndarray) -> np.ndarray:
    """Per-row Shannon entropy -sum p log p; rows must be floored."""
    p = np.asarray(posteriors, dtype=np.float64)
    return -np.sum(p * np.log(p), axis=-1)


def _descending(posteriors: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    p = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    k_eff = min(k, p.shape[-1])
    if k_eff < 2:
        raise ValueError("need K >= 2 and at least 2 states")
    src = np.sort(p, axis=-1)[:, ::-1][:, :k_eff]
    return src, k_eff

def dispersion(posteriors: np.ndarray, k: int = DISPERSION_K) -> np.ndarray:
    """Mean pairwise log-ratio among the K largest posteriors of each row.

    Measures how sharply the top of the distribution falls off; 0 for a
    uniform row. K is clamped to the number of states.
    """
    top, k_eff = _descending(posteriors, k)
    logs = np.log(top)
    # sum over l<m of (log p_l - log p_m) = sum_l c_l log p_l with
    # c_l = (k-1-l) - l for 0-based rank l
    ranks = np.arange(k_eff)
    coef = (k_eff - 1 - ranks) - ranks
    total = np.sum(coef * logs, axis=-1)
    out = 2.0 / (k_eff * (k_eff - 1)) * total
    return out if np.asarray(posteriors).ndim > 1 else out[0]


def posterior_difference(posteriors: np.ndarray, k: int = DISPERSION_K) -> np.ndarray:
    """Mean log-ratio between the largest posterior and the next K-1 values."""
    top, k_eff = _descending(posteriors, k)
    logs = np.log(top)
    out = (logs[:, 0] * (k_eff - 1) - np.sum(logs[:, 1:], axis=-1)) / (k_eff - 1)
    return out if np.asarray(posteriors).ndim > 1 else out[0]


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) per row; inputs must be floored row-stochastic."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return np.sum(p * (np.log(p) - np.log(q)), axis=-1)


def temporal_divergence(
    posteriors: np.ndarray,
    frame_shift: float = 0.01,
    lag_s: float = DIVERGENCE_LAG_S,
    window_s: float = DIVERGENCE_WINDOW_S,
) -> np.ndarray:
    """KL divergence between each frame and the frame lag_s later, mean-pooled
    over window_s segments.

    Frames whose lookahead falls past the end hold the last valid value; a
    sequence shorter than the lag yields all zeros (with a warning).
    """
    p = np.asarray(posteriors, dtype=np.float64)
    t_total = p.shape[0]
    lag = max(1, int(round(lag_s / frame_shift)))
    window = max(1, int(round(window_s / frame_shift)))
    if t_total <= lag:
        warnings.warn(
            f"sequence of {t_total} frames has no pair {lag} frames apart; "
            "divergence is all zeros",
            stacklevel=2,
        )
        return np.zeros(t_total)
    div = np.empty(t_total)
    valid = t_total - lag
    div[:valid] = kl_divergence(p[:valid], p[lag:])
    div[valid:] = div[valid - 1]
    full = t_total - t_total % window
    pooled = np.empty_like(div)
    pooled[:full] = np.repeat(div[:full].reshape(-1, window).mean(axis=1),
                              window)
    if full < t_total:
        pooled[full:] = div[full:].mean()
    return pooled


def _clamped_ratio(values: np.ndarray, large_is_bad: bool) -> np.ndarray:
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    mean = v.mean(axis=-1, keepdims=True)
    if large_is_bad:
        clamped = np.where(v > mean, RATIO_CLAMP, v)  # ties keep the raw value
    else:
        clamped = np.where(v < mean, 1.0 / RATIO_CLAMP, v)
    totals = clamped.sum(axis=-1, keepdims=True)
    out = np.where(totals > 0, clamped / np.where(totals > 0, totals, 1.0),
                   1.0 / v.shape[-1])
    return out


def entropy_ratio(entropies: np.ndarray) -> np.ndarray:
    """Normalized per-stream entropy with above-mean entries clamped to 10000.

    Input rows hold the per-stream entropies of one frame; output rows are
    nonnegative and sum to 1.
    """
    out = _clamped_ratio(entropies, large_is_bad=True)
    return out if np.asarray(entropies).ndim > 1 else out[0]


def dispersion_ratio(dispersions: np.ndarray) -> np.ndarray:
    """Mirror of entropy_ratio: below-mean dispersions are clamped to 1/10000."""
    out = _clamped_ratio(dispersions, large_is_bad=False)
    return out if np.asarray(dispersions).ndim > 1 else out[0]


def stream_measures(posteriors: np.ndarray) -> dict[str, np.ndarray]:
    """All single-stream measures for one posterior sequence (T vectors)."""
    return {
        "entropy": entropy(posteriors),
        "dispersion": dispersion(posteriors),
        "posterior_difference": posterior_difference(posteriors),
        "temporal_divergence": temporal_divergence(posteriors),
    }
