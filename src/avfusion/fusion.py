"""Stream integration strategies: static and dynamic log-posterior
weighting, per-frame oracle weights, and the recurrent decision fusion
network (DFN).

Log-domain fusion follows log p~(s|o_t) = sum_i lambda_t^i log p(s|o_t^i).
Oracle weighting minimizes per-frame cross entropy against the alignment in
two readings: the literal objective is linear in the weights (optimum at a
vertex), while renormalizing the geometric fusion first gives a smooth
convex problem solved by exponentiated-gradient descent.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .core import AlignmentTarget, FusedLogPosterior, StreamWeights
from . import nn


def _stack_logs(log_posts: list[np.ndarray]) -> np.ndarray:
    mats = [np.asarray(lp, dtype=np.float64) for lp in log_posts]
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValueError(f"log-posterior shapes differ: {sorted(shapes)}")
    return np.stack(mats)  # (M, T, S)


def static_fuse(log_posts: list[np.ndarray],
                weights: np.ndarray) -> FusedLogPosterior:
    """Constant-weight sum of per-stream log-posteriors."""
    stacked = _stack_logs(log_posts)
    lam = np.asarray(weights, dtype=np.float64)
    if lam.shape != (stacked.shape[0],):
        raise ValueError(f"need one weight per stream, got shape {lam.shape}")
    return FusedLogPosterior(np.einsum("m,mts->ts", lam, stacked))


def dynamic_fuse(log_posts: list[np.ndarray],
                 weights: StreamWeights | np.ndarray) -> FusedLogPosterior:
    """Per-frame weighted sum of per-stream log-posteriors."""
    stacked = _stack_logs(log_posts)
    lam = weights.weights if isinstance(weights, StreamWeights) else \
        np.asarray(weights, dtype=np.float64)
    if lam.shape != (stacked.shape[1], stacked.shape[0]):
        raise ValueError(f"weights shape {lam.shape} does not match "
                         f"{stacked.shape[1]} frames x {stacked.shape[0]} streams")
    return FusedLogPosterior(np.einsum("tm,mts->ts", lam, stacked))


def linear_oracle_ce(log_posts: list[np.ndarray], weights: np.ndarray,
                     alignment: AlignmentTarget) -> float:
    """Mean of -sum_i lambda_i log p_i(s*_t): the literal, unrenormalized
    weighted cross entropy (linear in the weights)."""
    stacked = _stack_logs(log_posts)
    t_idx = np.arange(stacked.shape[1])
    picked = stacked[:, t_idx, alignment.states].T  # (T, M)
    lam = np.broadcast_to(np.asarray(weights, dtype=np.float64), picked.shape)
    return float(-(lam * picked).sum(axis=1).mean())


def renormalized_ce(log_posts: list[np.ndarray], weights: np.ndarray,
                    alignment: AlignmentTarget) -> float:
    """Mean cross entropy after renormalizing the geometric fusion per frame."""
    stacked = _stack_logs(log_posts)
    t_len = stacked.shape[1]
    lam = np.asarray(weights, dtype=np.float64)
    if lam.ndim == 1:
        lam = np.broadcast_to(lam, (t_len, lam.shape[0]))
    fused = np.einsum("tm,mts->ts", lam, stacked)
    shifted = fused - fused.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1)) + fused.max(axis=1)
    return float(-(fused[np.arange(t_len), alignment.states] - logz).mean())


def _eg_minimize(stacked: np.ndarray, targets: np.ndarray,
                 tol: float = 1e-8, max_iter: int = 20000) -> np.ndarray:
    """Per-frame exponentiated-gradient descent of the renormalized CE.

    All frames are solved in parallel with per-frame backtracking step
    sizes; a frame leaves the active set once its simplex stationarity
    residual lam * (g - <lam, g>) drops below ``tol`` in norm. Steps are
    scaled by the centered gradient magnitude so nearly-flat frames (all
    streams already agreeing on the target) still make multiplicative
    progress instead of crawling.
    """
    m, t_len, _ = stacked.shape
    lp_full = stacked.transpose(1, 0, 2)  # (T, M, S)
    lstar_full = stacked[:, np.arange(t_len), targets].T  # (T, M)

    def evaluate(lam, lp, lstar):
        # objective and the fused posterior q, from one fused matrix; the
        # gradient is -lstar + <q, lp>
        fused = np.einsum("tm,tms->ts", lam, lp)
        mx = fused.max(axis=1, keepdims=True)
        q = np.exp(fused - mx)
        z = q.sum(axis=1, keepdims=True)
        q /= z
        logz = np.log(z[:, 0]) + mx[:, 0]
        return -(lam * lstar).sum(axis=1) + logz, q

    def gradient(q, lp, lstar):
        return -lstar + np.einsum("ts,tms->tm", q, lp)

    out = np.full((t_len, m), 1.0 / m)
    idx = np.arange(t_len)  # rows of `out` still being optimized
    lam = out.copy()
    lp = lp_full
    lstar = lstar_full
    f_cur, q = evaluate(lam, lp, lstar)
    g = gradient(q, lp, lstar)
    eta = np.full(t_len, 1.0)
    for _ in range(max_iter):
        centered = g - (lam * g).sum(axis=1, keepdims=True)
        resid = np.linalg.norm(lam * centered, axis=1)
        live = resid >= tol
        if not live.all():
            out[idx[~live]] = lam[~live]
            if not live.any():
                return out
            idx = idx[live]
            lam, f_cur, g, q, eta = (lam[live], f_cur[live], g[live],
                                     q[live], eta[live])
            centered = centered[live]
            lp, lstar = lp[live], lstar[live]
        scale = eta / np.maximum(np.abs(centered).max(axis=1), 1e-300)
        cand = lam * np.exp(-scale[:, None] * centered)
        cand = np.maximum(cand, 1e-300)
        cand /= cand.sum(axis=1, keepdims=True)
        f_new, q_new = evaluate(cand, lp, lstar)
        accept = f_new <= f_cur + 1e-15 * (1.0 + np.abs(f_cur))
        rows = accept[:, None]
        lam = np.where(rows, cand, lam)
        q = np.where(rows, q_new, q)
        f_cur = np.where(accept, np.minimum(f_new, f_cur), f_cur)
        eta = np.where(accept, np.minimum(eta * 1.3, 50.0), eta * 0.5)
        g = np.where(rows, gradient(q, lp, lstar), g)
    out[idx] = lam
    return out


def oracle_weights(log_posts: list[np.ndarray], alignment: AlignmentTarget,
                   mode: str = "renormalized") -> StreamWeights:
    """Per-frame CE-minimal convex weights given the true alignment.

    linear mode: the objective is linear on the simplex, so the optimum
    sits at the vertex of the stream with the highest target posterior
    (ties split uniformly). renormalized mode: exponentiated-gradient
    solution of the renormalized geometric-fusion CE.
    """
    return oracle_weights_batch([log_posts], [alignment], mode)[0]


def oracle_weights_batch(log_posts_list: list[list[np.ndarray]],
                         alignments: list[AlignmentTarget],
                         mode: str = "renormalized") -> list[StreamWeights]:
    """``oracle_weights`` for many utterances in one solver run.

    Every frame is solved on its own, so concatenating the utterances
    along time gives each one exactly the weights it gets alone, while the
    solver's per-iteration overhead is paid once rather than per utterance.
    """
    stacks = []
    for log_posts, alignment in zip(log_posts_list, alignments, strict=True):
        stacked = _stack_logs(log_posts)
        if alignment.num_frames != stacked.shape[1]:
            raise ValueError(f"alignment has {alignment.num_frames} frames, "
                             f"posteriors have {stacked.shape[1]}")
        stacks.append(stacked)
    if len({(s.shape[0], s.shape[2]) for s in stacks}) != 1:
        raise ValueError("utterances differ in stream or state count")
    stacked = np.concatenate(stacks, axis=1)
    states = np.concatenate([a.states for a in alignments])
    if mode == "linear":
        picked = stacked[:, np.arange(stacked.shape[1]), states].T  # (T, M)
        best = picked.max(axis=1, keepdims=True)
        tied = picked == best
        lam = tied / tied.sum(axis=1, keepdims=True)
    elif mode == "renormalized":
        lam = _eg_minimize(stacked, states)
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
    bounds = np.cumsum([s.shape[1] for s in stacks])[:-1]
    return [StreamWeights(w) for w in np.split(lam, bounds)]


@dataclass
class WeightEstimator:
    """Feedforward map from reliability vectors to simplex stream weights."""

    net: nn.Network
    input_mean: np.ndarray
    input_std: np.ndarray
    criterion: str

    def predict(self, reliability: np.ndarray) -> StreamWeights:
        x = (np.asarray(reliability, dtype=np.float64) - self.input_mean) \
            / self.input_std
        log_lam = self.net.forward(x[None], train=False)[0]
        return StreamWeights(np.exp(log_lam))

    def save(self, path: str) -> None:
        nn.save_checkpoint(self.net, path)
        meta = {"criterion": self.criterion,
                "input_mean": self.input_mean.tolist(),
                "input_std": self.input_std.tolist()}
        with open(os.path.join(path, "model.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "WeightEstimator":
        with open(os.path.join(path, "model.json")) as fh:
            meta = json.load(fh)
        return cls(net=nn.load_checkpoint(path), criterion=meta["criterion"],
                   input_mean=np.asarray(meta["input_mean"]),
                   input_std=np.asarray(meta["input_std"]))


def _standardize_stats(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    stacked = np.concatenate(arrays, axis=0)
    return stacked.mean(axis=0), np.maximum(stacked.std(axis=0), 1e-6)


def estimator_specs(rel_dim: int, n_streams: int, hidden: int) -> list[dict]:
    return [
        {"kind": "dense", "in": rel_dim, "out": hidden},
        {"kind": "relu"},
        {"kind": "dense", "in": hidden, "out": n_streams},
        {"kind": "log_softmax"},
    ]


def _mse_weight_loss(out, targets, mask):
    lam = np.exp(out)
    loss, dlam = nn.mse_loss(lam, targets, mask)
    return loss, dlam * lam


def _ce_weight_loss_factory(num_states: int):
    """Loss on estimator outputs: CE of the dynamically fused log-posteriors.

    Packed targets per frame: the M stream log-posteriors at every state
    (M*S values) followed by the target state index.
    """

    def loss_fn(out, targets, mask):
        bsz, t_len, m = out.shape
        lam = np.exp(out)
        logs = targets[:, :, :m * num_states].reshape(bsz, t_len, m, num_states)
        tgt = targets[:, :, -1].astype(int)
        # log p_i(s*) per stream: (B, T, M)
        lstar = np.take_along_axis(
            logs, tgt[:, :, None, None], axis=3)[:, :, :, 0]
        valid = float(mask.sum())
        loss = -((lam * lstar).sum(axis=2) * mask).sum() / valid
        dlam = -lstar * mask[..., None] / valid
        return loss, dlam * lam

    return loss_fn


def train_weight_estimator(train_items: list[dict], val_items: list[dict],
                           criterion: str, num_states: int,
                           config: nn.TrainConfig,
                           hidden: int = 32) -> tuple[WeightEstimator, dict]:
    """Fit the dynamic-weight estimator.

    Items carry 'reliability' (T, R) plus, for MSE, 'oracle_weights'
    (T, M) regression targets, or, for CE, 'log_posts' (M, T, S) and
    'targets' (T,) to backpropagate the fused cross entropy.
    """
    if criterion not in ("mse", "ce"):
        raise ValueError(f"criterion must be 'mse' or 'ce', got {criterion!r}")
    mean, std = _standardize_stats([it["reliability"] for it in train_items])

    def pack(items):
        packed = []
        for it in items:
            x = (it["reliability"] - mean) / std
            if criterion == "mse":
                if "oracle_weights" not in it:
                    raise ValueError("MSE training needs oracle weight targets")
                packed.append((x, it["oracle_weights"]))
            else:
                logs = it["log_posts"]  # (M, T, S)
                flat = logs.transpose(1, 0, 2).reshape(x.shape[0], -1)
                tgt = np.concatenate([flat, it["targets"][:, None]], axis=1)
                packed.append((x, tgt))
        return packed

    n_streams = 3
    net = nn.build_network(estimator_specs(mean.shape[0], n_streams, hidden),
                           rng=config.seed)
    loss_fn = _mse_weight_loss if criterion == "mse" else \
        _ce_weight_loss_factory(num_states)
    history = nn.train(net, pack(train_items), pack(val_items), config, loss_fn)
    return WeightEstimator(net, mean, std, criterion), history


def dfn_input_dim(num_states: int, rel_dim: int, n_streams: int = 3) -> int:
    """Input width of the DFN: all stream posteriors plus the reliability
    vector per frame."""
    return n_streams * num_states + rel_dim


def dfn_specs(num_states: int, rel_dim: int, variant: str,
              widths: tuple[int, int, int] = (256, 128, 64),
              hidden: int = 64, scale: float = 1.0,
              dropout: float = 0.15) -> list[dict]:
    """DFN topology: three dense blocks (ReLU + layer norm + dropout), three
    recurrent layers, then a dense log-softmax readout over states."""
    if variant not in ("lstm", "blstm"):
        raise ValueError(f"variant must be 'lstm' or 'blstm', got {variant!r}")
    dims = [max(int(round(w * scale)), 4) for w in widths]
    hid = max(int(round(hidden * scale)), 4)
    specs: list[dict] = []
    prev = dfn_input_dim(num_states, rel_dim)
    for width in dims:
        specs.extend([
            {"kind": "dense", "in": prev, "out": width},
            {"kind": "relu"},
            {"kind": "layer_norm", "dim": width},
            {"kind": "dropout", "p": dropout},
        ])
        prev = width
    for _ in range(3):
        specs.append({"kind": variant, "in": prev, "hidden": hid})
        prev = 2 * hid if variant == "blstm" else hid
    specs.append({"kind": "dense", "in": prev, "out": num_states})
    specs.append({"kind": "log_softmax"})
    return specs


@dataclass
class DfnModel:
    net: nn.Network
    variant: str
    num_states: int
    rel_dim: int
    input_mean: np.ndarray
    input_std: np.ndarray

    def save(self, path: str) -> None:
        nn.save_checkpoint(self.net, path)
        meta = {"variant": self.variant, "num_states": self.num_states,
                "rel_dim": self.rel_dim,
                "input_mean": self.input_mean.tolist(),
                "input_std": self.input_std.tolist()}
        with open(os.path.join(path, "model.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "DfnModel":
        with open(os.path.join(path, "model.json")) as fh:
            meta = json.load(fh)
        return cls(net=nn.load_checkpoint(path), variant=meta["variant"],
                   num_states=meta["num_states"], rel_dim=meta["rel_dim"],
                   input_mean=np.asarray(meta["input_mean"]),
                   input_std=np.asarray(meta["input_std"]))


def dfn_input(posteriors: list[np.ndarray], reliability: np.ndarray) -> np.ndarray:
    """Per-frame DFN input [p^A; p^VA; p^VS; R_t] from linear posteriors."""
    mats = [np.asarray(p, dtype=np.float64) for p in posteriors]
    rel = np.asarray(reliability, dtype=np.float64)
    lengths = {m.shape[0] for m in mats} | {rel.shape[0]}
    if len(lengths) != 1:
        raise ValueError(f"frame counts differ: {sorted(lengths)}")
    return np.concatenate(mats + [rel], axis=1)


def dfn_fuse(posteriors: list[np.ndarray], reliability: np.ndarray,
             model: DfnModel) -> FusedLogPosterior:
    """Forward pass of the DFN; rows are log-distributions by construction."""
    x = dfn_input(posteriors, reliability)
    expected = dfn_input_dim(model.num_states, model.rel_dim)
    if x.shape[1] != expected:
        raise ValueError(f"DFN expects {expected} input features, "
                         f"got {x.shape[1]}")
    x = (x - model.input_mean) / model.input_std
    return FusedLogPosterior(model.net.forward(x[None], train=False)[0])


def train_dfn(train_items: list[dict], val_items: list[dict], variant: str,
              num_states: int, rel_dim: int, config: nn.TrainConfig,
              widths: tuple[int, int, int] = (256, 128, 64),
              hidden: int = 64, scale: float = 1.0,
              dropout: float = 0.15,
              chunk_frames: int = 40) -> tuple[DfnModel, dict]:
    """Train a DFN variant on items carrying 'posteriors' (list of (T, S)),
    'reliability' (T, R), and alignment 'targets' (T,).

    Sequences are split into chunks of at most ``chunk_frames`` frames
    (0 disables), which keeps padded batches dense and recurrence loops
    short; fusion at test time still runs over whole utterances.
    """
    if not train_items or not val_items:
        raise ValueError("empty dataset")
    inputs = [dfn_input(it["posteriors"], it["reliability"])
              for it in train_items]
    mean, std = _standardize_stats(inputs)

    def pack(items):
        pairs = []
        for it in items:
            x = (dfn_input(it["posteriors"], it["reliability"]) - mean) / std
            tgt = it["targets"]
            step = chunk_frames if chunk_frames > 0 else x.shape[0]
            for start in range(0, x.shape[0], step):
                pairs.append((x[start:start + step], tgt[start:start + step]))
        return pairs

    net = nn.build_network(
        dfn_specs(num_states, rel_dim, variant, widths, hidden, scale, dropout),
        rng=config.seed)
    history = nn.train(net, pack(train_items), pack(val_items), config,
                       nn.ce_loss)
    model = DfnModel(net, variant, num_states, rel_dim, mean, std)
    return model, history
