"""Stream integration strategies: static and dynamic log-posterior
weighting, per-frame oracle weights, and the recurrent decision fusion
network (DFN).

Log-domain fusion follows log p~(s|o_t) = sum_i lambda_t^i log p(s|o_t^i).
Oracle weighting minimizes per-frame cross entropy against the alignment in
two readings: the literal objective is linear in the weights (optimum at a
vertex), while renormalizing the geometric fusion first gives a smooth
convex problem. That one is solved per frame by active-set projected
Newton: Newton steps on the face of the simplex the positive weights span
(the Hessian is the covariance of the stream log-posteriors under the fused
posterior), a ratio test that drops a weight to exactly 0 at the boundary,
and release of the zero weight that most violates the KKT conditions once
the face is solved. All frames of a batch iterate together, vectorized.

DFN inference likewise takes many utterances per call (a whole condition
in the sweep): they run as length-sorted, padded and masked batches
through the network's cache-free inference pass, and come back as one
stack of rows in input order.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import STREAMS, AlignmentTarget, StreamWeights, reading_artifact
from . import nn

ARMIJO_SLOPE = 1e-4  # share of the predicted decrease a step must achieve
LINE_SEARCH_HALVINGS = 40  # step halvings before a frame's search gives up


def _stack_logs(log_posts: list[np.ndarray]) -> np.ndarray:
    mats = [np.asarray(lp, dtype=np.float64) for lp in log_posts]
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValueError(f"log-posterior shapes differ: {sorted(shapes)}")
    return np.stack(mats)  # (M, T, S)


def static_fuse(log_posts: list[np.ndarray],
                weights: np.ndarray) -> np.ndarray:
    """Constant-weight sum of per-stream log-posteriors."""
    stacked = _stack_logs(log_posts)
    lam = np.asarray(weights, dtype=np.float64)
    if lam.shape != (stacked.shape[0],):
        raise ValueError(f"need one weight per stream, got shape {lam.shape}")
    return np.einsum("m,mts->ts", lam, stacked)


def dynamic_fuse(log_posts: list[np.ndarray],
                 weights: np.ndarray) -> np.ndarray:
    """Per-frame weighted sum of per-stream log-posteriors; ``weights``
    is (T, M)."""
    stacked = _stack_logs(log_posts)
    lam = np.asarray(weights, dtype=np.float64)
    if lam.shape != (stacked.shape[1], stacked.shape[0]):
        raise ValueError(f"weights shape {lam.shape} does not match "
                         f"{stacked.shape[1]} frames x {stacked.shape[0]} streams")
    return np.einsum("tm,mts->ts", lam, stacked)


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


def _fused_objective(lam: np.ndarray, lp: np.ndarray, lstar: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame renormalized CE -lam.l* + logsumexp_s(sum_m lam_m lp_ms)
    and the fused posterior q, from one fused matrix."""
    fused = np.einsum("tm,tms->ts", lam, lp)
    mx = fused.max(axis=1, keepdims=True)
    q = np.exp(fused - mx)
    z = q.sum(axis=1, keepdims=True)
    q /= z
    logz = np.log(z[:, 0]) + mx[:, 0]
    return -(lam * lstar).sum(axis=1) + logz, q


def _newton_minimize(stacked: np.ndarray, targets: np.ndarray,
                     tol: float = 1e-8, max_iter: int = 100,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame active-set projected Newton on the renormalized CE.

    Each frame minimizes f(lam) = -lam.l* + logsumexp_s(sum_m lam_m lp_ms)
    over the simplex, starting from equal weights. The gradient is
    g = -l* + E_q[lp] and the Hessian H = Cov_q(lp) under the fused
    posterior q. A step is the Newton direction on the face (the streams
    of positive weight) with sum(d) = 0, from one (M+1)x(M+1) KKT solve
    per frame with a ridge of 1e-10 tr(H) for singular H (identical
    streams); a ratio test stops it at the boundary, where the blocking
    weight is set to exactly 0 and leaves the face, and Armijo
    backtracking shortens it. Once the face is stationary, the zero weight
    that violates the KKT conditions most rejoins it.

    A frame stops when the KKT conditions hold at ``tol``: every weight on
    the face has |g_m - <lam, g>| < tol and every zero weight has
    g_m - <lam, g> >= -tol. The face test is not weighted by lam, so a
    stray weight of 1e-7 whose stream the optimum drops still moves (to
    0). A frame also stops when its line search ends without changing lam
    (the rounding floor). Frames are solved independently, so a frame's
    weights do not depend on the others in the batch.

    Returns the (T, M) weights and the iterations each frame took. Frames
    still moving after ``max_iter`` iterations keep their last iterate,
    and a ``RuntimeWarning`` counts them.
    """
    m, t_len, _ = stacked.shape
    lp = stacked.transpose(1, 0, 2)  # (T, M, S)
    lstar = stacked[:, np.arange(t_len), targets].T  # (T, M)
    out = np.full((t_len, m), 1.0 / m)
    iters = np.full(t_len, max_iter)
    idx = np.arange(t_len)  # rows of `out` still being optimized
    lam = out.copy()
    f_cur, q = _fused_objective(lam, lp, lstar)
    moved = np.ones(t_len, dtype=bool)
    for it in range(max_iter + 1):
        mean = (q[:, None, :] * lp).sum(axis=2)  # E_q[lp], (T, M)
        g = mean - lstar
        centered = g - (lam * g).sum(axis=1, keepdims=True)
        face = lam > 0
        stationary = np.abs(np.where(face, centered, 0.0)).max(axis=1) < tol
        off_face = np.where(face, np.inf, centered)
        worst = off_face.argmin(axis=1)
        violation = off_face[np.arange(idx.size), worst]
        done = (stationary & (violation >= -tol)) | ~moved
        if done.any():
            out[idx[done]] = lam[done]
            iters[idx[done]] = it
            keep = ~done
            idx = idx[keep]
            if not idx.size:
                return out, iters
            (lam, f_cur, q, lp, lstar, mean, g, face, stationary, worst,
             violation) = (a[keep] for a in (
                 lam, f_cur, q, lp, lstar, mean, g, face, stationary, worst,
                 violation))
        if it == max_iter:
            break
        release = stationary & (violation < -tol)
        face[np.flatnonzero(release), worst[release]] = True
        d = _face_newton_direction(q, lp, mean, g, face)
        lam, f_cur, q, moved = _boundary_armijo_step(lam, f_cur, q, d, g,
                                                     lp, lstar)
    out[idx] = lam
    warnings.warn(f"oracle solver stopped at its iteration cap on "
                  f"{idx.size} of {t_len} frames ({max_iter} iterations)",
                  RuntimeWarning, stacklevel=3)
    return out, iters


def _face_newton_direction(q, lp, mean, g, face) -> np.ndarray:
    """Newton direction on each frame's face with sum(d) = 0, from the
    KKT system [[H_FF, 1], [1^T, 0]] [d; nu] = [-g_F; 0]; streams off the
    face get an identity row and d = 0."""
    t_len, m = g.shape
    eye = np.eye(m, dtype=bool)
    dev = lp - mean[:, :, None]
    hess = ((q[:, None, None, :] * dev[:, :, None, :])
            * dev[:, None, :, :]).sum(axis=3)  # Cov_q(lp), (T, M, M)
    both = face[:, :, None] & face[:, None, :]
    # 1e-300 keeps the system solvable when q is one-hot and H = 0
    ridge = 1e-10 * np.where(face, np.diagonal(hess, axis1=1, axis2=2),
                             0.0).sum(axis=1) + 1e-300
    kkt = np.zeros((t_len, m + 1, m + 1))
    kkt[:, :m, :m] = np.where(both, hess + ridge[:, None, None] * eye,
                              eye.astype(float))
    kkt[:, :m, m] = face
    kkt[:, m, :m] = face
    rhs = np.zeros((t_len, m + 1, 1))
    rhs[:, :m, 0] = np.where(face, -g, 0.0)
    return np.linalg.solve(kkt, rhs)[:, :m, 0]


def _boundary_armijo_step(lam, f_cur, q, d, g, lp, lstar):
    """Move each frame along d: the largest step up to 1 that keeps the
    weights nonnegative (the blocking weight set to exactly 0), halved
    until the Armijo condition holds. Returns the new weights, objective
    and fused posterior, and which frames moved."""
    t_len = lam.shape[0]
    rows = np.arange(t_len)
    shrinking = d < 0
    ratios = np.where(shrinking, lam / np.where(shrinking, -d, 1.0), np.inf)
    block = ratios.argmin(axis=1)
    step = np.minimum(ratios[rows, block], 1.0)
    slope = (g * d).sum(axis=1)
    new_lam, new_f, new_q = lam.copy(), f_cur.copy(), q.copy()
    moved = np.zeros(t_len, dtype=bool)
    todo = rows[step > 0]
    for _ in range(LINE_SEARCH_HALVINGS):
        if not todo.size:
            break
        alpha = step[todo]
        cand = lam[todo] + alpha[:, None] * d[todo]
        at_bound = alpha == ratios[todo, block[todo]]
        cand[at_bound, block[todo][at_bound]] = 0.0
        cand = np.maximum(cand, 0.0)
        cand /= cand.sum(axis=1, keepdims=True)
        f_new, q_new = _fused_objective(cand, lp[todo], lstar[todo])
        # the slack admits steps near the optimum, whose predicted decrease
        # is below the resolution of f
        ok = f_new <= (f_cur[todo] + ARMIJO_SLOPE * alpha * slope[todo]
                       + 1e-15 * (1.0 + np.abs(f_cur[todo])))
        acc = todo[ok]
        new_lam[acc], new_f[acc], new_q[acc] = cand[ok], f_new[ok], q_new[ok]
        moved[acc] = (cand[ok] != lam[acc]).any(axis=1)
        todo = todo[~ok]
        step[todo] *= 0.5
    return new_lam, new_f, new_q, moved


def oracle_weights(log_posts: list[np.ndarray], alignment: AlignmentTarget,
                   mode: str = "renormalized") -> StreamWeights:
    """Per-frame CE-minimal convex weights given the true alignment.

    linear mode: the objective is linear on the simplex, so the optimum
    sits at the vertex of the stream with the highest target posterior
    (ties split uniformly). renormalized mode: the renormalized
    geometric-fusion CE is convex in the weights, and an active-set
    projected Newton solver (``_newton_minimize``) finds each frame's
    optimum, on the simplex's interior, an edge or a vertex, in about ten
    iterations. A frame that has not converged after 100 iterations keeps
    its last iterate, and the call warns (``RuntimeWarning``) how many
    frames did so.
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
        lam, _ = _newton_minimize(stacked, states)
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

    def predict(self, reliability: np.ndarray) -> np.ndarray:
        """The (T, M) stream weights of a (T, R) reliability matrix."""
        x = (np.asarray(reliability, dtype=np.float64) - self.input_mean) \
            / self.input_std
        return np.exp(self.net.infer(x[None])[0])

    def save(self, path: str) -> None:
        nn.save_checkpoint(self.net, path)
        meta = {"criterion": self.criterion,
                "input_mean": self.input_mean.tolist(),
                "input_std": self.input_std.tolist()}
        with open(os.path.join(path, "model.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "WeightEstimator":
        """Read ``save``'s directory back; a damaged one raises
        ``ArtifactError`` naming the file."""
        net = nn.load_checkpoint(path)
        meta_path = os.path.join(path, "model.json")
        with reading_artifact(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
            mean, std = _input_stats(meta, net)
            return cls(net=net, criterion=meta["criterion"],
                       input_mean=mean, input_std=std)


def _input_stats(meta: dict, net: nn.Network) -> tuple[np.ndarray, np.ndarray]:
    """A saved model's input standardization, checked against its network:
    one finite mean and one positive, finite std per network input."""
    width = net.specs()[0].get("in")
    mean = np.asarray(meta["input_mean"], dtype=np.float64)
    std = np.asarray(meta["input_std"], dtype=np.float64)
    if mean.shape != (width,) or std.shape != (width,):
        raise ValueError(f"input_mean and input_std have shapes {mean.shape} "
                         f"and {std.shape}; the network takes {width} inputs")
    if not (np.isfinite(mean).all() and np.isfinite(std).all()
            and (std > 0).all()):
        raise ValueError("input_mean and input_std must be finite, "
                         "input_std positive")
    return mean, std


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
                           hidden: int) -> tuple[WeightEstimator, dict]:
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

    net = nn.build_network(estimator_specs(mean.shape[0], len(STREAMS),
                                           hidden), rng=config.seed)
    loss_fn = _mse_weight_loss if criterion == "mse" else \
        _ce_weight_loss_factory(num_states)
    history = nn.train(net, pack(train_items), pack(val_items), config, loss_fn)
    return WeightEstimator(net, mean, std, criterion), history


def dfn_input_dim(num_states: int, rel_dim: int) -> int:
    """Input width of the DFN: all stream posteriors plus the reliability
    vector per frame."""
    return len(STREAMS) * num_states + rel_dim


def dfn_specs(num_states: int, rel_dim: int, variant: str,
              widths: list[int], hidden: int, scale: float,
              dropout: float) -> list[dict]:
    """DFN topology: three dense blocks (ReLU + layer norm + dropout), three
    recurrent layers, then a dense log-softmax readout over states.

    The sizes are the config's ``dfn`` section: ``scale`` multiplies the
    dense ``widths`` and the recurrent ``hidden`` size (each at least 4).
    """
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
        """Read ``save``'s directory back; a damaged one raises
        ``ArtifactError`` naming the file."""
        net = nn.load_checkpoint(path)
        meta_path = os.path.join(path, "model.json")
        with reading_artifact(meta_path):
            with open(meta_path) as fh:
                meta = json.load(fh)
            mean, std = _input_stats(meta, net)
            width = dfn_input_dim(meta["num_states"], meta["rel_dim"])
            if mean.shape != (width,):
                raise ValueError(f"num_states and rel_dim give {width} "
                                 f"inputs, the network takes {mean.size}")
            return cls(net=net, variant=meta["variant"],
                       num_states=meta["num_states"], rel_dim=meta["rel_dim"],
                       input_mean=mean, input_std=std)


def dfn_input(posteriors: list[np.ndarray], reliability: np.ndarray) -> np.ndarray:
    """Per-frame DFN input [p^A; p^VA; p^VS; R_t] from linear posteriors."""
    mats = [np.asarray(p, dtype=np.float64) for p in posteriors]
    rel = np.asarray(reliability, dtype=np.float64)
    lengths = {m.shape[0] for m in mats} | {rel.shape[0]}
    if len(lengths) != 1:
        raise ValueError(f"frame counts differ: {sorted(lengths)}")
    return np.concatenate(mats + [rel], axis=1)


DFN_BATCH_FRAMES = 1024  # padded frames per inference batch, at most


def dfn_fuse(posteriors: list[list[np.ndarray]],
             reliability: list[np.ndarray],
             model: DfnModel) -> np.ndarray:
    """DFN forward pass over many utterances, given per utterance its
    per-stream linear posteriors and its (T_i, R) reliability matrix.

    Utterances are sorted by length and run as right-padded, masked
    batches of at most ``DFN_BATCH_FRAMES`` padded frames (an utterance
    longer than that runs alone), through the cache-free
    ``Network.infer``. The result stacks every utterance's rows in input
    order; rows are log-distributions by construction. A row equals the
    utterance's own unpadded pass up to BLAS rounding (about 1e-15), since
    masked frames never reach valid ones.
    """
    expected = dfn_input_dim(model.num_states, model.rel_dim)
    inputs = []
    for posts, rel in zip(posteriors, reliability, strict=True):
        x = dfn_input(posts, rel)
        if x.shape[1] != expected:
            raise ValueError(f"DFN expects {expected} input features, "
                             f"got {x.shape[1]}")
        inputs.append((x - model.input_mean) / model.input_std)
    if not inputs:
        raise ValueError("no utterances to fuse")
    lengths = [x.shape[0] for x in inputs]
    rows: list = [None] * len(inputs)
    # a stable sort, longest first: each batch is as long as its first
    order = sorted(range(len(inputs)), key=lambda i: -lengths[i])
    start = 0
    while start < len(order):
        width = lengths[order[start]]
        size = max(1, DFN_BATCH_FRAMES // max(width, 1))
        group = order[start:start + size]
        x, mask = nn.pad_batch([inputs[i] for i in group])
        out = model.net.infer(x, mask=mask)
        for b, i in enumerate(group):
            rows[i] = out[b, :lengths[i]]
        start += size
    return np.concatenate(rows)


def train_dfn(train_items: list[dict], val_items: list[dict], variant: str,
              num_states: int, rel_dim: int, config: nn.TrainConfig,
              widths: list[int], hidden: int, scale: float, dropout: float,
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
