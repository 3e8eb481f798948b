"""Mini-batch training loop with lr decay, early stopping, and best restore.

Datasets are lists of (features, target) pairs with per-utterance lengths;
batches are right-padded and masked. Validation runs every
``check_interval`` optimizer steps: a check without improvement decays the
learning rate by ``1 - lr_decay``; once ``patience`` steps pass without a
new best, training stops and the best-validation parameters are restored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optim import Adam


@dataclass
class TrainConfig:
    lr0: float = 5e-4
    lr_decay: float = 0.8
    batch_size: int = 10
    check_interval: int = 100
    patience: int = 300
    max_steps: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {self.lr0}")
        if not 0.0 < self.lr_decay < 1.0:
            raise ValueError(f"lr_decay must be in (0, 1), got {self.lr_decay}")
        if self.batch_size < 1 or self.check_interval < 1:
            raise ValueError("batch_size and check_interval must be >= 1")
        if self.patience < 0 or self.max_steps < 1:
            raise ValueError("patience must be >= 0 and max_steps >= 1")


def pad_batch(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad to the longest sequence; returns (B, T, D) plus 0/1 mask."""
    lengths = [s.shape[0] for s in seqs]
    t_max = max(lengths)
    feat = seqs[0].shape[1]
    x = np.zeros((len(seqs), t_max, feat))
    mask = np.zeros((len(seqs), t_max))
    for b, s in enumerate(seqs):
        x[b, :lengths[b]] = s
        mask[b, :lengths[b]] = 1.0
    return x, mask


def pad_targets(targets: list[np.ndarray], t_max: int) -> np.ndarray:
    first = np.asarray(targets[0])
    if first.ndim == 1:
        out = np.zeros((len(targets), t_max), dtype=first.dtype)
    else:
        out = np.zeros((len(targets), t_max, first.shape[1]))
    for b, tgt in enumerate(targets):
        out[b, :np.asarray(tgt).shape[0]] = tgt
    return out


def _batch(dataset, indices):
    xs = [np.asarray(dataset[i][0], dtype=np.float64) for i in indices]
    ts = [np.asarray(dataset[i][1]) for i in indices]
    x, mask = pad_batch(xs)
    return x, pad_targets(ts, x.shape[1]), mask


def evaluate(net, dataset, loss_fn, batch_size: int = 10) -> float:
    """Frame-weighted average loss over a dataset in inference mode."""
    if not dataset:
        raise ValueError("empty dataset")
    total = 0.0
    frames = 0.0
    for start in range(0, len(dataset), batch_size):
        idx = range(start, min(start + batch_size, len(dataset)))
        x, tgt, mask = _batch(dataset, idx)
        out = net.infer(x, mask=mask)
        loss, _ = loss_fn(out, tgt, mask)
        n = float(mask.sum())
        total += loss * n
        frames += n
    return total / frames


def train(net, train_set, val_set, config: TrainConfig, loss_fn) -> dict:
    """Optimize ``net`` in place; returns the training history.

    History lists are indexed by validation check: optimizer step, mean
    train loss since the previous check, validation loss, and the lr in
    effect when the check ran.
    """
    if not train_set or not val_set:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    opt = Adam(net, config.lr0)
    best_val = np.inf
    best_state = net.get_state()
    since_improve = 0
    history = {"step": [], "train_loss": [], "val_loss": [], "lr": []}
    order = rng.permutation(len(train_set))
    cursor = 0
    running: list[float] = []
    step = 0
    while step < config.max_steps:
        if cursor + config.batch_size > len(order):
            order = rng.permutation(len(train_set))
            cursor = 0
        idx = order[cursor:cursor + min(config.batch_size, len(order))]
        cursor += len(idx)
        x, tgt, mask = _batch(train_set, idx)
        out = net.forward(x, mask=mask, train=True)
        loss, grad = loss_fn(out, tgt, mask)
        net.backward(grad)
        opt.step()
        running.append(loss)
        step += 1
        if step % config.check_interval == 0:
            val_loss = evaluate(net, val_set, loss_fn, config.batch_size)
            history["step"].append(step)
            history["train_loss"].append(float(np.mean(running)))
            history["val_loss"].append(float(val_loss))
            history["lr"].append(opt.lr)
            running = []
            if val_loss < best_val:
                best_val = float(val_loss)
                best_state = net.get_state()
                since_improve = 0
            else:
                opt.lr *= config.lr_decay
                since_improve += config.check_interval
            if since_improve >= config.patience:
                break
    net.set_state(best_state)
    history["best_val"] = float(best_val)
    history["stopped_at"] = step
    return history
