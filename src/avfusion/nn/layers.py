"""Layer zoo: dense, relu, layer norm, dropout, LSTM, BLSTM, log-softmax.

Inputs are (B, T, D) float64 arrays with an optional (B, T) mask of 0/1.
Recurrent layers gate their state updates with the mask, so right-padded
frames never leak into valid ones (in either BLSTM direction). Forward
caches whatever backward needs; backward returns the input gradient and
fills each layer's ``grads`` dict. ``Network.infer`` is the inference
pass: the same outputs, with each layer's cache dropped as it returns.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..core import read_matrix, reading_artifact, write_matrix


def glorot(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot-style init scaled by fan-in + fan-out."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): stable on both tails, one transcendental;
    ``out`` may be ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class Layer:
    """Base class; stateless layers leave params/grads empty."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, mask=None, train=False):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def _need_cache(self):
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward called "
                               "without a stored forward pass")


class Dense(Layer):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params = {"w": glorot((in_dim, out_dim), rng),
                       "b": np.zeros(out_dim)}

    def forward(self, x, mask=None, train=False):
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"dense expects {self.in_dim} features, "
                             f"got {x.shape[-1]}")
        # 2-D GEMMs: a 3-D ``@`` would run one small GEMM per batch row
        flat_x = x.reshape(-1, self.in_dim)
        self._cache = flat_x
        out = flat_x @ self.params["w"]
        out += self.params["b"]
        return out.reshape(*x.shape[:-1], self.out_dim)

    def backward(self, dout):
        self._need_cache()
        flat_x = self._cache
        flat_d = dout.reshape(-1, self.out_dim)
        self.grads = {"w": flat_x.T @ flat_d, "b": flat_d.sum(axis=0)}
        dx = flat_d @ self.params["w"].T
        return dx.reshape(*dout.shape[:-1], self.in_dim)

    def spec(self):
        return {"kind": "dense", "in": self.in_dim, "out": self.out_dim}


class ReLU(Layer):
    def forward(self, x, mask=None, train=False):
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dout):
        self._need_cache()
        return dout * self._cache

    def spec(self):
        return {"kind": "relu"}


class LayerNorm(Layer):
    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim, self.eps = dim, eps
        self.params = {"gamma": np.ones(dim), "beta": np.zeros(dim)}

    def forward(self, x, mask=None, train=False):
        centered = x - x.mean(axis=-1, keepdims=True)
        # the mean of squared deviations is exactly what x.var computes
        var = (centered * centered).mean(axis=-1, keepdims=True)
        std = np.sqrt(var + self.eps)
        xhat = np.divide(centered, std, out=centered)
        self._cache = (xhat, std)
        out = self.params["gamma"] * xhat
        out += self.params["beta"]
        return out

    def backward(self, dout):
        self._need_cache()
        xhat, std = self._cache
        lead = tuple(range(dout.ndim - 1))
        self.grads = {"gamma": (dout * xhat).sum(axis=lead),
                      "beta": dout.sum(axis=lead)}
        dxhat = dout * self.params["gamma"]
        return (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / std

    def spec(self):
        return {"kind": "layer_norm", "dim": self.dim}


class Dropout(Layer):
    """Inverted dropout: scales kept units at train time, identity at eval."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x, mask=None, train=False):
        if not train or self.p == 0.0:
            self._cache = None
            return x
        keep = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        self._cache = keep
        return x * keep

    def backward(self, dout):
        return dout if self._cache is None else dout * self._cache

    def spec(self):
        return {"kind": "dropout", "p": self.p}


class LogSoftmax(Layer):
    def forward(self, x, mask=None, train=False):
        shifted = x - x.max(axis=-1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out = shifted - logz
        self._cache = np.exp(out)
        return out

    def backward(self, dout):
        self._need_cache()
        return dout - self._cache * dout.sum(axis=-1, keepdims=True)

    def spec(self):
        return {"kind": "log_softmax"}


def _keep_mask(mask, shape):
    """Boolean (B, T) mask of valid frames; refuses masks that are not 0/1."""
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask)
    keep = mask == 1
    if not np.all(keep | (mask == 0)):
        raise ValueError("recurrent layers need a 0/1 mask")
    return keep


def _lstm_forward(x, keep, wx, wh, b):
    """K independent LSTM recurrences run in lockstep.

    x is (K, B, T, D), keep a boolean (K, B, T) mask, and the weights carry
    the same leading K axis. Gate columns are laid out [input, forget,
    output, candidate]. Inside, the gates of frame t are the (K, 4, H, B)
    block ``gates[t]`` and the states are (K, H, B): batch-last blocks keep
    every per-step operation on contiguous memory. Returns the (K, B, T, H)
    states and a cache.
    """
    k_dir, bsz, t_len, d_in = x.shape
    hid = wh.shape[1]
    xt = x.transpose(0, 2, 1, 3).reshape(k_dir, t_len * bsz, d_in)
    proj = xt @ wx
    proj += b[:, None, :]
    # the projected inputs become the activated gates, in place
    gates = np.ascontiguousarray(
        proj.reshape(k_dir, t_len, bsz, 4, hid).transpose(1, 0, 3, 4, 2))
    keep_t = keep.transpose(2, 0, 1)[:, :, None, :]  # (T, K, 1, B)
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
    h = np.zeros((k_dir, hid, bsz))
    c = np.zeros((k_dir, hid, bsz))
    hs = np.empty((t_len, k_dir, hid, bsz))
    cs = np.empty_like(hs)
    tcs = np.empty_like(hs)
    for t in range(t_len):
        z = gates[t]
        z += (wh_t @ h).reshape(z.shape)
        _sigmoid(z[:, :3], out=z[:, :3])
        np.tanh(z[:, 3], out=z[:, 3])
        c_cand = z[:, 1] * c
        c_cand += z[:, 0] * z[:, 3]
        tc = np.tanh(c_cand, out=tcs[t])
        # padded frames hold the previous state
        np.copyto(c, c_cand, where=keep_t[t])
        np.copyto(h, z[:, 2] * tc, where=keep_t[t])
        cs[t] = c
        hs[t] = h
    return hs.transpose(1, 3, 0, 2), (xt, keep_t, hs, cs, tcs, gates)


def _lstm_backward(dh_seq, cache, wx, wh):
    """Backward of ``_lstm_forward``; dh_seq is (K, B, T, H). Returns dx
    (K, B, T, D) and the stacked dwx, dwh, db."""
    xt, keep_t, hs, cs, tcs, gates = cache
    t_len, k_dir, hid, bsz = hs.shape
    dh_seq = np.ascontiguousarray(dh_seq.transpose(2, 0, 3, 1))
    i, f, o, g = (gates[:, :, j] for j in range(4))
    # per-frame factors: the pre-activation gradient of each gate is its
    # factor times dc, except the output gate's, which is its factor times
    # dh; built in place, as large temporaries are costly to allocate
    factor = np.empty_like(gates)
    np.subtract(1.0, gates[:, :, :3], out=factor[:, :, :3])
    factor[:, :, :3] *= gates[:, :, :3]
    factor[:, :, 0] *= g
    factor[1:, :, 1] *= cs[:-1]
    factor[0, :, 1] = 0.0  # the state before the first frame is zero
    factor[:, :, 2] *= tcs
    np.multiply(g, g, out=factor[:, :, 3])
    np.subtract(1.0, factor[:, :, 3], out=factor[:, :, 3])
    factor[:, :, 3] *= i
    dc_from_h = np.multiply(tcs, tcs)
    np.subtract(1.0, dc_from_h, out=dc_from_h)
    dc_from_h *= o
    dpre_all = np.empty_like(gates)
    # a 0/1 float mask splits each state gradient exactly into the part a
    # valid frame consumes (x * m) and the part a padded frame passes back
    # unchanged (x - x * m)
    mask_t = keep_t.astype(np.float64)
    dh_next = np.zeros((k_dir, hid, bsz))
    dc_next = np.zeros((k_dir, hid, bsz))
    for t in range(t_len - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        dh_cand = dh * mask_t[t]
        dc_in = dc_next * mask_t[t]
        dc_cand = dc_in + dh_cand * dc_from_h[t]
        dc_next = (dc_next - dc_in) + dc_cand * f[t]
        dpre = np.multiply(factor[t], dc_cand[:, None], out=dpre_all[t])
        np.multiply(factor[t, :, 2], dh_cand, out=dpre[:, 2])
        dh_next = (dh - dh_cand) + wh @ dpre.reshape(k_dir, 4 * hid, bsz)
    flat_d = dpre_all.transpose(1, 0, 4, 2, 3).reshape(
        k_dir, t_len * bsz, 4 * hid)
    # frame t's gates see the state of frame t - 1 (zero before frame 0)
    h_prev = hs[:-1].transpose(1, 2, 0, 3).reshape(k_dir, hid, -1)
    dwx = xt.transpose(0, 2, 1) @ flat_d
    dwh = h_prev @ flat_d[:, bsz:]
    db = flat_d.sum(axis=1)
    dx = (flat_d @ wx.transpose(0, 2, 1)).reshape(k_dir, t_len, bsz, -1)
    return dx.transpose(0, 2, 1, 3), dwx, dwh, db


class LSTM(Layer):
    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim, self.hidden = in_dim, hidden
        self.params = {"wx": glorot((in_dim, 4 * hidden), rng),
                       "wh": glorot((hidden, 4 * hidden), rng),
                       "b": np.zeros(4 * hidden)}

    def forward(self, x, mask=None, train=False):
        keep = _keep_mask(mask, x.shape[:2])
        p = self.params
        hs, self._cache = _lstm_forward(x[None], keep[None], p["wx"][None],
                                        p["wh"][None], p["b"][None])
        return hs[0]

    def backward(self, dout):
        self._need_cache()
        dx, dwx, dwh, db = _lstm_backward(dout[None], self._cache,
                                          self.params["wx"][None],
                                          self.params["wh"][None])
        self.grads = {"wx": dwx[0], "wh": dwh[0], "b": db[0]}
        return dx[0]

    def spec(self):
        return {"kind": "lstm", "in": self.in_dim, "hidden": self.hidden}


class BLSTM(Layer):
    """Bidirectional LSTM; output concatenates forward and backward states,
    so the feature width doubles. Both directions run as one K=2
    recurrence over the input and its time reversal."""

    TAGS = ("fwd", "bwd")

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim, self.hidden = in_dim, hidden
        self.params = {}
        for tag in self.TAGS:
            self.params[f"wx_{tag}"] = glorot((in_dim, 4 * hidden), rng)
            self.params[f"wh_{tag}"] = glorot((hidden, 4 * hidden), rng)
            self.params[f"b_{tag}"] = np.zeros(4 * hidden)

    def _stacked(self, name):
        return np.stack([self.params[f"{name}_{tag}"] for tag in self.TAGS])

    def forward(self, x, mask=None, train=False):
        keep = _keep_mask(mask, x.shape[:2])
        hs, self._cache = _lstm_forward(
            np.stack([x, x[:, ::-1]]), np.stack([keep, keep[:, ::-1]]),
            self._stacked("wx"), self._stacked("wh"), self._stacked("b"))
        return np.concatenate([hs[0], hs[1][:, ::-1]], axis=-1)

    def backward(self, dout):
        self._need_cache()
        dh = np.stack([dout[:, :, :self.hidden],
                       dout[:, ::-1, self.hidden:]])
        dx, dwx, dwh, db = _lstm_backward(dh, self._cache,
                                          self._stacked("wx"),
                                          self._stacked("wh"))
        self.grads = {}
        for k, tag in enumerate(self.TAGS):
            self.grads.update({f"wx_{tag}": dwx[k], f"wh_{tag}": dwh[k],
                               f"b_{tag}": db[k]})
        return dx[0] + dx[1][:, ::-1]

    def spec(self):
        return {"kind": "blstm", "in": self.in_dim, "hidden": self.hidden}


class Network:
    """A plain layer stack sharing one mask across the whole forward pass."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x, mask=None, train=False):
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, mask=mask, train=train)
        return out

    def infer(self, x, mask=None):
        """``forward(train=False)`` without the stored passes backward
        needs: each layer's cache is dropped as soon as the layer returns,
        so a deep network holds one layer's stored pass at a time rather
        than all of them. Outputs equal ``forward``'s bit for bit; use
        ``forward`` where a backward pass follows."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, mask=mask, train=False)
            layer._cache = None
        return out

    def backward(self, dout):
        grad = dout
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self):
        """Yield (layer_index, name, array) triples in a stable order."""
        for idx, layer in enumerate(self.layers):
            for name in sorted(layer.params):
                yield idx, name, layer.params[name]

    def get_state(self) -> dict:
        return {(i, n): p.copy() for i, n, p in self.parameters()}

    def set_state(self, state: dict):
        """Load parameters saved by ``get_state``. The stored forward pass
        and gradients belong to the replaced parameters, so they are
        dropped; they also hold a whole batch's activations, which a
        trained network would otherwise carry (and pickle) for nothing."""
        for i, name, _ in list(self.parameters()):
            self.layers[i].params[name] = state[(i, name)].copy()
        for layer in self.layers:
            layer._cache, layer.grads = None, {}

    def specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]


def build_network(specs: list[dict], rng: np.random.Generator | int = 0) -> Network:
    """Instantiate a network from layer spec dicts; seeds params and dropout."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    layers: list[Layer] = []
    for spec in specs:
        kind = spec["kind"]
        if kind == "dense":
            layers.append(Dense(spec["in"], spec["out"], rng))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "layer_norm":
            layers.append(LayerNorm(spec["dim"]))
        elif kind == "dropout":
            sub = np.random.default_rng(int(rng.integers(2 ** 62)))
            layers.append(Dropout(spec["p"], sub))
        elif kind == "lstm":
            layers.append(LSTM(spec["in"], spec["hidden"], rng))
        elif kind == "blstm":
            layers.append(BLSTM(spec["in"], spec["hidden"], rng))
        elif kind == "log_softmax":
            layers.append(LogSoftmax())
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return Network(layers)


def save_checkpoint(net: Network, path: str) -> None:
    """Write a checkpoint directory: topology.json + one matrix per param."""
    os.makedirs(path, exist_ok=True)
    topo = {"layers": net.specs(), "params": []}
    for idx, name, value in net.parameters():
        fname = f"p{idx:03d}_{name}.avpf"
        arr = value if value.ndim == 2 else value[None, :]
        write_matrix(os.path.join(path, fname), arr)
        topo["params"].append({"layer": idx, "name": name,
                               "shape": list(value.shape), "file": fname})
    with open(os.path.join(path, "topology.json"), "w") as fh:
        json.dump(topo, fh, indent=2, sort_keys=True)


def load_checkpoint(path: str) -> Network:
    """Read a ``save_checkpoint`` directory back. A damaged checkpoint -- an
    unreadable file, a parameter missing or of the wrong shape, a
    non-finite value -- raises ``ArtifactError`` naming the file."""
    topo_path = os.path.join(path, "topology.json")
    with reading_artifact(topo_path):
        with open(topo_path) as fh:
            topo = json.load(fh)
        net = build_network(topo["layers"], rng=0)
        files = {(e["layer"], e["name"]): e["file"] for e in topo["params"]}
        shapes = {(i, name): p.shape for i, name, p in net.parameters()}
        if set(files) != set(shapes):
            raise ValueError("the listed parameters do not match the layers")
    for (idx, name), shape in shapes.items():
        file = os.path.join(path, files[idx, name])
        with reading_artifact(file):
            value = read_matrix(file)
            stored = shape if len(shape) == 2 else (1, *shape)
            if value.shape != stored:
                raise ValueError(f"layer {idx} {name} is {value.shape[0]}x"
                                 f"{value.shape[1]}, expected {stored}")
            if not np.isfinite(value).all():
                raise ValueError(f"layer {idx} {name} has non-finite values")
        net.layers[idx].params[name] = value.reshape(shape)
    return net
