"""Central finite-difference verification of the hand-written gradients."""

from __future__ import annotations

import numpy as np

from .layers import Dropout, Layer, Network

FD_STEP = 1e-5
DROPOUT_SEED = 1234  # every dropout mask of a check is drawn from it


def numerical_gradient(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function, element by element."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def _reseed_dropout(net: Network):
    for layer in net.layers:
        if isinstance(layer, Dropout):
            layer.rng = np.random.default_rng(DROPOUT_SEED)


def check_gradients(model, x: np.ndarray, mask: np.ndarray | None = None,
                    train: bool = False, h: float = FD_STEP,
                    seed: int = 7) -> dict[str, float]:
    """Compare analytic gradients to finite differences under a fixed random
    linear readout; returns the max relative error per gradient ('input'
    plus one entry per parameter)."""
    net = model if isinstance(model, Network) else Network([model])
    x = np.asarray(x, dtype=np.float64)
    proj_rng = np.random.default_rng(seed)
    _reseed_dropout(net)
    out = net.forward(x, mask=mask, train=train)
    proj = proj_rng.standard_normal(out.shape)

    def scalar(x_in):
        _reseed_dropout(net)
        return float(np.sum(net.forward(x_in, mask=mask, train=train) * proj))

    _reseed_dropout(net)
    net.forward(x, mask=mask, train=train)
    dx = net.backward(proj)
    errors = {"input": max_relative_error(dx, numerical_gradient(scalar, x, h))}
    for idx, name, param in net.parameters():
        analytic = net.layers[idx].grads[name]

        def scalar_param(p, _idx=idx, _name=name):
            net.layers[_idx].params[_name] = p
            _reseed_dropout(net)
            val = float(np.sum(net.forward(x, mask=mask, train=train) * proj))
            return val

        numeric = numerical_gradient(scalar_param, param.copy(), h)
        net.layers[idx].params[name] = param
        errors[f"layer{idx}.{name}"] = max_relative_error(analytic, numeric)
    return errors
