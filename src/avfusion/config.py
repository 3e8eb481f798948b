"""Strict JSON experiment configuration: unknown keys are rejected with
their full field path, missing keys fall back to defaults, and value types
are checked against the default document."""

from __future__ import annotations

import copy
import json

from .corpus import NOISE_KINDS, WorldConfig
from .experiment import ALL_STRATEGIES
from .nn import TrainConfig


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


# the world and training defaults are WorldConfig's and TrainConfig's own
DEFAULT_CONFIG: dict = {
    "world": WorldConfig().to_doc(),
    "corpus": {
        "train": 200,
        "val": 16,
        "test": 24,
        "min_words": 3,
        "max_words": 6,
    },
    "snr_grid": [-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 9.0],
    "noise_kinds": ["white", "babble"],
    "strategies": ["ao", "va", "vs", "early", "static", "oracle",
                   "dfn-lstm", "dfn-blstm"],
    "seeds": [0, 1, 2, 3, 4],
    "lm_scale": 1.0,
    "oracle_mode": "renormalized",
    "training": {k: v for k, v in vars(TrainConfig()).items()
                 if k != "seed"},
    "dfn": {
        "widths": [256, 128, 64],
        "hidden": 64,
        "scale": 0.5,
        "dropout": 0.15,
    },
    "estimator": {
        "hidden": 32,
    },
    "out_dir": "out",
}


def _type_name(value) -> str:
    return type(value).__name__


def _check_value(value, default, path: str):
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {_type_name(value)}")
        return _merge(value, default, path)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {_type_name(value)}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {_type_name(value)}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {_type_name(value)}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {_type_name(value)}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {_type_name(value)}")
        if not value:
            raise ConfigError(f"{path}: must not be empty")
        proto = default[0]
        return [_check_value(v, proto, f"{path}[{i}]")
                for i, v in enumerate(value)]
    raise ConfigError(f"{path}: unsupported config value")


def _merge(doc: dict, defaults: dict, path: str = "") -> dict:
    out = {}
    for key in doc:
        if key not in defaults:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {where}")
    for key, default in defaults.items():
        where = f"{path}.{key}" if path else key
        if key in doc:
            out[key] = _check_value(doc[key], default, where)
        else:
            out[key] = copy.deepcopy(default)
    return out


def validate_config(doc: dict) -> dict:
    """Merge a raw config dict with defaults, rejecting unknown keys and
    type or value violations with their field path."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(doc, DEFAULT_CONFIG)

    for section, make in (("world", WorldConfig),
                          ("training", TrainConfig)):
        try:
            make(**cfg[section])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    if len(cfg["world"]["f0_range"]) != 2:
        raise ConfigError("world.f0_range: expected [low, high]")

    for i, s in enumerate(cfg["strategies"]):
        if s not in ALL_STRATEGIES:
            raise ConfigError(
                f"strategies[{i}]: unknown strategy {s!r}; choose from "
                f"{sorted(ALL_STRATEGIES)}")
    for i, k in enumerate(cfg["noise_kinds"]):
        if k not in NOISE_KINDS:
            raise ConfigError(f"noise_kinds[{i}]: unknown kind {k!r}")
    if cfg["oracle_mode"] not in ("linear", "renormalized"):
        raise ConfigError(
            f"oracle_mode: must be 'linear' or 'renormalized', "
            f"got {cfg['oracle_mode']!r}")
    c = cfg["corpus"]
    if c["min_words"] < 1 or c["max_words"] < c["min_words"]:
        raise ConfigError("corpus: need 1 <= min_words <= max_words")
    if min(c["train"], c["val"], c["test"]) < 1:
        raise ConfigError("corpus: split sizes must be >= 1")
    if len(cfg["dfn"]["widths"]) != 3:
        raise ConfigError("dfn.widths: expected exactly 3 layer widths")
    if not 0.0 <= cfg["dfn"]["dropout"] < 1.0:
        raise ConfigError("dfn.dropout: must be in [0, 1)")
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(doc)
