"""The benchmark wraps names in avfusion's modules from outside; each one it
names must exist, or every traced round of the benchmark fails, and the
sweep must call the ones it times and captures in this process.

``perfbench/tracing.patched`` looks each name up in ``owner.__dict__``, so
a name that is only inherited, or that a refactor dropped, raises there.
"""

import json
import os
import sys
from pathlib import Path

from avfusion import experiment
from avfusion.config import validate_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _unbound(rows) -> list:
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in rows if attr not in vars(owner)]


def test_tracer_targets_are_bound():
    assert _unbound(tracing._targets()) == []


def test_harness_patches_are_bound():
    # object.__new__ skips __init__, which would build a world
    harness = object.__new__(workloads.Harness)
    assert _unbound(harness._patches()) == []


GUARD_CONFIG = {
    "world": {"vocab_size": 3, "states_per_word": 2,
              "mean_duration_frames": 4.0, "calib_frames": 80,
              "calib_video_frames": 60},
    "corpus": {"train": 4, "val": 2, "test": 2,
               "min_words": 2, "max_words": 3},
    "snr_grid": [0],
    "noise_kinds": ["white"],
    "strategies": ["ao", "oracle", "dsw-mse", "dfn-lstm"],
    "seeds": [0, 1],
    "training": {"lr0": 0.003, "batch_size": 4, "check_interval": 10,
                 "patience": 20, "max_steps": 20},
    "dfn": {"widths": [16, 8, 8], "hidden": 4, "scale": 1.0,
            "dropout": 0.1},
    "out_dir": "unused",
}


def test_sweep_calls_the_benchmark_hooks_in_this_process(monkeypatch):
    """The benchmark times ``train_strategy_models`` as a round's training
    and checks the outputs of ``dfn_fuse`` and ``oracle_weights_batch``
    that it captures in this process: ``run_sweep`` must call the first
    once per seed, and the others (with ``viterbi_decode_batch``) here,
    not in a worker, where the captures would stay empty."""
    monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
    names = ("train_strategy_models", "dfn_fuse", "oracle_weights_batch",
             "viterbi_decode_batch")
    pids: dict = {name: [] for name in names}
    for name in names:
        def recorded(*args, real=getattr(experiment, name), name=name,
                     **kwargs):
            pids[name].append(os.getpid())
            return real(*args, **kwargs)
        monkeypatch.setattr(experiment, name, recorded)
    experiment.run_sweep(validate_config(json.loads(json.dumps(
        GUARD_CONFIG))))
    assert pids["train_strategy_models"] == [os.getpid()] * 2
    for name in names[1:]:
        assert pids[name], name
        assert set(pids[name]) == {os.getpid()}, name
    # per seed: the dsw-mse targets of all items, then the oracle
    # strategy's weights of each condition (0 dB and clean)
    assert len(pids["oracle_weights_batch"]) == 2 * (1 + 2)
