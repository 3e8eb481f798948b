"""The benchmark wraps names in avfusion's modules from outside; each one it
names must exist, or every traced round of the benchmark fails, and the
sweep must call the ones it times and captures in this process.

``perfbench/tracing.patched`` looks each name up in ``owner.__dict__``, so
a name that is only inherited, or that a refactor dropped, raises there.
"""

import ast
import importlib
import json
import os
import sys
from pathlib import Path

import avfusion
from avfusion import experiment, forkpool
from avfusion.config import validate_config
from avfusion.corpus import WorldConfig, build_world

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


def _unused_imports():
    """(module, name) of every import under ``src/avfusion`` marked
    ``# noqa: F401``, i.e. imported without being called."""
    root = Path(avfusion.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        module = ".".join(("avfusion",) + path.relative_to(root)
                          .with_suffix("").parts)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                found += [(module.removesuffix(".__init__"),
                           alias.asname or alias.name)
                          for alias in node.names]
    return found


def test_unused_imports_are_wrapped_by_the_benchmark():
    """An import kept unused only so that the benchmark can wrap the name
    on that module must still have its row in the benchmark's tables;
    once the row is gone, so must the import be."""
    harness = object.__new__(workloads.Harness)
    wrapped = {(owner, attr) for owner, attr, *_ in
               tracing._targets() + harness._patches()}
    stale = [f"{module}.{name}" for module, name in _unused_imports()
             if (importlib.import_module(module), name) not in wrapped]
    assert stale == []


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
    not in a worker, where the captures would stay empty. Its capture
    wrapper forwards ``dfn_fuse``'s three positional arguments only."""
    monkeypatch.setattr(forkpool, "usable_cpus", lambda: 2)
    names = ("train_strategy_models", "dfn_fuse", "oracle_weights_batch",
             "viterbi_decode_batch")
    pids: dict = {name: [] for name in names}
    dfn_calls = []
    for name in names:
        def recorded(*args, real=getattr(experiment, name), name=name,
                     **kwargs):
            pids[name].append(os.getpid())
            out = real(*args, **kwargs)
            if name == "dfn_fuse":
                dfn_calls.append((len(args), kwargs, out.shape[0]))
            return out
        monkeypatch.setattr(experiment, name, recorded)
    cfg = validate_config(json.loads(json.dumps(GUARD_CONFIG)))
    experiment.run_sweep(cfg)
    assert pids["train_strategy_models"] == [os.getpid()] * 2
    for name in names[1:]:
        assert pids[name], name
        assert set(pids[name]) == {os.getpid()}, name
    # per seed: the dsw-mse targets of all items, then the oracle
    # strategy's weights of each condition (0 dB and clean)
    assert len(pids["oracle_weights_batch"]) == 2 * (1 + 2)
    # per seed: one decode per condition for the model-free strategies,
    # one for the learned ones
    assert len(pids["viterbi_decode_batch"]) == 2 * (2 + 1)
    # per seed, the one DFN fuses every test cell of every condition in
    # one call of the three positional arguments the benchmark forwards
    conditions = len(experiment.condition_grid(cfg))
    frames = [conditions * sum(
        utt.num_audio_frames for utt in experiment.test_split(
            cfg, build_world(WorldConfig(**cfg["world"]), seed)))
        for seed in cfg["seeds"]]
    assert dfn_calls == [(3, {}, n) for n in frames]
