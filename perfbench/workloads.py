"""The benchmark's workloads: config generation from the workload seed,
set-up, and one round of work through avfusion's public entry points.

Every workload sets ``patience`` to ``max_steps``, so early stopping never
fires and each round takes the same number of optimizer steps whatever the
floating-point path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from pathlib import Path

from avfusion import cli, experiment
from avfusion.config import validate_config
from avfusion.corpus import WorldConfig, build_world
from avfusion.decode import build_decoding_graph

import checks
from tracing import patched

# configs/trend.json's world and dfn sections, copied so that an edit to
# that config does not silently change the benchmark
TREND_WORLD = {
    "vocab_size": 8, "states_per_word": 3, "mean_duration_frames": 5.0,
    "excitation_noise": 0.10, "pixel_noise": 0.07, "video_contrast": 0.08,
    "glyph_similarity": 0.85, "audio_obs_dim": 8, "vs_obs_dim": 12,
    "calib_snrs": [9.0, 0.0, -9.0], "temp_a": 1.5,
}
TREND_DFN = {"widths": [256, 128, 64], "hidden": 64, "scale": 0.5,
             "dropout": 0.15}
STAGES = ("synth", "extract", "train", "fuse", "decode", "evaluate")
THREADED_STAGES = ("extract", "fuse")
TEST_OFFSET = 200_000  # experiment._sample_split's offset for the test split

SEED_STRIDE = 10_000  # world seeds of workload seed n start at n * SEED_STRIDE

# Two workloads: an oracle-heavy `evaluate` sweep (two seeds, the full grid)
# was dropped because its run_s and eval_cells_per_s spread by 0.21 to 0.28
# of their medians across seeds (see README.md). dsw-mse is left out: its
# training items solve the oracle one utterance at a time, and the few that
# run the solver to its iteration cap made train_s spread by 0.24 to 0.49.
# `inputs` is how many distinct inputs a run works through: a run covers
# the same inputs however fast the code is (see run.py).
WORKLOADS = {
    # nn recurrence and optimizer: two DFNs for a fixed step count, a
    # small test set on a short grid
    "train-dfn": dict(
        inputs=3, worlds=1, train=100, val=8, test=32, grid=[-6, 6],
        strategies=["ao", "dfn-lstm", "dfn-blstm"], steps=200),
    # the staged CLI chain in one process: one utterance at a time
    # (unbatched oracle and Viterbi), AVPF, WAV and raw-video files, the
    # thread pool, joint posteriors and DSW training
    "staged": dict(
        inputs=7, worlds=1, train=30, val=6, test=3, grid=[0],
        strategies=["ao", "early", "static", "oracle", "dsw-ce",
                    "dfn-blstm"], steps=100),
}


def make_config(name: str, seed: int, index: int) -> dict:
    """The raw config document of input ``index`` of a workload seed."""
    w = WORKLOADS[name]
    first = seed * SEED_STRIDE + index * w["worlds"]
    return {
        "world": dict(TREND_WORLD),
        "dfn": dict(TREND_DFN),
        "corpus": {"train": w["train"], "val": w["val"], "test": w["test"],
                   "min_words": 3, "max_words": 6},
        "snr_grid": list(w["grid"]),
        "noise_kinds": ["white", "babble"],
        "strategies": list(w["strategies"]),
        "seeds": list(range(first, first + w["worlds"])),
        "lm_scale": 1.0,
        "oracle_mode": "renormalized",
        "training": {"lr0": 0.003, "lr_decay": 0.8, "batch_size": 10,
                     "check_interval": 50, "patience": w["steps"],
                     "max_steps": w["steps"]},
        "estimator": {"hidden": 16},
        "out_dir": "out",
    }


def condition_labels(cfg: dict) -> list[str]:
    return [f"{float(s):g}" for s in cfg["snr_grid"]] + ["clean"]


def expected_cells(cfg: dict) -> set:
    """Every (seed, strategy, condition, utt_id) the workload must score."""
    return {(int(seed), s, label, f"u{TEST_OFFSET + i:06d}")
            for seed in cfg["seeds"] for s in cfg["strategies"]
            for label in condition_labels(cfg)
            for i in range(cfg["corpus"]["test"])}


def row_averages(out_dir: Path) -> dict:
    """Each strategy's WER averaged over conditions (and seeds), as the
    program reports it in sweep.json or eval/results.json."""
    path = out_dir / "sweep.json"
    if not path.exists():
        path = out_dir / "eval" / "results.json"
    wer = json.loads(path.read_text())["wer"]
    return {s: sum(c["mean"] for c in by_lab.values()) / len(by_lab)
            for s, by_lab in wer.items()}


class Harness:
    """Set-up state of one workload, and the patches that time training
    and capture in-memory outputs for the checks.

    ``prepare`` builds an input's config and its first seed's world and
    decoding graph outside the timed round (for input 0 this is the
    benchmark's set-up); the sweep workloads hand that world to
    ``run_sweep`` through its module's ``build_world`` name. The patches
    are in place only while a round runs.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.index = None
        self.train_s = 0.0
        self.captures = checks.Captures()
        self.prepare(0)

    def prepare(self, index: int) -> None:
        if index == self.index:
            return
        self.index = index
        self.cfg = validate_config(make_config(self.name, self.seed, index))
        self.expected = expected_cells(self.cfg)
        self.first_seed = int(self.cfg["seeds"][0])
        self.world_config = WorldConfig(**self.cfg["world"])
        self.world = build_world(self.world_config, self.first_seed)
        self.graph = build_decoding_graph(self.world, self.cfg["lm_scale"])

    def _patches(self) -> list:
        """(owner, attribute, wrap) rows for ``tracing.patched``."""
        harness = self

        def world_for(real):
            def build(config, seed=0):
                if seed == harness.first_seed and \
                        config == harness.world_config:
                    return harness.world
                return real(config, seed)
            return build

        def graph_for(real):
            def build(world, lm_scale=1.0):
                if world is harness.world and \
                        lm_scale == harness.cfg["lm_scale"]:
                    return harness.graph
                return real(world, lm_scale)
            return build

        def timed(real):
            def train(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return real(*args, **kwargs)
                finally:
                    harness.train_s += time.perf_counter() - start
            return train

        def capture_oracle(real):
            def oracle(log_posts, alignment, mode="renormalized"):
                out = real(log_posts, alignment, mode)
                harness.captures.add_oracle(log_posts, alignment, out.weights)
                return out
            return oracle

        def capture_oracle_batch(real):
            def oracle_batch(log_posts_list, alignments, mode="renormalized"):
                out = real(log_posts_list, alignments, mode)
                for logs, align, w in zip(log_posts_list, alignments, out):
                    harness.captures.add_oracle(logs, align, w.weights)
                return out
            return oracle_batch

        def capture_dfn(real):
            def fuse(posteriors, reliability, model):
                out = real(posteriors, reliability, model)
                harness.captures.add_dfn(model, out)
                return out
            return fuse

        return [
            (experiment, "build_world", world_for),
            (experiment, "build_decoding_graph", graph_for),
            (experiment, "train_strategy_models", timed),
            (experiment, "oracle_weights", capture_oracle),
            (experiment, "oracle_weights_batch", capture_oracle_batch),
            (experiment, "dfn_fuse", capture_dfn),
        ]

    def run_round(self, out_dir: Path, tracer=None) -> dict:
        """One round of the workload into a fresh ``out_dir``; returns its
        timings, and the traceback if the program raised. The checks run
        afterwards, outside the timed region. The tracer's patches go on
        top of the harness's, so a traced call includes its capture."""
        self.train_s = 0.0
        self.captures = checks.Captures()
        out_dir.mkdir(parents=True)
        table = self._patches() + (tracer.patches() if tracer else [])
        error = None
        start = time.perf_counter()
        try:
            with patched(table):
                if self.name == "staged":
                    train_s = self._staged(out_dir, tracer)
                else:
                    result = experiment.run_sweep(self.cfg)
                    experiment.write_sweep_csv(out_dir / "sweep.csv", result)
                    experiment.write_sweep_json(out_dir / "sweep.json",
                                                result)
                    train_s = self.train_s
        except Exception:
            error = traceback.format_exc()
            train_s = self.train_s
        end = time.perf_counter()
        return {"start": start, "end": end, "run_s": end - start,
                "train_s": train_s, "cells": len(self.expected),
                "error": error}

    def _staged(self, out_dir: Path, tracer) -> float:
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(json.dumps(self.cfg))
        threads = str(os.cpu_count() or 1)
        train_s = 0.0
        for stage in STAGES:
            argv = [stage, "--config", str(cfg_path), "--out", str(out_dir)]
            if stage in THREADED_STAGES:
                argv += ["--threads", threads]
            span = tracer.open(f"cli.{stage}_s") if tracer else None
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if stage == "train":
                train_s = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
            if code != 0:
                raise RuntimeError(f"avfusion {stage} exited with {code}")
        return train_s

    def check(self, out_dir: Path) -> set:
        """The cells of the last round that fail an independent check."""
        if self.name == "staged":
            return checks.check_staged(out_dir, self.expected, self.graph,
                                       self.captures)
        return checks.check_sweep(out_dir, self.expected,
                                  self.world.config.num_states, self.captures)
