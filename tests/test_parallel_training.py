"""Learned fusers of a seed train in forked worker processes, on items
built in slices on a fork pool, while the parent evaluates what needs no
trained model. The results must not depend on the worker count, the BLAS
thread count or whether the platform can fork; a failing or dying worker,
or a failure of the parent's own work, must end in a named error, never a
hang; and the parent must not keep the job its workers inherit."""

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import time
import warnings

import numpy as np
import pytest

from avfusion import blas, experiment
from avfusion.blas import single_blas_thread
from avfusion.cli import main
from avfusion.config import validate_config
from avfusion.corpus import WorldConfig, build_world
from avfusion.decode import build_decoding_graph

TWO_DFN = {
    "world": {"vocab_size": 3, "states_per_word": 2,
              "mean_duration_frames": 4.0, "calib_frames": 80,
              "calib_video_frames": 60},
    "corpus": {"train": 4, "val": 2, "test": 2,
               "min_words": 2, "max_words": 3},
    "snr_grid": [0],
    "noise_kinds": ["white"],
    "strategies": ["ao", "dfn-lstm", "dfn-blstm"],
    "seeds": [0],
    "training": {"lr0": 0.003, "batch_size": 4, "check_interval": 10,
                 "patience": 30, "max_steps": 30},
    "dfn": {"widths": [16, 8, 8], "hidden": 4, "scale": 1.0,
            "dropout": 0.1},
    "out_dir": "unused",
}

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the platform cannot fork; training runs in this process")
needs_openblas = pytest.mark.skipif(
    blas._openblas() is None, reason="numpy's bundled OpenBLAS not found")


def _blas_threads() -> int:
    return blas._openblas()[0]()


def _cpus(monkeypatch, n: int) -> None:
    """Pretend ``n`` usable CPUs: the fork pools get at most ``n``
    workers."""
    monkeypatch.setattr(experiment, "usable_cpus", lambda: n)


@contextlib.contextmanager
def _outer_blas_threads(n: int):
    """Set OpenBLAS's thread count outside the pin (no-op without it)."""
    funcs = blas._openblas()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging if the body outlives ``seconds``."""
    def expire(*_):
        raise TimeoutError(f"still waiting after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def setup():
    cfg = validate_config(json.loads(json.dumps(TWO_DFN)))
    world = build_world(WorldConfig(**cfg["world"]), 0)
    return cfg, world, build_decoding_graph(world, cfg["lm_scale"])


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "two_dfn.json"
    path.write_text(json.dumps(TWO_DFN))
    return str(path)


def _train(setup, parent_work=None):
    cfg, world, graph = setup
    return experiment.train_strategy_models(cfg, world, graph, 0,
                                            cfg["strategies"], parent_work)


@needs_fork
def test_pool_and_serial_training_bit_identical(setup, monkeypatch):
    _cpus(monkeypatch, 2)
    pooled, pooled_ce = _train(setup)
    monkeypatch.setattr(experiment, "_CAN_FORK", False)
    serial, serial_ce = _train(setup)
    assert list(pooled) == list(serial) == ["dfn-lstm", "dfn-blstm"]
    assert pooled_ce == serial_ce
    for strat in serial:
        a, b = pooled[strat].net.get_state(), serial[strat].net.get_state()
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), (strat, key)
        assert pooled[strat].input_mean.tobytes() == \
            serial[strat].input_mean.tobytes()


def test_sweep_bytes_independent_of_workers_and_blas_threads(
        cfg_path, tmp_path, monkeypatch):
    outputs = []
    for cpus, threads in ((2, 2), (1, 1)):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        with _outer_blas_threads(threads):
            assert main(["sweep", "--config", cfg_path,
                         "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("sweep.json", "sweep.csv")])
    assert outputs[0] == outputs[1]


@needs_openblas
def test_pin_sets_one_thread_and_restores():
    with _outer_blas_threads(2):
        before = _blas_threads()
        with single_blas_thread():
            assert _blas_threads() == 1
        assert _blas_threads() == before


def test_missing_openblas_warns_once_and_runs_unpinned(monkeypatch):
    monkeypatch.setattr(blas.glob, "glob", lambda pattern: [])
    blas._openblas.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                with single_blas_thread():
                    pass
    finally:
        blas._openblas.cache_clear()
    assert [str(w.message) for w in caught] == [
        "numpy's bundled OpenBLAS thread controls were not found; the BLAS "
        "thread count is left as is, so results may depend on it"]


@needs_fork
@needs_openblas
def test_blas_pinned_inside_workers(setup, monkeypatch):
    def fake_train_dfn(*args, **kwargs):
        return (os.getpid(), _blas_threads()), {"best_val": 0.0}

    monkeypatch.setattr(experiment, "train_dfn", fake_train_dfn)
    _cpus(monkeypatch, 2)
    with _outer_blas_threads(2):
        models, _ = _train(setup)
    seen = list(models.values())
    assert all(pid != os.getpid() for pid, _ in seen)
    assert [threads for _, threads in seen] == [1, 1]


def _failing_blstm(parent_pid: int, die: bool):
    """A train_dfn that fails on the BLSTM only, inside a worker; with
    ``die`` the worker exits without raising."""
    real = experiment.train_dfn

    def train_dfn(train_items, val_items, variant, *args, **kwargs):
        if variant == "blstm":
            if os.getpid() == parent_pid:
                raise AssertionError("expected to run in a worker")
            if die:
                os._exit(3)
            raise ValueError("boom")
        return real(train_items, val_items, variant, *args, **kwargs)

    return train_dfn


@needs_fork
def test_worker_exception_names_strategy_and_seed(setup, monkeypatch):
    monkeypatch.setattr(experiment, "train_dfn",
                        _failing_blstm(os.getpid(), die=False))
    _cpus(monkeypatch, 2)
    with pytest.raises(experiment.TrainingError,
                       match=r"dfn-blstm for seed 0 failed: ValueError: boom"):
        _train(setup)
    assert experiment._WORKER_JOB is None


@needs_fork
def test_dead_worker_raises_instead_of_hanging(setup, monkeypatch):
    monkeypatch.setattr(experiment, "train_dfn",
                        _failing_blstm(os.getpid(), die=True))
    _cpus(monkeypatch, 2)
    with _deadline(120), pytest.raises(experiment.TrainingError,
                                       match=r"worker died.*seed 0"):
        _train(setup)
    assert experiment._WORKER_JOB is None


@needs_fork
def test_failure_stops_other_workers_at_once(setup, monkeypatch):
    def train_dfn(train_items, val_items, variant, *args, **kwargs):
        if variant == "blstm":
            raise ValueError("boom")
        time.sleep(30)
        raise AssertionError("the LSTM worker was not stopped")

    monkeypatch.setattr(experiment, "train_dfn", train_dfn)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with _deadline(120), pytest.raises(
            experiment.TrainingError,
            match=r"dfn-blstm for seed 0 failed: ValueError: boom"):
        _train(setup)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []
    assert experiment._WORKER_JOB is None


@needs_fork
@pytest.mark.parametrize("die", [False, True], ids=["raises", "dies"])
def test_train_command_exits_1_on_worker_failure(cfg_path, tmp_path,
                                                 monkeypatch, capsys, die):
    monkeypatch.setattr(experiment, "train_dfn",
                        _failing_blstm(os.getpid(), die=die))
    _cpus(monkeypatch, 2)
    with _deadline(120):
        code = main(["train", "--config", cfg_path,
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: TrainingError: ")
    assert "dfn-blstm" in err and "seed 0" in err


@needs_fork
@pytest.mark.parametrize("with_parent_work", [True, False],
                         ids=["with_parent_work", "alone"])
def test_single_learned_strategy_forks(setup, monkeypatch,
                                       with_parent_work):
    cfg, world, graph = setup
    ran = []

    def fake_train_dfn(*args, **kwargs):
        return os.getpid(), {"best_val": 0.5}

    monkeypatch.setattr(experiment, "train_dfn", fake_train_dfn)
    _cpus(monkeypatch, 2)
    models, val_ce = experiment.train_strategy_models(
        cfg, world, graph, 0, ["ao", "dfn-lstm"],
        (lambda: ran.append(os.getpid())) if with_parent_work else None)
    assert ran == ([os.getpid()] if with_parent_work else [])
    assert models["dfn-lstm"] != os.getpid()
    assert val_ce == {"dfn-lstm": 0.5}


def _items_digest(train_items, val_items, *args, **kwargs):
    """A train_dfn / train_weight_estimator stand-in whose "model" is a
    SHA-256 over every array of the items it was given, in order."""
    digest = hashlib.sha256()
    for item in train_items + val_items:
        for key in sorted(item):
            values = item[key]
            for arr in values if isinstance(values, list) else [values]:
                digest.update(key.encode() + np.asarray(arr).tobytes())
    return digest.hexdigest(), {"best_val": 0.0}


def test_pool_items_equal_serial_items(setup, monkeypatch):
    cfg, world, graph = setup
    monkeypatch.setattr(experiment, "train_dfn", _items_digest)
    monkeypatch.setattr(experiment, "train_weight_estimator", _items_digest)
    strategies = ["dsw-mse", "dfn-lstm"]  # dsw-mse adds the oracle targets
    digests = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        models, _ = experiment.train_strategy_models(cfg, world, graph, 0,
                                                     strategies)
        digests[cpus] = models
    assert digests[2] == digests[1]
    assert len(set(digests[1].values())) == 1


def test_mixed_sweep_bytes_independent_of_workers(tmp_path, monkeypatch):
    doc = json.loads(json.dumps(TWO_DFN))
    doc["strategies"] = ["ao", "early", "static", "oracle", "dsw-ce",
                         "dfn-blstm"]
    cfg_path = tmp_path / "mixed.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["sweep", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("sweep.json", "sweep.csv")])
    assert outputs[0] == outputs[1]


@needs_fork
def test_parent_work_failure_stops_workers_at_once(setup, monkeypatch):
    def train_dfn(*args, **kwargs):
        time.sleep(30)
        raise AssertionError("the training worker was not stopped")

    def parent_work():
        raise ValueError("parent boom")

    monkeypatch.setattr(experiment, "train_dfn", train_dfn)
    _cpus(monkeypatch, 2)
    start = time.monotonic()
    with _deadline(120), pytest.raises(ValueError, match="parent boom"):
        _train(setup, parent_work)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []
    assert experiment._WORKER_JOB is None


@needs_fork
@pytest.mark.parametrize("die", [False, True], ids=["raises", "dies"])
def test_worker_failure_during_parent_work_is_raised_after_it(
        setup, monkeypatch, die):
    def train_dfn(train_items, val_items, variant, *args, **kwargs):
        if variant == "lstm":
            return "lstm", {"best_val": 0.0}
        time.sleep(0.5)
        if die:
            os._exit(3)
        raise ValueError("boom")

    finished = []

    def parent_work():
        time.sleep(2)
        finished.append(experiment._WORKER_JOB is None)

    monkeypatch.setattr(experiment, "train_dfn", train_dfn)
    _cpus(monkeypatch, 2)
    message = (r"worker died while training dfn-blstm for seed 0" if die
               else r"dfn-blstm for seed 0 failed: ValueError: boom")
    with _deadline(120), pytest.raises(experiment.TrainingError,
                                       match=message):
        _train(setup, parent_work)
    assert finished == [True]
    assert multiprocessing.active_children() == []
    assert experiment._WORKER_JOB is None
