"""End-to-end tests of the command line pipeline and its exit codes."""

import json
import shutil
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from avfusion import cli, corpus, experiment
from avfusion.cli import main
from avfusion.config import validate_config
from avfusion.core import STREAMS, read_manifest, read_matrix, write_matrix

TINY = {
    "world": {
        "vocab_size": 3,
        "states_per_word": 2,
        "mean_duration_frames": 4.0,
        "calib_frames": 80,
        "calib_video_frames": 60,
    },
    "corpus": {"train": 2, "val": 1, "test": 2,
               "min_words": 2, "max_words": 3},
    "snr_grid": [0],
    "noise_kinds": ["white"],
    "strategies": ["ao", "static"],
    "seeds": [0],
    "lm_scale": 1.0,
    "training": {"lr0": 0.002, "batch_size": 4, "check_interval": 10,
                 "patience": 20, "max_steps": 40},
    "out_dir": "unused",
}


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def pipeline_out(tiny_cfg, tmp_path_factory):
    """synth + extract artifacts shared by the read-back tests."""
    out = str(tmp_path_factory.mktemp("pipe"))
    assert main(["synth", "--config", tiny_cfg, "--out", out]) == 0
    assert main(["extract", "--config", tiny_cfg, "--out", out]) == 0
    return out


class TestExitCodes:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage: avfusion" in out
        for command in ("synth", "extract", "train", "fuse", "decode",
                        "evaluate", "sweep", "report"):
            assert command in out

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"wrold": {}}))
        assert main(["synth", "--config", str(p), "--out",
                     str(tmp_path / "o")]) == 2
        assert "wrold" in capsys.readouterr().err

    def test_bad_config_type_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"lm_scale": "big"}))
        assert main(["sweep", "--config", str(p), "--out",
                     str(tmp_path / "o")]) == 2
        assert "lm_scale" in capsys.readouterr().err

    def test_unknown_strategy_exits_2(self, tiny_cfg, tmp_path, capsys):
        assert main(["fuse", "--config", tiny_cfg, "--out",
                     str(tmp_path / "o"), "--strategy", "magic"]) == 2
        assert "magic" in capsys.readouterr().err

    def test_snr_outside_grid_exits_2(self, tiny_cfg, tmp_path, capsys):
        assert main(["decode", "--config", tiny_cfg, "--out",
                     str(tmp_path / "o"), "--snr", "17"]) == 2
        assert "17" in capsys.readouterr().err

    def test_extract_snr_outside_grid_exits_2(self, tiny_cfg, pipeline_out,
                                              capsys):
        assert main(["extract", "--config", tiny_cfg, "--out", pipeline_out,
                     "--snr", "5"]) == 2
        assert "not in the configured grid" in capsys.readouterr().err

    def test_bad_threads_exits_2(self, tiny_cfg, tmp_path, capsys):
        assert main(["extract", "--config", tiny_cfg, "--out",
                     str(tmp_path / "o"), "--threads", "zero"]) == 2
        assert "threads" in capsys.readouterr().err

    def test_missing_artifact_names_producer(self, tiny_cfg, tmp_path,
                                             capsys):
        assert main(["extract", "--config", tiny_cfg, "--out",
                     str(tmp_path / "empty")]) == 1
        err = capsys.readouterr().err
        assert "synth" in err

    def test_extract_rejects_another_configs_manifest(self, tiny_cfg,
                                                      tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["synth", "--config", tiny_cfg, "--out", out]) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(TINY, corpus=dict(TINY["corpus"],
                                                           test=3))))
        assert main(["extract", "--config", str(other), "--out", out]) == 1
        assert "synth" in capsys.readouterr().err

    def test_decode_before_fuse_exits_1(self, tiny_cfg, pipeline_out,
                                        capsys):
        assert main(["decode", "--config", tiny_cfg, "--out",
                     pipeline_out]) == 1
        assert "fuse" in capsys.readouterr().err

    @pytest.mark.parametrize("strategies", [["ao", "static"],
                                            ["ao", "dsw-ce"]])
    def test_fuse_before_train_exits_1(self, tmp_path, capsys, strategies):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TINY, strategies=strategies)))
        assert main(["fuse", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "streams.seed0.json" in err and "`train`" in err

    def test_report_before_sweep_exits_1(self, tiny_cfg, tmp_path, capsys):
        assert main(["report", "--config", tiny_cfg, "--out",
                     str(tmp_path / "empty")]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "avfusion.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout


class TestThreadsSelectNothing:
    def test_cells_are_built_in_the_calling_thread(self, tiny_cfg, tmp_path,
                                                   monkeypatch):
        common = ["--config", tiny_cfg, "--out", str(tmp_path / "o"),
                  "--threads", "2"]
        assert main(["synth"] + common) == 0
        assert main(["train"] + common) == 0
        real = experiment.build_cell
        builders: dict = {}
        for stage in ("extract", "fuse"):
            def record(*args, stage=stage):
                builders.setdefault(stage, set()).add(threading.get_ident())
                return real(*args)

            monkeypatch.setattr(experiment, "build_cell", record)
            assert main([stage] + common) == 0
        assert builders == {"extract": {threading.main_thread().ident},
                            "fuse": {threading.main_thread().ident}}


class TestSynthArtifacts:
    def test_layout_and_counts(self, pipeline_out):
        out = pipeline_out
        world_doc = json.loads(open(f"{out}/world.json").read())
        assert "vocabulary" in world_doc
        _, records = read_manifest(f"{out}/manifest.json")
        assert len(records) == TINY["corpus"]["test"]
        for rec in records:
            # one wav per condition (grid + clean)
            assert sorted(rec.audio_paths) == ["0", "clean"]

    def test_alignment_lengths_match(self, pipeline_out):
        out = pipeline_out
        _, records = read_manifest(f"{out}/manifest.json")
        for rec in records:
            align = read_matrix(f"{out}/{rec.alignment_path}")
            assert align.shape == (rec.num_audio_frames, 1)

    def test_synth_idempotent(self, tiny_cfg, pipeline_out):
        manifest_before = open(f"{pipeline_out}/manifest.json", "rb").read()
        world_before = open(f"{pipeline_out}/world.json", "rb").read()
        assert main(["synth", "--config", tiny_cfg, "--out",
                     pipeline_out]) == 0
        # synth rewrites its own records; extract-added paths are dropped,
        # so compare the world and the per-utterance identity fields
        assert open(f"{pipeline_out}/world.json", "rb").read() == world_before
        before = json.loads(manifest_before)
        after = json.loads(open(f"{pipeline_out}/manifest.json").read())
        for b, a in zip(before["utterances"], after["utterances"]):
            assert b["id"] == a["id"]
            assert b["transcript"] == a["transcript"]
            assert b["audio"] == a["audio"]
        # re-run extract so later tests see the enriched manifest again
        assert main(["extract", "--config", tiny_cfg, "--out",
                     pipeline_out]) == 0

    def test_extracted_posteriors_are_stochastic(self, pipeline_out):
        out = pipeline_out
        _, records = read_manifest(f"{out}/manifest.json")
        rec = records[0]
        post = read_matrix(f"{out}/{rec.posterior_paths['A']['clean']}")
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-5)
        rel = read_matrix(f"{out}/{rec.posterior_paths['REL']['clean']}")
        assert rel.shape[0] == rec.num_audio_frames


class TestSweepAndReport:
    def test_sweep_twice_byte_identical(self, tiny_cfg, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["sweep", "--config", tiny_cfg, "--out",
                         str(out)]) == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_report_columns(self, tiny_cfg, tmp_path):
        out = tmp_path / "rep"
        assert main(["sweep", "--config", tiny_cfg, "--out", str(out)]) == 0
        assert main(["report", "--config", tiny_cfg, "--out",
                     str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "strategy,snr,wer_mean,wer_ci"
        # strategies x (grid + clean) rows
        assert len(lines) == 1 + len(TINY["strategies"]) * 2

    def test_out_dir_env_fallback(self, tiny_cfg, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("AVFUSION_OUT", str(target))
        assert main(["sweep", "--config", tiny_cfg]) == 0
        assert (target / "sweep.csv").exists()


# two seeds, every strategy kind the staged chain handles differently: a
# single stream, joint posteriors, fixed weights, the oracle solver and a
# trained estimator
CHAIN = dict(TINY, snr_grid=[-6, 3], noise_kinds=["white", "babble"],
             strategies=["ao", "early", "static", "oracle", "dsw-ce"],
             seeds=[0, 1], corpus=dict(TINY["corpus"], test=3))


def _avpf_bytes(out, sub: str) -> dict:
    return {p.relative_to(out): p.read_bytes()
            for p in sorted((out / sub).rglob("*.avpf"))}


class TestStagedChainMatchesSweep:
    """The staged commands and the in-memory sweep compute the same cells."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chain")
        cfg_path = root / "chain.json"
        cfg_path.write_text(json.dumps(CHAIN))
        out = root / "out"
        common = ["--config", str(cfg_path), "--out", str(out)]
        fused_cells = []
        real = cli.fuse_cells

        def capture(cells, *args, **kwargs):
            fused_cells.append(cells)
            return real(cells, *args, **kwargs)

        assert main(["synth"] + common) == 0
        feats = {}
        for threads in ("1", "2"):
            shutil.rmtree(out / "feats", ignore_errors=True)
            assert main(["extract", "--threads", threads] + common) == 0
            feats[threads] = _avpf_bytes(out, "feats")
        assert main(["train"] + common) == 0
        mp = pytest.MonkeyPatch()
        try:
            mp.setattr(cli, "fuse_cells", capture)
            assert main(["fuse", "--threads", "1"] + common) == 0
        finally:
            mp.undo()
        threads1 = _avpf_bytes(out, "fused")
        shutil.rmtree(out / "fused")
        assert main(["fuse", "--threads", "2"] + common) == 0
        threads2 = _avpf_bytes(out, "fused")
        for stage in ("decode", "evaluate"):
            assert main([stage] + common) == 0
        assert main(["sweep"] + common) == 0
        return SimpleNamespace(out=out, cfg_path=cfg_path,
                               fused_cells=fused_cells, threads1=threads1,
                               threads2=threads2, feats=feats)

    def test_evaluate_wer_equals_sweep(self, chain):
        out = chain.out
        staged = json.loads((out / "eval" / "results.json").read_text())
        swept = json.loads((out / "sweep.json").read_text())
        assert staged["seeds"] == swept["seeds"] == CHAIN["seeds"]
        for strategy in CHAIN["strategies"]:
            for label in ("-6", "3", "clean"):
                assert staged["wer"][strategy][label]["per_seed"] == \
                    swept["wer"][strategy][label]["per_seed"], \
                    (strategy, label)

    def test_fuse_bytes_independent_of_threads(self, chain):
        assert len(chain.threads1) == 2 * 3 * 3 * len(CHAIN["strategies"])
        assert chain.threads1 == chain.threads2

    def test_extract_bytes_independent_of_threads(self, chain):
        # 3 test utterances x 3 conditions x (A, VA, VS, REL)
        assert len(chain.feats["1"]) == 3 * 3 * 4
        assert chain.feats["1"] == chain.feats["2"]

    def test_extract_writes_the_fused_cells(self, chain):
        out = chain.out
        _, records = read_manifest(out / "manifest.json")
        # fuse runs seed 0's conditions first, in grid order then clean
        seed0 = dict(zip(["-6", "3", "clean"], chain.fused_cells[:3]))
        for label, cells in seed0.items():
            for record, cell in zip(records, cells):
                assert record.utt_id == cell.utt.utt_id
                mats = {s: cell.posts[s] for s in STREAMS}
                mats["REL"] = cell.rel
                for name, mat in mats.items():
                    got = read_matrix(out / record.posterior_paths[name][label])
                    np.testing.assert_array_equal(
                        got, mat.astype(np.float32), err_msg=name)

    def test_fuse_loads_the_trained_stream_models(self, chain, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(chain.out, out)
        shutil.rmtree(out / "fused")

        def refuse(*_):
            raise AssertionError("stream models calibrated")

        monkeypatch.setattr(corpus, "_calibrate_models", refuse)
        assert main(["fuse", "--config", str(chain.cfg_path), "--out",
                     str(out)]) == 0
        assert _avpf_bytes(out, "fused") == chain.threads1

    def test_saved_stream_models_are_the_calibrated_ones(self, chain):
        world_cfg = corpus.WorldConfig(**validate_config(CHAIN)["world"])
        for seed in CHAIN["seeds"]:
            loaded = corpus.load_stream_models(
                chain.out / "models" / f"streams.seed{seed}.json",
                world_cfg, seed)
            built = corpus.build_world(world_cfg, seed)
            for stream in STREAMS:
                for name in ("obs_means", "obs_vars"):
                    got = getattr(loaded, name)[stream]
                    want = getattr(built, name)[stream]
                    assert got.dtype == want.dtype == np.float64
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (seed, stream)

    def test_export_and_scoring_stages_do_not_calibrate(self, chain,
                                                        tmp_path,
                                                        monkeypatch):
        # on a copy of the fused chain, so the class's outputs stay intact
        out = tmp_path / "out"
        shutil.copytree(chain.out, out)

        def refuse(*_):
            raise AssertionError("stream models calibrated")

        monkeypatch.setattr(corpus, "_calibrate_models", refuse)
        common = ["--config", str(chain.cfg_path), "--out", str(out)]
        for stage in ("synth", "decode", "evaluate"):
            assert main([stage] + common) == 0, stage
        for name in ["eval/results.json"] + [
                f"decode/{strat}.seed{seed}.json"
                for strat in CHAIN["strategies"] for seed in CHAIN["seeds"]]:
            assert (out / name).read_bytes() == \
                (chain.out / name).read_bytes(), name


class TestStreamModelsFromAnotherRun:
    """fuse refuses stream models that train wrote for another world."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_cfg, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        assert main(["train", "--config", tiny_cfg, "--out", str(out)]) == 0
        assert (out / "models" / "streams.seed0.json").exists()
        assert not (out / "models" / "val_ce.json").exists()
        return out

    @pytest.mark.parametrize("other", ["world", "seed"])
    def test_fuse_exits_1(self, trained, tiny_cfg, tmp_path, capsys, other):
        elsewhere = tmp_path / "elsewhere"
        if other == "world":
            cfg = tmp_path / "other.json"
            cfg.write_text(json.dumps(
                dict(TINY, world=dict(TINY["world"], temp_a=2.0))))
            argv = ["train", "--config", str(cfg)]
            written = elsewhere / "models" / "streams.seed0.json"
        else:
            argv = ["train", "--config", tiny_cfg, "--seed", "1"]
            written = elsewhere / "models" / "streams.seed1.json"
        assert main(argv + ["--out", str(elsewhere)]) == 0
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        target = out / "models" / "streams.seed0.json"
        shutil.copyfile(written, target)
        capsys.readouterr()
        assert main(["fuse", "--config", tiny_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(target) in err and "another world" in err


class TestStaleCheckpoints:
    """The stream-models file lists the learned strategies trained against
    its models, and fuse refuses the others."""

    @staticmethod
    def _config(tmp_path, name, strategies, **world):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(TINY, strategies=strategies,
                                        world=dict(TINY["world"], **world))))
        return ["--config", str(path)]

    @staticmethod
    def _listed(out):
        doc = json.loads((out / "models" / "streams.seed0.json").read_text())
        return doc["trained"]

    def test_checkpoint_from_another_world_is_refused(self, tmp_path,
                                                      capsys):
        out = ["--out", str(tmp_path / "out")]
        first = self._config(tmp_path, "a", ["ao", "dsw-ce"], temp_a=1.5)
        assert main(["train"] + first + out) == 0
        assert self._listed(tmp_path / "out") == ["dsw-ce"]
        # new stream models, no learned strategy retrained against them
        second = self._config(tmp_path, "b", ["ao", "static"], temp_a=3.0)
        assert main(["train"] + second + out) == 0
        assert self._listed(tmp_path / "out") == []
        assert (tmp_path / "out" / "models" / "dsw-ce.seed0").exists()
        capsys.readouterr()
        stale = self._config(tmp_path, "c", ["ao", "dsw-ce"], temp_a=3.0)
        assert main(["fuse"] + stale + out) == 1
        err = capsys.readouterr().err
        target = tmp_path / "out" / "models" / "streams.seed0.json"
        assert str(target) in err and "dsw-ce" in err and "`train`" in err
        assert not (tmp_path / "out" / "fused").exists()

    def test_retraining_the_same_models_extends_the_list(self, tmp_path):
        out = ["--out", str(tmp_path / "out")]
        both = self._config(tmp_path, "a", ["ao", "dsw-ce", "dsw-mse"])
        assert main(["train", "--strategy", "dsw-ce"] + both + out) == 0
        assert main(["train", "--strategy", "dsw-mse"] + both + out) == 0
        assert self._listed(tmp_path / "out") == ["dsw-ce", "dsw-mse"]
        plain = self._config(tmp_path, "b", ["ao", "static"])
        assert main(["train"] + plain + out) == 0
        assert self._listed(tmp_path / "out") == ["dsw-ce", "dsw-mse"]
        assert main(["fuse", "--snr", "clean"] + both + out) == 0


# a learned fuser of each kind, for damaging their checkpoints
LEARNED = dict(TINY, strategies=["ao", "dsw-ce", "dfn-lstm"],
               dfn={"widths": [16, 8, 8], "hidden": 8, "scale": 1.0})


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _nan_first(path):
    mat = read_matrix(path)
    mat.flat[0] = np.nan
    write_matrix(path, mat)


def _edit_json(edit):
    def damage(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return damage


def _set_first(key, value):
    def edit(doc):
        doc[key]["A"][0][0] = value
    return edit


DAMAGES = {
    "ckpt-truncated-matrix": ("dfn-lstm.seed0/p000_b.avpf", _truncate),
    "ckpt-matrix-of-wrong-shape": (
        "dfn-lstm.seed0/p000_b.avpf",
        lambda p: write_matrix(p, np.zeros((2, 3)))),
    "ckpt-nan-weight": ("dfn-lstm.seed0/p000_w.avpf", _nan_first),
    "ckpt-truncated-topology": ("dfn-lstm.seed0/topology.json", _truncate),
    "ckpt-missing-parameter": (
        "dfn-lstm.seed0/topology.json",
        _edit_json(lambda doc: doc["params"].pop())),
    "ckpt-truncated-meta": ("dfn-lstm.seed0/model.json", _truncate),
    "ckpt-short-input-mean": (
        "dfn-lstm.seed0/model.json",
        _edit_json(lambda doc: doc["input_mean"].pop())),
    "estimator-nan-weight": ("dsw-ce.seed0/p002_w.avpf", _nan_first),
    "estimator-long-input-std": (
        "dsw-ce.seed0/model.json",
        _edit_json(lambda doc: doc["input_std"].append(1.0))),
    "estimator-zero-input-std": (
        "dsw-ce.seed0/model.json",
        _edit_json(lambda doc: doc["input_std"].__setitem__(0, 0.0))),
    "streams-truncated": ("streams.seed0.json", _truncate),
    "streams-wrong-shape": (
        "streams.seed0.json",
        _edit_json(lambda doc: doc["obs_vars"]["VA"].pop())),
    "streams-nan-mean": ("streams.seed0.json",
                         _edit_json(_set_first("obs_means", float("nan")))),
    "streams-infinite-variance": (
        "streams.seed0.json",
        _edit_json(_set_first("obs_vars", float("inf")))),
    "streams-zero-variance": ("streams.seed0.json",
                              _edit_json(_set_first("obs_vars", 0.0))),
    "streams-missing-stream": (
        "streams.seed0.json",
        _edit_json(lambda doc: doc["obs_means"].pop("VS"))),
}


class TestDamagedModels:
    """A damaged checkpoint or stream-models file makes fuse exit 1 with an
    error that names the file."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("learned")
        cfg = root / "learned.json"
        cfg.write_text(json.dumps(LEARNED))
        out = root / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["fuse", "--config", str(cfg), "--out", str(out),
                     "--snr", "clean"]) == 0
        return SimpleNamespace(cfg=cfg, out=out)

    @pytest.mark.parametrize("kind", sorted(DAMAGES))
    def test_fuse_exits_1_naming_the_file(self, trained, tmp_path, capsys,
                                          kind):
        name, damage = DAMAGES[kind]
        out = tmp_path / "out"
        shutil.copytree(trained.out, out)
        target = out / "models" / name
        damage(target)
        capsys.readouterr()
        assert main(["fuse", "--config", str(trained.cfg), "--out", str(out),
                     "--snr", "clean"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err, err


def _drop_first_utterance(doc):
    del doc["0"][sorted(doc["0"])[0]]


# per damage: the command that reads the file, the file under the output
# directory, and the damage
STAGED_DAMAGES = {
    "manifest-truncated": ("extract", "manifest.json", _truncate),
    "manifest-without-utterances": (
        "extract", "manifest.json",
        _edit_json(lambda doc: doc.pop("utterances"))),
    "fused-truncated-header": (
        "decode", "fused/ao/seed0/u200000.0.avpf",
        lambda p: p.write_bytes(p.read_bytes()[:3])),
    "fused-of-wrong-shape": (
        "decode", "fused/ao/seed0/u200000.0.avpf",
        lambda p: write_matrix(p, np.zeros((4, 5)))),
    "fused-non-finite": (
        "decode", "fused/ao/seed0/u200000.0.avpf", _nan_first),
    "decode-truncated": ("evaluate", "decode/ao.seed0.json", _truncate),
    "decode-without-words": (
        "evaluate", "decode/ao.seed0.json",
        _edit_json(lambda doc: doc["0"]["u200000"].pop("words"))),
    "decode-missing-utterance": (
        "evaluate", "decode/ao.seed0.json",
        _edit_json(_drop_first_utterance)),
    "decode-foreign-utterance": (
        "evaluate", "decode/ao.seed0.json",
        _edit_json(lambda doc: doc["0"].__setitem__(
            "u999999", doc["0"]["u200000"]))),
    "sweep-truncated": ("report", "sweep.json", _truncate),
    "sweep-without-wer": ("report", "sweep.json",
                          _edit_json(lambda doc: doc.pop("wer"))),
    "sweep-non-numeric-wer": (
        "report", "sweep.json",
        _edit_json(lambda doc: doc["wer"]["ao"]["0"].__setitem__(
            "per_seed", ["x"]))),
    "val-ce-truncated": ("train", "models/val_ce.json", _truncate),
    "val-ce-not-an-object": ("train", "models/val_ce.json",
                             lambda p: p.write_text("[0.5]")),
    "val-ce-entry-not-an-object": (
        "train", "models/val_ce.json",
        _edit_json(lambda doc: doc.__setitem__("dsw-ce", 0.5))),
}


class TestDamagedStagedArtifacts:
    """A damaged manifest, val_ce.json, fused matrix (a NaN entry
    included), decode file or sweep.json makes the stage that reads it
    exit 1 with an error that names the file; so does a decode file whose
    utterances are not the config's test split, which evaluate would
    otherwise score as a subset."""

    @pytest.fixture(scope="class")
    def staged(self, tiny_cfg, tmp_path_factory):
        out = tmp_path_factory.mktemp("staged")
        for stage in ("synth", "extract", "train", "fuse", "decode",
                      "evaluate", "sweep"):
            assert main([stage, "--config", tiny_cfg, "--out", str(out)]) == 0
        # the config has no learned strategy; one writes models/val_ce.json
        assert main(["train", "--strategy", "dsw-ce", "--config", tiny_cfg,
                     "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("kind", sorted(STAGED_DAMAGES))
    def test_reader_exits_1_naming_the_file(self, tiny_cfg, staged,
                                            tmp_path, capsys, kind):
        command, name, damage = STAGED_DAMAGES[kind]
        out = tmp_path / "out"
        shutil.copytree(staged, out)
        shutil.rmtree(out / "eval")
        target = out / name
        damage(target)
        capsys.readouterr()
        assert main([command, "--config", tiny_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: "), err
        assert not (out / "eval").exists()
