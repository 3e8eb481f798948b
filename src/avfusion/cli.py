"""Command line front end: one subcommand per pipeline stage.

The stages share an output directory. Four chain through files, each
reading what the stage before it wrote:

    train    -> stream models and model checkpoints under models/
                (self-contained)
    fuse     -> fused log-posterior matrices under fused/ (needs train,
                for every config)
    decode   -> word hypotheses under decode/ (needs fuse)
    evaluate -> word error rates under eval/ (needs decode)

Two are export-only: no later stage reads what they write.

    synth    -> manifest.json, world.json, WAV audio, raw video, alignments
    extract  -> per-utterance posterior + reliability matrices under feats/
                (needs synth's manifest)

Two run apart from the chain:

    sweep    -> sweep.csv + sweep.json, the full strategy-by-SNR grid
    report   -> report.csv, plot-ready long format (needs sweep)

`sweep`, `fuse` and `extract` build each (seed, condition, utterance) cell
with the same code (`experiment.condition_cells`): `extract` writes the very
posteriors and reliability matrices that `fuse` fuses and `sweep` decodes,
for the conditions synth recorded and the config's first seed. The chain
differs from the sweep only in that `decode` reads the fused matrices
rounded to float32.

Calibrating a world's stream models is a Monte Carlo fit. `extract`,
`train` and `sweep` calibrate, once per seed. `train` also saves the
calibrated models (models/streams.seed<n>.json, exact float64), even for a
config without learned strategies, and `fuse` loads them instead of
calibrating: it fuses with the very stream models the learned fusers were
trained against, and rerunning `train` refreshes both. The file lists the
learned strategies trained against its models; a rerun that leaves the
models unchanged keeps the list and adds to it, one that changes them
starts it anew, and `fuse` refuses a learned strategy the list lacks.
`synth`, `decode` and `evaluate` read only the world's lexicon, LM and
test utterances, so they draw the world without its stream models
(`corpus.draw_world`).

Every artifact is a deterministic function of the config plus seed, so any
stage can be re-run in place and produces identical bytes. The output
directory comes from --out, else the AVFUSION_OUT environment variable,
else the config's out_dir. --threads, else AVFUSION_THREADS, is still
accepted and must be a positive integer, but selects nothing: every stage
builds its per-utterance cells in the calling thread, because a thread
pool for `extract` and `fuse` measured no faster on two cores. `train` and
`sweep` build a seed's training items in slices on forked processes, one
per usable CPU, and train its learned models in forked processes, one per
model up to the usable CPUs (only a platform without fork runs them here,
in turn). Meanwhile `sweep` evaluates the strategies that need no trained
model in this process; a training process that fails in the meantime is
reported when that evaluation returns. Then `sweep` fuses each learned
strategy over every test cell of the seed in one call, a DFN's inference
batches spread over forked processes the same way, and decodes them in
one call; `fuse` fuses a condition per call, and a call of one batch runs
in this process. Every stage runs with BLAS pinned to one thread, so the
process count does not change the output bytes.

Exit codes: 0 success, 1 runtime failure (including missing prerequisite
artifacts, and damaged ones or ones written for another run, which the
error names), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .blas import single_blas_thread
from .config import DEFAULT_CONFIG, ConfigError, load_config, validate_config
from .core import (
    STREAMS,
    ArtifactError,
    read_matrix,
    reading_artifact,
    write_matrix,
)
from .corpus import (
    World,
    WorldConfig,
    build_world,
    draw_world,
    load_stream_models,
    save_audio_wav,
    save_stream_models,
    save_video_raw,
    trained_strategies,
)
from .decode import build_decoding_graph, pool_reports, viterbi_decode, wer
from .experiment import (
    ALL_STRATEGIES,
    TRAINED_STRATEGIES,
    SweepResult,
    condition_cells,
    condition_grid,
    condition_label,
    fuse_cells,
    mix_test_noise,
    run_sweep,
    test_split,
    train_strategy_models,
    video_cache,
    write_report_csv,
    write_sweep_csv,
    write_sweep_json,
)
from .fusion import DfnModel, WeightEstimator

# unused here, bound only so that perfbench/tracing.py can wrap them on cli
from .corpus import load_audio_wav, load_video_raw, mix_noise  # noqa: F401
from .experiment import (  # noqa: F401
    reliability_features,
    video_signal_features,
)


class MissingArtifact(RuntimeError):
    """A prerequisite file is absent; the message names its producer."""


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifact(
            f"missing artifact {path}; run the `{producer}` subcommand "
            f"first with the same --config and --out")
    return path


def _load_cfg(args) -> dict:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = validate_config(json.loads(json.dumps(DEFAULT_CONFIG)))
    if getattr(args, "seed", None) is not None:
        cfg["seeds"] = [int(args.seed)]
    return cfg


def _out_dir(args, cfg: dict) -> Path:
    out = args.out or os.environ.get("AVFUSION_OUT") or cfg["out_dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_threads(args) -> None:
    """Refuse --threads or AVFUSION_THREADS unless a positive integer."""
    raw = args.threads if args.threads is not None \
        else os.environ.get("AVFUSION_THREADS", "1")
    try:
        n = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"threads must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"threads must be >= 1, got {n}")


def _strategies(args, cfg: dict, trained_only: bool = False) -> list[str]:
    if getattr(args, "strategy", None):
        chosen = [args.strategy]
        if args.strategy not in ALL_STRATEGIES:
            raise ConfigError(f"unknown strategy {args.strategy!r}; "
                              f"choose from {list(ALL_STRATEGIES)}")
    else:
        chosen = list(cfg["strategies"])
    if trained_only:
        kept = [s for s in chosen if s in TRAINED_STRATEGIES]
        if getattr(args, "strategy", None) and not kept:
            raise ConfigError(
                f"strategy {args.strategy!r} has no trained model; "
                f"trainable strategies are {list(TRAINED_STRATEGIES)}")
        return kept
    return chosen


def _parse_condition(text: str) -> float | None:
    if text == "clean":
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--snr must be a number or 'clean', got {text!r}")


def _conditions(args, cfg: dict) -> list[float | None]:
    grid = condition_grid(cfg)
    if getattr(args, "snr", None) is None:
        return grid
    wanted = _parse_condition(args.snr)
    labels = [condition_label(c) for c in grid]
    if condition_label(wanted) not in labels:
        raise ConfigError(f"--snr {args.snr!r} is not in the configured "
                          f"grid {labels}")
    return [wanted]


def _world_for_seed(cfg: dict, seed: int, calibrated: bool) -> World:
    """The seed's world; only stages that compute stream posteriors need it
    ``calibrated``, which costs a Monte Carlo fit of the stream models."""
    make = build_world if calibrated else draw_world
    return make(WorldConfig(**cfg["world"]), seed)


def _streams_path(out: Path, seed: int) -> Path:
    return out / "models" / f"streams.seed{seed}.json"


def _model_dir(out: Path, strategy: str, seed: int) -> Path:
    return out / "models" / f"{strategy}.seed{seed}"


def _fused_path(out: Path, strategy: str, seed: int, utt_id: str,
                label: str) -> Path:
    return out / "fused" / strategy / f"seed{seed}" / f"{utt_id}.{label}.avpf"


def _decode_path(out: Path, strategy: str, seed: int) -> Path:
    return out / "decode" / f"{strategy}.seed{seed}.json"


def _trained_world(cfg: dict, out: Path, seed: int,
                   strategies: list[str]) -> World:
    """The seed's world with the stream models ``train`` saved, which must
    list each learned strategy of ``strategies`` as trained against them."""
    path = _require(_streams_path(out, seed), "train")
    return load_stream_models(
        path, WorldConfig(**cfg["world"]), seed,
        needs=[s for s in strategies if s in TRAINED_STRATEGIES])


def _write_manifest(out: Path, doc: dict) -> None:
    (out / "manifest.json").write_text(json.dumps(doc, indent=1,
                                                  sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    seed = int(cfg["seeds"][0])
    world = _world_for_seed(cfg, seed, calibrated=False)
    utts = test_split(cfg, world)
    conditions = condition_grid(cfg)
    kinds = list(cfg["noise_kinds"])

    for sub in ("audio", "video", "align"):
        (out / sub).mkdir(exist_ok=True)
    (out / "world.json").write_text(
        json.dumps(world.to_manifest(), indent=2, sort_keys=True))

    entries = []
    for idx, utt in enumerate(utts):
        audio_paths = {}
        for cond in conditions:
            label = condition_label(cond)
            noisy = mix_test_noise(utt, cond, kinds, seed, idx)
            wav = f"audio/{utt.utt_id}.{label}.wav"
            save_audio_wav(out / wav, noisy.audio)
            audio_paths[label] = wav
        video_path = f"video/{utt.utt_id}.raw"
        save_video_raw(out / video_path, utt.video)
        align_path = f"align/{utt.utt_id}.avpf"
        write_matrix(out / align_path,
                     utt.alignment.states.astype(np.float64)[:, None])
        # extract adds the posterior and reliability paths
        entries.append({
            "id": utt.utt_id, "transcript": list(utt.words), "split": "test",
            "audio": audio_paths, "posteriors": {}, "alignment": align_path,
            "video": video_path, "num_video_frames": utt.num_video_frames,
            "num_audio_frames": utt.num_audio_frames})
    _write_manifest(out, {"world": "world.json", "utterances": entries})
    print(f"synth: wrote {len(entries)} utterances x "
          f"{len(conditions)} conditions under {out}")
    return 0


def _cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    _check_threads(args)
    wanted = [condition_label(c) for c in _conditions(args, cfg)]
    manifest_path = _require(out / "manifest.json", "synth")
    with reading_artifact(manifest_path):
        doc = json.loads(manifest_path.read_text())
        entries = doc["utterances"]
        ids = [entry["id"] for entry in entries]
        labels = sorted({lab for entry in entries for lab in entry["audio"]})
        for entry in entries:
            entry["posteriors"] = {name: dict(by_label) for name, by_label
                                   in dict(entry["posteriors"]).items()}
    seed = int(cfg["seeds"][0])
    world = _world_for_seed(cfg, seed, calibrated=True)
    utts = test_split(cfg, world)
    if ids != [u.utt_id for u in utts]:
        raise MissingArtifact(
            f"{manifest_path} does not list this config's test split; run "
            f"the `synth` subcommand first with the same --config and --seed")
    if args.snr is not None:
        labels = [lab for lab in labels if lab in wanted]
    cache = video_cache(world, utts)
    (out / "feats").mkdir(exist_ok=True)
    for label in labels:
        cells = condition_cells(world, utts, cache, _parse_condition(label),
                                list(cfg["noise_kinds"]), seed)
        for utt_id, entry, cell in zip(ids, entries, cells):
            mats = {s: cell.posts[s] for s in STREAMS}
            mats["rel"] = cell.rel
            for name, mat in mats.items():
                path = f"feats/{utt_id}.{label}.{name}.avpf"
                write_matrix(out / path, mat)
                entry["posteriors"].setdefault(name.upper(), {})[label] = path
    _write_manifest(out, doc)
    print(f"extract: wrote posteriors + reliability for "
          f"{len(labels) * len(entries)} utterance-conditions under "
          f"{out / 'feats'}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    strategies = _strategies(args, cfg, trained_only=True)
    (out / "models").mkdir(exist_ok=True)
    score_path = out / "models" / "val_ce.json"
    scores = {}
    if score_path.exists():
        with reading_artifact(score_path):
            scores = json.loads(score_path.read_text())
            if not (isinstance(scores, dict) and all(
                    isinstance(v, dict) for v in scores.values())):
                raise ArtifactError(f"{score_path}: not a JSON object of "
                                    f"per-strategy objects")
    for seed in [int(s) for s in cfg["seeds"]]:
        world = _world_for_seed(cfg, seed, calibrated=True)
        streams_path = _streams_path(out, seed)
        # checkpoints trained earlier against these very models stay
        # valid; the ones about to be replaced are not listed until saved
        kept = [s for s in trained_strategies(streams_path, world)
                if s not in strategies]
        save_stream_models(world, streams_path, kept)
        print(f"train: seed {seed} stream models -> {streams_path}")
        if not strategies:
            continue
        graph = build_decoding_graph(world, cfg["lm_scale"])
        models, val_ce = train_strategy_models(cfg, world, graph, seed,
                                               strategies)
        for strat, model in models.items():
            model.save(str(_model_dir(out, strat, seed)))
            scores.setdefault(strat, {})[str(seed)] = val_ce[strat]
            print(f"train: {strat} seed {seed} best val loss "
                  f"{val_ce[strat]:.4f} -> {_model_dir(out, strat, seed)}")
        save_stream_models(world, streams_path, kept + list(models))
    if strategies:
        score_path.write_text(json.dumps(scores, indent=2, sort_keys=True))
    return 0


def _load_models(out: Path, strategies: list[str], seed: int) -> dict:
    models = {}
    for strat in strategies:
        if strat not in TRAINED_STRATEGIES:
            continue
        path = _require(_model_dir(out, strat, seed) / "model.json", "train")
        loader = DfnModel if strat.startswith("dfn-") else WeightEstimator
        models[strat] = loader.load(str(path.parent))
    return models


def _cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    _check_threads(args)
    strategies = _strategies(args, cfg)
    conditions = _conditions(args, cfg)
    written = 0
    for seed in [int(s) for s in cfg["seeds"]]:
        world = _trained_world(cfg, out, seed, strategies)
        models = _load_models(out, strategies, seed)
        utts = test_split(cfg, world)
        cache = video_cache(world, utts)
        for strat in strategies:
            (out / "fused" / strat / f"seed{seed}").mkdir(
                parents=True, exist_ok=True)
        for cond in conditions:
            label = condition_label(cond)
            cells = condition_cells(world, utts, cache, cond,
                                    list(cfg["noise_kinds"]), seed)
            fused_cells = fuse_cells(cells, strategies, world, models,
                                     cfg["oracle_mode"])
            for utt, fused in zip(utts, fused_cells):
                for strat, mat in zip(strategies, fused):
                    path = _fused_path(out, strat, seed, utt.utt_id, label)
                    write_matrix(path, mat)
                    written += 1
    print(f"fuse: wrote {written} fused matrices under {out / 'fused'}")
    return 0


def _cmd_decode(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    strategies = _strategies(args, cfg)
    conditions = _conditions(args, cfg)
    (out / "decode").mkdir(exist_ok=True)
    count = 0
    for seed in [int(s) for s in cfg["seeds"]]:
        world = _world_for_seed(cfg, seed, calibrated=False)
        graph = build_decoding_graph(world, cfg["lm_scale"])
        utts = test_split(cfg, world)
        for strat in strategies:
            hyps: dict = {}
            for cond in conditions:
                label = condition_label(cond)
                hyps[label] = {}
                for utt in utts:
                    path = _require(
                        _fused_path(out, strat, seed, utt.utt_id, label),
                        "fuse")
                    with reading_artifact(path):
                        res = viterbi_decode(read_matrix(path), graph)
                    hyps[label][utt.utt_id] = {
                        "words": res.words,
                        "log_score": round(float(res.log_score), 6)}
                    count += 1
            _decode_path(out, strat, seed).write_text(
                json.dumps(hyps, indent=1, sort_keys=True))
    print(f"decode: wrote {count} hypotheses under {out / 'decode'}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    strategies = _strategies(args, cfg)
    conditions = _conditions(args, cfg)
    labels = [condition_label(c) for c in conditions]
    seeds = [int(s) for s in cfg["seeds"]]
    refs: dict = {}
    for seed in seeds:
        world = _world_for_seed(cfg, seed, calibrated=False)
        refs[seed] = {u.utt_id: u.words for u in test_split(cfg, world)}
    results: dict = {}
    for strat in strategies:
        results[strat] = {}
        per_seed: dict = {lab: [] for lab in labels}
        for seed in seeds:
            path = _require(_decode_path(out, strat, seed), "decode")
            with reading_artifact(path):
                hyps = json.loads(path.read_text())
                for lab in labels:
                    if lab not in hyps:
                        raise MissingArtifact(
                            f"condition {lab!r} absent from {path}; run the "
                            f"`decode` subcommand first for that condition")
                    if sorted(hyps[lab]) != sorted(refs[seed]):
                        raise ArtifactError(
                            f"{path}: condition {lab!r} does not list this "
                            f"config's test utterances")
                    reports = [wer(refs[seed][uid], entry["words"])
                               for uid, entry in sorted(hyps[lab].items())]
                    per_seed[lab].append(pool_reports(reports).wer)
        for lab in labels:
            vals = per_seed[lab]
            results[strat][lab] = {
                "per_seed": vals,
                "mean": float(np.mean(vals)),
            }
    (out / "eval").mkdir(exist_ok=True)
    (out / "eval" / "results.json").write_text(
        json.dumps({"seeds": seeds, "wer": results}, indent=1,
                   sort_keys=True))
    width = max(len(s) for s in strategies)
    print("strategy".ljust(width) + "  " +
          "  ".join(f"{lab:>8}" for lab in labels))
    for strat in strategies:
        row = "  ".join(f"{results[strat][lab]['mean']:8.4f}"
                        for lab in labels)
        print(strat.ljust(width) + "  " + row)
    print(f"evaluate: wrote {out / 'eval' / 'results.json'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    result = run_sweep(cfg)
    write_sweep_csv(out / "sweep.csv", result)
    write_sweep_json(out / "sweep.json", result)
    print((out / "sweep.csv").read_text().rstrip())
    print(f"sweep: wrote {out / 'sweep.csv'} and {out / 'sweep.json'}")
    return 0


def _cmd_report(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    path = _require(out / "sweep.json", "sweep")
    with reading_artifact(path):
        doc = json.loads(path.read_text())
        result = SweepResult(
            strategies=list(doc["strategies"]),
            labels=list(doc["conditions"]),
            seeds=[int(s) for s in doc["seeds"]],
            per_seed_wer={s: {lab: [float(v) for v in
                                    doc["wer"][s][lab]["per_seed"]]
                              for lab in doc["conditions"]}
                          for s in doc["strategies"]})
    write_report_csv(out / "report.csv", result)
    width = max(len(s) for s in result.strategies)
    print("strategy".ljust(width) + "  " +
          "  ".join(f"{lab:>8}" for lab in result.labels) + "       avg")
    for strat in result.strategies:
        cells = "  ".join(f"{result.mean_wer(strat, lab):8.4f}"
                          for lab in result.labels)
        print(strat.ljust(width) + "  " + cells +
              f"  {result.row_average(strat):8.4f}")
    print(f"report: wrote {out / 'report.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfusion",
        description="Audio-visual stream-fusion experiments on a synthetic "
                    "recognition task.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults used "
                        "when omitted)")
    common.add_argument("--out", help="output directory (overrides "
                        "AVFUSION_OUT and the config)")
    common.add_argument("--seed", type=int,
                        help="restrict the run to this one seed")
    common.add_argument("--threads", help="accepted and checked (a positive "
                        "integer, default AVFUSION_THREADS or 1); every "
                        "stage builds its cells in the calling thread")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", parents=[common],
                       help="materialize the corpus: audio, video, "
                            "alignments, manifest")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", parents=[common],
                       help="compute posterior + reliability matrices from "
                            "the synth artifacts")
    p.add_argument("--snr", help="only this condition (a number or 'clean')")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", parents=[common],
                       help="save the calibrated stream models, train learned "
                            "fusion models and checkpoint them")
    p.add_argument("--strategy", help="train only this strategy")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fuse", parents=[common],
                       help="write fused log-posterior matrices per strategy")
    p.add_argument("--strategy", help="only this strategy")
    p.add_argument("--snr", help="only this condition (a number or 'clean')")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("decode", parents=[common],
                       help="run the decoder over fused matrices")
    p.add_argument("--strategy", help="only this strategy")
    p.add_argument("--snr", help="only this condition (a number or 'clean')")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score decoded hypotheses against references")
    p.add_argument("--strategy", help="only this strategy")
    p.add_argument("--snr", help="only this condition (a number or 'clean')")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common],
                       help="full in-memory strategy-by-SNR experiment grid")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", parents=[common],
                       help="summary table + plot-ready CSV from sweep.json")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        with single_blas_thread():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MissingArtifact, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # keep the exit-code contract for scripts
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
