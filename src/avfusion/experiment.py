"""SNR-sweep experiment driver: corpus generation, model training, fusion,
decoding, and WER aggregation across seeds, plus CSV/JSON emitters.

The sweep mirrors the usual presentation: one row per strategy, one column
per SNR condition from -9 dB to +9 dB plus clean, and a trailing average
column. WER is pooled over utterances within a (strategy, condition, seed)
cell and averaged across seeds for the table.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .align import align_stream, bresenham_map
from .blas import single_blas_thread
from .core import STREAMS, PosteriorSequence
from .corpus import (
    Utterance,
    World,
    WorldConfig,
    build_world,
    compute_joint_posteriors,
    compute_stream_posteriors,
    mix_noise,
    sample_utterance,
)
from .decode import (
    DecodingGraph,
    WerReport,
    build_decoding_graph,
    forced_align,
    pool_reports,
    viterbi_decode_batch,
    wer,
)
from .fusion import (
    dfn_fuse,
    dynamic_fuse,
    oracle_weights_batch,
    static_fuse,
    train_dfn,
    train_weight_estimator,
)
from .model_reliability import dispersion_ratio, entropy_ratio, stream_measures
from .nn import TrainConfig
from .signal_reliability import (
    delta,
    idct_features,
    image_distortion,
    mfcc_from_log_mel,
    pitch_nccf,
)

# unused here, bound only so that perfbench/tracing.py can wrap it on
# experiment
from .fusion import oracle_weights  # noqa: F401

SINGLE_STREAM_STRATEGIES = ("ao", "va", "vs")
ALL_STRATEGIES = ("ao", "va", "vs", "early", "static", "dsw-mse", "dsw-ce",
                  "oracle", "dfn-lstm", "dfn-blstm")
TRAINED_STRATEGIES = ("dsw-mse", "dsw-ce", "dfn-lstm", "dfn-blstm")
N_MFCC = 5  # MFCCs in the reliability vector, and as many deltas
N_IDCT = 5  # zigzag 2-D DCT coefficients of each video frame


def condition_label(snr_db: float | None) -> str:
    return "clean" if snr_db is None else f"{snr_db:g}"


def audio_signal_features(utt: Utterance) -> np.ndarray:
    """(T, 14): MFCC x5, delta MFCC x5, SNR, f0, delta f0, voicing."""
    mfcc = mfcc_from_log_mel(utt.log_mel, N_MFCC)
    f0, voicing = pitch_nccf(utt.audio)
    return np.column_stack([mfcc, delta(mfcc), utt.true_snr, f0, delta(f0),
                            voicing])


def video_signal_features(utt: Utterance) -> np.ndarray:
    """(Vf, 9) per video frame: tracker confidence, IDCT x5, brightness,
    blur, rotation; callers upsample to the audio rate."""
    return np.column_stack([utt.confidence,
                            idct_features(utt.video, N_IDCT),
                            image_distortion(utt.video)])


def model_based_features(posts: dict[str, PosteriorSequence],
                         measures: dict | None = None) -> np.ndarray:
    """(T, 18): six measures per stream, stream-major in STREAMS order --
    entropy, dispersion, posterior difference, temporal divergence, and
    the entropy and dispersion ratios, which compare the streams.

    ``measures`` maps a stream to its ``stream_measures`` when the caller
    already has them; the other streams' are computed here.
    """
    measures = measures or {}
    per_stream = [measures[s] if s in measures
                  else stream_measures(posts[s].frames) for s in STREAMS]
    ent_ratio = entropy_ratio(
        np.stack([m["entropy"] for m in per_stream], axis=1))
    disp_ratio = dispersion_ratio(
        np.stack([m["dispersion"] for m in per_stream], axis=1))
    return np.column_stack([
        col for i, m in enumerate(per_stream)
        for col in (m["entropy"], m["dispersion"], m["posterior_difference"],
                    m["temporal_divergence"], ent_ratio[:, i],
                    disp_ratio[:, i])])


def reliability_features(utt: Utterance, posts: dict[str, PosteriorSequence],
                         video_feats: np.ndarray | None = None,
                         measures: dict | None = None) -> np.ndarray:
    """The (T, 41) per-frame reliability vector at the audio rate: the
    model-based, audio and video blocks side by side, the video block
    (``video_signal_features``) repeated up to the audio rate.
    ``video_feats`` and ``measures`` (see ``model_based_features``) pass
    in what the caller has already computed."""
    if video_feats is None:
        video_feats = video_signal_features(utt)
    frame_map = bresenham_map(utt.num_audio_frames, utt.num_video_frames)
    return np.concatenate([model_based_features(posts, measures),
                           audio_signal_features(utt),
                           align_stream(video_feats, frame_map)], axis=1)


def stream_posterior_set(utt: Utterance, world: World,
                         cached_video: dict[str, PosteriorSequence] | None = None,
                         ) -> dict[str, PosteriorSequence]:
    posts = {"A": compute_stream_posteriors(utt, world, "A")}
    if cached_video is None:
        posts["VA"] = compute_stream_posteriors(utt, world, "VA")
        posts["VS"] = compute_stream_posteriors(utt, world, "VS")
    else:
        posts.update(cached_video)
    return posts


@dataclass
class SweepResult:
    strategies: list[str]
    labels: list[str]
    seeds: list[int]
    per_seed_wer: dict = field(default_factory=dict)  # strategy -> label -> [wer]
    val_ce: dict = field(default_factory=dict)  # variant -> [best val per seed]
    utterance_detail: list = field(default_factory=list)

    def mean_wer(self, strategy: str, label: str) -> float:
        return float(np.mean(self.per_seed_wer[strategy][label]))

    def row_average(self, strategy: str) -> float:
        return float(np.mean([self.mean_wer(strategy, lab)
                              for lab in self.labels]))


def _sample_split(world: World, count: int, offset: int,
                  min_words: int, max_words: int) -> list[Utterance]:
    span = max_words - min_words + 1
    return [sample_utterance(world, min_words + i % span, seed=offset + i,
                             utt_id=f"u{offset + i:06d}")
            for i in range(count)]


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    t = cfg["training"]
    return TrainConfig(lr0=t["lr0"], lr_decay=t["lr_decay"],
                       batch_size=t["batch_size"],
                       check_interval=t["check_interval"],
                       patience=t["patience"], max_steps=t["max_steps"],
                       seed=seed)


def build_training_items(world: World, graph: DecodingGraph,
                         utts: list[Utterance], conditions: list,
                         kinds: list[str], seed: int,
                         oracle_mode: str | None) -> list[dict]:
    """One training item per utterance, cycling noise conditions and kinds.

    Targets come from forced alignment of the clean audio posteriors, per
    the training recipe; the generator's own alignment is withheld. Each
    item also carries its oracle weights in ``oracle_mode`` unless that is
    None.
    """
    items, alignments = [], []
    for idx, utt in enumerate(utts):
        cond = conditions[idx % len(conditions)]
        kind = kinds[idx % len(kinds)]
        # on a copy, so the caller's utterance keeps no log-mel memo
        clean_posts_a = compute_stream_posteriors(replace(utt), world, "A")
        target = forced_align(utt.words, np.log(clean_posts_a.frames), graph)
        noisy = mix_noise(utt, kind, cond, seed=seed * 7919 + idx)
        posts = stream_posterior_set(noisy, world)
        rel = reliability_features(noisy, posts)
        logs = np.stack([np.log(posts[s].frames) for s in STREAMS])
        items.append({
            "utt_id": utt.utt_id,
            "posteriors": [posts[s].frames for s in STREAMS],
            "log_posts": logs,
            "reliability": rel,
            "targets": target.states,
        })
        alignments.append(target)
    if oracle_mode is not None:
        # one solver run for all items: each frame is solved on its own,
        # so the weights are those of per-item runs
        solved = oracle_weights_batch([list(it["log_posts"]) for it in items],
                                      alignments, mode=oracle_mode)
        for item, weights in zip(items, solved):
            item["oracle_weights"] = weights.weights
    return items


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class TrainingError(RuntimeError):
    """Training a learned strategy failed; the message names it and the
    seed."""


# (cfg, seed, num_states, rel_dim, train_items, val_items) inside a forked
# training worker, set by the pool initializer: workers inherit the items
# through fork instead of receiving a pickled copy per task
_WORKER_JOB = None


def _set_worker_job(job: tuple) -> None:
    global _WORKER_JOB
    _WORKER_JOB = job


def _train_in_worker(strat: str) -> tuple:
    return _train_one(_WORKER_JOB, strat)


def _train_one(job: tuple, strat: str) -> tuple:
    """(model, best validation CE) of one learned strategy."""
    cfg, seed, s_count, rel_dim, train_items, val_items = job
    tc = _train_config(cfg, seed)
    try:
        if strat.startswith("dfn-"):
            variant = strat.split("-", 1)[1]
            d = cfg["dfn"]
            model, history = train_dfn(
                train_items, val_items, variant, s_count, rel_dim, tc,
                widths=tuple(d["widths"]), hidden=d["hidden"],
                scale=d["scale"], dropout=d["dropout"])
        else:
            criterion = strat.split("-", 1)[1]
            model, history = train_weight_estimator(
                train_items, val_items, criterion, s_count, tc,
                hidden=cfg["estimator"]["hidden"])
    except Exception as exc:
        raise TrainingError(f"training {strat} for seed {seed} failed: "
                            f"{type(exc).__name__}: {exc}") from exc
    return model, history["best_val"]


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Shut the pool down without finishing its tasks: pending ones are
    cancelled and running workers terminated, then reaped."""
    # the executor has no public way to terminate its workers before
    # Python 3.14 (terminate_workers), so this reads its process table
    for proc in list((pool._processes or {}).values()):
        proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def _train_all(job: tuple, needed: list[str]) -> list[tuple]:
    """Train each strategy of ``needed``, results in ``needed`` order.

    One forked worker per strategy, up to the usable CPUs; serially in
    this process when only one would run or the platform cannot fork.
    Each strategy trains from its own seed on the same items, with BLAS
    at one thread (``train_strategy_models``), so the results do not
    depend on which way they were computed. The first failure stops the
    other workers and is raised at once.
    """
    workers = min(len(needed), usable_cpus())
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_train_one(job, strat) for strat in needed]
    with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_job, initargs=(job,)) as pool:
        futures = [pool.submit(_train_in_worker, strat) for strat in needed]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        failed = [f for f in futures if f in done and f.exception() is not None]
        if not failed:
            return [f.result() for f in futures]
        error = failed[0].exception()
        if isinstance(error, BrokenProcessPool):
            # a dead worker breaks the pool, which fails every unfinished
            # task and stops the other workers itself
            unfinished = [s for s, f in zip(needed, futures)
                          if f.exception() is not None]
            raise TrainingError(
                f"a training worker died while training {unfinished} for "
                f"seed {job[1]}: {error}") from error
        _stop_workers(pool)
        raise error


@single_blas_thread()
def train_strategy_models(cfg: dict, world: World, graph: DecodingGraph,
                          seed: int, strategies: list[str],
                          ) -> tuple[dict, dict]:
    """Train every requested learned strategy for one seed.

    Returns (models by strategy, best validation CE by strategy).
    """
    needed = [s for s in strategies if s in TRAINED_STRATEGIES]
    if not needed:
        return {}, {}
    c = cfg["corpus"]
    train_utts = _sample_split(world, c["train"], 0,
                               c["min_words"], c["max_words"])
    val_utts = _sample_split(world, c["val"], 100_000,
                             c["min_words"], c["max_words"])
    conditions = [float(s) for s in cfg["snr_grid"]] + [None]
    kinds = list(cfg["noise_kinds"])
    # dsw-mse regresses on the oracle weights it is scored beside
    oracle_mode = cfg["oracle_mode"] if "dsw-mse" in needed else None
    train_items = build_training_items(world, graph, train_utts, conditions,
                                       kinds, seed, oracle_mode)
    val_items = build_training_items(world, graph, val_utts, conditions,
                                     kinds, seed + 1, oracle_mode)
    job = (cfg, seed, world.config.num_states,
           train_items[0]["reliability"].shape[1], train_items, val_items)
    trained = _train_all(job, needed)
    models = {strat: model for strat, (model, _) in zip(needed, trained)}
    val_ce = {strat: best for strat, (_, best) in zip(needed, trained)}
    return models, val_ce


def test_split(cfg: dict, world: World) -> list[Utterance]:
    """The clean test utterances of a world; every cell starts from one."""
    c = cfg["corpus"]
    return _sample_split(world, c["test"], 200_000,
                         c["min_words"], c["max_words"])


def mix_test_noise(utt: Utterance, cond: float | None, kinds: list[str],
                   seed: int, idx: int) -> Utterance:
    """Test utterance ``idx`` of a seed heard in condition ``cond``: the one
    noise convention of the sweep, the staged commands and synth's WAVs."""
    kind = kinds[idx % len(kinds)]
    return mix_noise(utt, kind, cond, seed=seed * 104729 + idx)


def _map_ordered(fn, items, threads: int) -> list:
    """Apply fn to each item, in parallel when asked, preserving order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass
class VideoPart:
    """What no audio condition changes in a test utterance."""
    posts: dict[str, PosteriorSequence]  # VA and VS
    measures: dict[str, dict]  # ``stream_measures`` of VA and VS
    features: np.ndarray  # ``video_signal_features``


def video_cache(world: World, utts: list[Utterance],
                threads: int = 1) -> list[VideoPart]:
    """Per test utterance, its ``VideoPart``, computed once for all the
    conditions."""

    def one(utt: Utterance) -> VideoPart:
        posts = {s: compute_stream_posteriors(utt, world, s)
                 for s in ("VA", "VS")}
        measures = {s: stream_measures(p.frames) for s, p in posts.items()}
        return VideoPart(posts, measures, video_signal_features(utt))

    return _map_ordered(one, utts, threads)


@dataclass
class Cell:
    """One (seed, condition, test utterance) cell of the recognizer."""
    utt: Utterance  # the utterance as heard in the condition
    posts: dict[str, PosteriorSequence]
    logs: list[np.ndarray]  # per stream, in STREAMS order
    rel: np.ndarray  # (T, reliability dim)


def condition_cells(world: World, utts: list[Utterance], cache: list,
                    cond: float | None, kinds: list[str], seed: int,
                    threads: int = 1) -> list[Cell]:
    """The cells of one condition, one per test utterance, in order.

    ``cache`` is ``video_cache`` of the same utterances; ``threads`` maps
    the utterances over a thread pool without changing the cells.
    """

    def one(idx: int) -> Cell:
        video = cache[idx]
        noisy = mix_test_noise(utts[idx], cond, kinds, seed, idx)
        posts = stream_posterior_set(noisy, world, video.posts)
        logs = [np.log(posts[s].frames) for s in STREAMS]
        rel = reliability_features(noisy, posts, video.features,
                                   video.measures)
        return Cell(noisy, posts, logs, rel)

    return _map_ordered(one, range(len(utts)), threads)


def _fuse_for_strategy(strategy: str, cell: Cell, world: World,
                       models: dict, oracle):
    """Fused log-posteriors of one cell; ``oracle`` carries the cell's
    oracle weights when the strategy is ``oracle``."""
    logs = cell.logs
    if strategy == "ao":
        return logs[0]
    if strategy == "va":
        return logs[1]
    if strategy == "vs":
        return logs[2]
    if strategy == "early":
        return np.log(compute_joint_posteriors(cell.utt, world))
    if strategy == "static":
        return static_fuse(logs, np.full(len(logs), 1.0 / len(logs)))
    if strategy == "oracle":
        return dynamic_fuse(logs, oracle)
    if strategy in ("dsw-mse", "dsw-ce"):
        return dynamic_fuse(logs, models[strategy].predict(cell.rel))
    raise ValueError(f"unknown strategy {strategy!r}")


def fuse_cells(cells: list[Cell], strategies: list[str], world: World,
               models: dict, oracle_mode: str) -> list[list]:
    """Fused log-posteriors of a condition's cells, indexed [cell][strategy].

    The oracle weights of all the cells come from one solver run, and each
    DFN fuses all the cells in one ``dfn_fuse`` call, whose stacked rows
    are split back by the cells' lengths.
    """
    oracle = [None] * len(cells)
    if "oracle" in strategies:
        oracle = oracle_weights_batch([cell.logs for cell in cells],
                                      [cell.utt.alignment for cell in cells],
                                      mode=oracle_mode)
    dfn = {}
    bounds = np.cumsum([cell.rel.shape[0] for cell in cells])[:-1]
    for strategy in strategies:
        if strategy in ("dfn-lstm", "dfn-blstm"):
            fused = dfn_fuse(
                [[cell.posts[s].frames for s in STREAMS] for cell in cells],
                [cell.rel for cell in cells], models[strategy])
            dfn[strategy] = np.split(fused.frames, bounds)
    return [[dfn[strategy][i] if strategy in dfn else
             _fuse_for_strategy(strategy, cell, world, models, oracle[i])
             for strategy in strategies]
            for i, cell in enumerate(cells)]


@single_blas_thread()
def run_sweep(cfg: dict, models_out: dict | None = None) -> SweepResult:
    """Run the full experiment grid described by a validated config dict."""
    strategies = list(cfg["strategies"])
    unknown = [s for s in strategies if s not in ALL_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies: {unknown}")
    conditions = [float(s) for s in cfg["snr_grid"]] + [None]
    labels = [condition_label(c) for c in conditions]
    seeds = [int(s) for s in cfg["seeds"]]
    kinds = list(cfg["noise_kinds"])
    oracle_mode = cfg["oracle_mode"]
    result = SweepResult(strategies=strategies, labels=labels, seeds=seeds)
    counts: dict[str, dict[str, list[WerReport]]] = {
        s: {lab: [] for lab in labels} for s in strategies}

    for seed in seeds:
        world = build_world(WorldConfig(**cfg["world"]), seed)
        graph = build_decoding_graph(world, cfg["lm_scale"])
        models, seed_val_ce = train_strategy_models(
            cfg, world, graph, seed, strategies)
        for strat, best in seed_val_ce.items():
            if strat.startswith("dfn-"):
                result.val_ce.setdefault(strat, []).append(best)
        if models_out is not None:
            models_out[seed] = models
        test_utts = test_split(cfg, world)
        cache = video_cache(world, test_utts)
        per_cell: dict[str, dict[str, list[WerReport]]] = {
            s: {lab: [] for lab in labels} for s in strategies}
        for cond, label in zip(conditions, labels):
            cells = condition_cells(world, test_utts, cache, cond, kinds,
                                    seed)
            fused_cells = fuse_cells(cells, strategies, world, models,
                                     oracle_mode)
            # one padded decode for every cell and strategy of the condition
            decoded = viterbi_decode_batch(
                [f for fused in fused_cells for f in fused], graph)
            for i, cell in enumerate(cells):
                utt = cell.utt
                per_strategy = decoded[i * len(strategies):
                                       (i + 1) * len(strategies)]
                for strategy, dec in zip(strategies, per_strategy):
                    hyp = dec.words
                    report = wer(utt.words, hyp)
                    per_cell[strategy][label].append(report)
                    result.utterance_detail.append({
                        "seed": seed, "strategy": strategy, "snr": label,
                        "utt_id": utt.utt_id, "reference": utt.words,
                        "hypothesis": hyp,
                        "errors": report.errors,
                        "ref_length": report.ref_length,
                    })
        for strategy in strategies:
            for label in labels:
                counts[strategy][label].append(
                    pool_reports(per_cell[strategy][label]))

    result.per_seed_wer = {
        s: {lab: [r.wer for r in counts[s][lab]] for lab in labels}
        for s in strategies}
    return result


def write_sweep_csv(path, result: SweepResult) -> None:
    """Strategy rows by SNR columns plus the row average, Table-style."""
    header = ["strategy"] + [f"snr_{lab}" for lab in result.labels] + ["avg"]
    lines = [",".join(header)]
    for strategy in result.strategies:
        cells = [f"{result.mean_wer(strategy, lab):.6f}"
                 for lab in result.labels]
        cells.append(f"{result.row_average(strategy):.6f}")
        lines.append(",".join([strategy] + cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_json(path, result: SweepResult) -> None:
    doc = {
        "strategies": result.strategies,
        "conditions": result.labels,
        "seeds": result.seeds,
        "wer": {
            s: {lab: {"per_seed": result.per_seed_wer[s][lab],
                      "mean": result.mean_wer(s, lab)}
                for lab in result.labels}
            for s in result.strategies},
        "row_averages": {s: result.row_average(s) for s in result.strategies},
        "validation_ce": result.val_ce,
        "utterances": result.utterance_detail,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def write_report_csv(path, result: SweepResult) -> None:
    """Plot-ready long format: strategy, snr, wer_mean, wer_ci."""
    lines = ["strategy,snr,wer_mean,wer_ci"]
    for strategy in result.strategies:
        for label in result.labels:
            values = np.asarray(result.per_seed_wer[strategy][label])
            mean = float(values.mean())
            if values.size > 1:
                ci = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
            else:
                ci = 0.0
            lines.append(f"{strategy},{label},{mean:.6f},{ci:.6f}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
