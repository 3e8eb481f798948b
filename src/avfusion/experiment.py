"""SNR-sweep experiment driver: corpus generation, model training, fusion,
decoding, and WER aggregation across seeds, plus CSV/JSON emitters.

The sweep mirrors the usual presentation: one row per strategy, one column
per SNR condition from -9 dB to +9 dB plus clean, and a trailing average
column. WER is pooled over utterances within a (strategy, condition, seed)
cell and averaged across seeds for the table.

Within a seed the usable CPUs stay busy where they can. Training items
are built in slices on a fork pool, and the learned strategies train on a
second one, whose workers inherit the items; both go through one helper
(``_fork_map``), which runs the calls in turn only where the platform
cannot fork. Meanwhile this process builds the seed's test cells and
fuses, decodes and keeps the strategies that need no trained model
(``run_sweep``'s ``parent_work`` to ``train_strategy_models``). A worker's
failure surfaces once that work returns. The learned strategies are fused
and decoded when their models are back.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from .align import align_stream, bresenham_map
from .blas import single_blas_thread
from .core import STREAMS, AlignmentTarget
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


def model_based_features(measures: dict[str, dict]) -> np.ndarray:
    """(T, 18): six measures per stream, stream-major in STREAMS order --
    entropy, dispersion, posterior difference, temporal divergence, and
    the entropy and dispersion ratios, which compare the streams.
    ``measures`` maps each stream to its ``stream_measures``."""
    per_stream = [measures[s] for s in STREAMS]
    ent_ratio = entropy_ratio(
        np.stack([m["entropy"] for m in per_stream], axis=1))
    disp_ratio = dispersion_ratio(
        np.stack([m["dispersion"] for m in per_stream], axis=1))
    return np.column_stack([
        col for i, m in enumerate(per_stream)
        for col in (m["entropy"], m["dispersion"], m["posterior_difference"],
                    m["temporal_divergence"], ent_ratio[:, i],
                    disp_ratio[:, i])])


def reliability_features(utt: Utterance, measures: dict[str, dict],
                         video_feats: np.ndarray) -> np.ndarray:
    """The (T, 41) per-frame reliability vector at the audio rate: the
    model-based block (``model_based_features`` of ``measures``), the audio
    block and the video block (``video_signal_features``) repeated up to
    the audio rate, side by side."""
    frame_map = bresenham_map(utt.num_audio_frames, utt.num_video_frames)
    return np.concatenate([model_based_features(measures),
                           audio_signal_features(utt),
                           align_stream(video_feats, frame_map)], axis=1)


@dataclass
class VideoPart:
    """What no audio condition changes in an utterance."""
    posts: dict[str, np.ndarray]  # VA and VS posteriors, (T, S) each
    measures: dict[str, dict]  # ``stream_measures`` of VA and VS
    features: np.ndarray  # ``video_signal_features``


def video_part(world: World, utt: Utterance) -> VideoPart:
    """The ``VideoPart`` of ``utt``, which any condition of it shares."""
    posts = {s: compute_stream_posteriors(utt, world, s)
             for s in ("VA", "VS")}
    measures = {s: stream_measures(p) for s, p in posts.items()}
    return VideoPart(posts, measures, video_signal_features(utt))


@dataclass
class Cell:
    """One utterance as the fusers see it: a (seed, condition, test
    utterance) cell of the recognizer, or a training item's input."""
    # the utterance as heard in the condition; None in a cell kept only
    # for the learned fusers, which never read it
    utt: Utterance | None
    posts: dict[str, np.ndarray]  # per stream, (T, S)
    logs: list[np.ndarray]  # their logs, in STREAMS order
    rel: np.ndarray  # (T, reliability dim)


def build_cell(world: World, noisy: Utterance, video: VideoPart) -> Cell:
    """The cell of ``noisy``, whose ``video_part`` is ``video``: the one
    place posteriors and reliability vectors are computed, for training
    items and test cells alike."""
    audio = compute_stream_posteriors(noisy, world, "A")
    posts = {"A": audio, **video.posts}
    measures = {"A": stream_measures(audio), **video.measures}
    return Cell(noisy, posts, [np.log(posts[s]) for s in STREAMS],
                reliability_features(noisy, measures, video.features))


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


def _sample_split(world: World, indices: range, offset: int,
                  min_words: int, max_words: int) -> list[Utterance]:
    """Utterances ``indices`` of the split whose sampling seeds start at
    ``offset``: each is a function of its index alone."""
    span = max_words - min_words + 1
    return [sample_utterance(world, min_words + i % span, seed=offset + i,
                             utt_id=f"u{offset + i:06d}")
            for i in indices]


def condition_grid(cfg: dict) -> list:
    """The SNR grid in dB, then clean (None)."""
    return [float(s) for s in cfg["snr_grid"]] + [None]


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    t = cfg["training"]
    return TrainConfig(lr0=t["lr0"], lr_decay=t["lr_decay"],
                       batch_size=t["batch_size"],
                       check_interval=t["check_interval"],
                       patience=t["patience"], max_steps=t["max_steps"],
                       seed=seed)


def build_training_items(world: World, graph: DecodingGraph,
                         utts: list[Utterance], first: int,
                         conditions: list, kinds: list[str],
                         seed: int) -> list[dict]:
    """One training item per utterance; ``utts[j]`` is item ``first + j``
    of its split, and that index picks its noise condition and kind
    (cycling through both) and its noise seed.

    Targets come from forced alignment of the clean audio posteriors, per
    the training recipe; the generator's own alignment is withheld.
    ``add_oracle_targets`` adds the oracle weights where they are needed.
    """
    items = []
    for idx, utt in enumerate(utts, first):
        cond = conditions[idx % len(conditions)]
        kind = kinds[idx % len(kinds)]
        # on a copy, so the caller's utterance keeps no log-mel memo
        clean_posts_a = compute_stream_posteriors(replace(utt), world, "A")
        target = forced_align(utt.words, np.log(clean_posts_a), graph)
        noisy = mix_noise(utt, kind, cond, seed=seed * 7919 + idx)
        cell = build_cell(world, noisy, video_part(world, noisy))
        items.append({
            "utt_id": utt.utt_id,
            "posteriors": [cell.posts[s] for s in STREAMS],
            "log_posts": np.stack(cell.logs),
            "reliability": cell.rel,
            "targets": target.states,
        })
    return items


def add_oracle_targets(items: list[dict], num_states: int,
                       mode: str) -> None:
    """Give every item its oracle weights in ``mode`` (the ``dsw-mse``
    targets), from one solver run over all of them: each frame is solved
    on its own, so the weights are those of per-item runs."""
    solved = oracle_weights_batch(
        [list(item["log_posts"]) for item in items],
        [AlignmentTarget(item["targets"], num_states) for item in items],
        mode=mode)
    for item, weights in zip(items, solved):
        item["oracle_weights"] = weights.weights


# per split: the offset of its utterances' sampling seeds, and what its
# noise seed adds to the seed
_SPLITS = {"train": (0, 0), "val": (100_000, 1)}


def _item_slice(job: tuple, split: str, lo: int, hi: int) -> list[dict]:
    """Items ``lo`` to ``hi - 1`` of one of a seed's splits, from
    utterances sampled here: a slice needs nothing but its bounds and the
    seed's (cfg, world, graph, seed) ``job``."""
    cfg, world, graph, seed = job
    c = cfg["corpus"]
    offset, noise = _SPLITS[split]
    utts = _sample_split(world, range(lo, hi), offset,
                         c["min_words"], c["max_words"])
    return build_training_items(world, graph, utts, lo, condition_grid(cfg),
                                list(cfg["noise_kinds"]), seed + noise)


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


def _train_one(job: tuple, strat: str) -> tuple:
    """(model, best validation CE) of one learned strategy."""
    cfg, seed, num_states, train_items, val_items = job
    tc = _train_config(cfg, seed)
    rel_dim = train_items[0]["reliability"].shape[1]
    try:
        if strat.startswith("dfn-"):
            variant = strat.split("-", 1)[1]
            d = cfg["dfn"]
            model, history = train_dfn(
                train_items, val_items, variant, num_states, rel_dim, tc,
                widths=tuple(d["widths"]), hidden=d["hidden"],
                scale=d["scale"], dropout=d["dropout"])
        else:
            criterion = strat.split("-", 1)[1]
            model, history = train_weight_estimator(
                train_items, val_items, criterion, num_states, tc,
                hidden=cfg["estimator"]["hidden"])
    except Exception as exc:
        raise TrainingError(f"training {strat} for seed {seed} failed: "
                            f"{type(exc).__name__}: {exc}") from exc
    return model, history["best_val"]


_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()

# the job of the calls a fork pool runs (``_fork_map``), set only while
# they are submitted: the pool forks its workers at the first submit, and
# they inherit it
_WORKER_JOB = None


def _call_with_job(fn, *call):
    return fn(_WORKER_JOB, *call)


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Shut the pool down without finishing its tasks: pending ones are
    cancelled and running workers terminated, then reaped."""
    # the executor has no public way to terminate its workers before
    # Python 3.14 (terminate_workers), so this reads its process table
    for proc in list((pool._processes or {}).values()):
        proc.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def _wait(futures: list, tasks: list[str], seed: int) -> None:
    """Wait until all ``futures`` (running ``tasks``) are done, raising the
    first failure at once; a dead worker, which fails every unfinished
    task of its pool, as a ``TrainingError`` naming them."""
    done, _ = wait(futures, return_when=FIRST_EXCEPTION)
    failed = [f for f in futures if f in done and f.exception() is not None]
    if not failed:
        return
    error = failed[0].exception()
    if isinstance(error, BrokenProcessPool):
        unfinished = [task for task, f in zip(tasks, futures)
                      if f.done() and f.exception() is not None]
        raise TrainingError(
            f"a worker died while {', '.join(unfinished)} "
            f"for seed {seed}: {error}") from error
    raise error


def _fork_map(fn, job: tuple, calls: list[tuple], tasks: list[str],
              seed: int, parent_work=None) -> list:
    """``fn(job, *call)`` for each of ``calls`` (``tasks`` of ``seed``), in
    order, on a fork pool of one worker per call up to the usable CPUs,
    while ``parent_work`` (a callable, if given) runs here; where the
    platform cannot fork, the calls and then ``parent_work`` run here.

    The workers inherit ``job``, and this process drops it before
    ``parent_work``. Any failure, in a worker or in ``parent_work``, stops
    the workers and is raised at once; a worker's failure while
    ``parent_work`` runs surfaces when it returns.
    """
    global _WORKER_JOB
    work = parent_work or (lambda: None)
    if not _CAN_FORK:
        results = [fn(job, *call) for call in calls]
        work()
        return results
    with ProcessPoolExecutor(
            max_workers=min(len(calls), usable_cpus()),
            mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            _WORKER_JOB, job = job, None
            try:
                futures = [pool.submit(_call_with_job, fn, *call)
                           for call in calls]
            finally:
                _WORKER_JOB = None
            work()
            _wait(futures, tasks, seed)
        except BaseException:
            _stop_workers(pool)
            raise
    return [f.result() for f in futures]


def _training_job(cfg: dict, world: World, graph: DecodingGraph, seed: int,
                  needed: list[str]) -> tuple:
    """The job ``_train_one`` takes: a seed's items by split, each split
    built in ordered slices, one per usable CPU, with the oracle targets
    where ``needed`` asks for them."""
    workers = usable_cpus()
    c = cfg["corpus"]
    slices = [(split, c[split] * k // workers, c[split] * (k + 1) // workers)
              for split in _SPLITS for k in range(workers)]
    slices = [s for s in slices if s[1] < s[2]]
    parts = _fork_map(_item_slice, (cfg, world, graph, seed), slices,
                      [f"building {split} items {lo}-{hi - 1}"
                       for split, lo, hi in slices], seed)
    items: dict[str, list[dict]] = {split: [] for split in _SPLITS}
    for (split, _, _), part in zip(slices, parts):
        items[split] += part
    num_states = world.config.num_states
    if "dsw-mse" in needed:
        # dsw-mse regresses on the oracle weights it is scored beside
        add_oracle_targets(items["train"] + items["val"], num_states,
                           cfg["oracle_mode"])
    return cfg, seed, num_states, items["train"], items["val"]


@single_blas_thread()
def train_strategy_models(cfg: dict, world: World, graph: DecodingGraph,
                          seed: int, strategies: list[str],
                          parent_work=None) -> tuple[dict, dict]:
    """Train every requested learned strategy for one seed, and run
    ``parent_work`` (a callable, if given) in this process meanwhile.

    Returns (models by strategy, best validation CE by strategy).

    The training and validation items are built in ordered slices, one
    per usable CPU, on a fork pool; then each strategy trains in a worker
    of a second fork pool, which inherits the items, while
    ``parent_work`` runs here (``_fork_map``). Each strategy trains from
    its own seed on the same items, with BLAS at one thread, so the
    results depend neither on the number of workers nor on whether the
    platform could fork.
    """
    needed = [s for s in strategies if s in TRAINED_STRATEGIES]
    if not needed:
        if parent_work is not None:
            parent_work()
        return {}, {}
    # the job is built in the call, so that no name here keeps the items
    # while parent_work runs
    trained = _fork_map(_train_one,
                        _training_job(cfg, world, graph, seed, needed),
                        [(strat,) for strat in needed],
                        [f"training {strat}" for strat in needed],
                        seed, parent_work)
    models = {strat: model for strat, (model, _) in zip(needed, trained)}
    val_ce = {strat: best for strat, (_, best) in zip(needed, trained)}
    return models, val_ce


def test_split(cfg: dict, world: World) -> list[Utterance]:
    """The clean test utterances of a world; every cell starts from one."""
    c = cfg["corpus"]
    return _sample_split(world, range(c["test"]), 200_000,
                         c["min_words"], c["max_words"])


def mix_test_noise(utt: Utterance, cond: float | None, kinds: list[str],
                   seed: int, idx: int) -> Utterance:
    """Test utterance ``idx`` of a seed heard in condition ``cond``: the one
    noise convention of the sweep, the staged commands and synth's WAVs."""
    kind = kinds[idx % len(kinds)]
    return mix_noise(utt, kind, cond, seed=seed * 104729 + idx)


def video_cache(world: World, utts: list[Utterance]) -> list[VideoPart]:
    """Per test utterance, its ``video_part``, computed once for all the
    conditions, in the calling thread."""
    return [video_part(world, utt) for utt in utts]


def condition_cells(world: World, utts: list[Utterance], cache: list,
                    cond: float | None, kinds: list[str],
                    seed: int) -> list[Cell]:
    """The cells of one condition, one per test utterance, in order, built
    in the calling thread; ``cache`` is ``video_cache`` of the same
    utterances."""
    return [build_cell(world, mix_test_noise(utt, cond, kinds, seed, idx),
                       cache[idx])
            for idx, utt in enumerate(utts)]


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
        return dynamic_fuse(logs, oracle.weights)
    if strategy in ("dsw-mse", "dsw-ce"):
        return dynamic_fuse(logs, models[strategy].predict(cell.rel).weights)
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
                [[cell.posts[s] for s in STREAMS] for cell in cells],
                [cell.rel for cell in cells], models[strategy])
            dfn[strategy] = np.split(fused, bounds)
    return [[dfn[strategy][i] if strategy in dfn else
             _fuse_for_strategy(strategy, cell, world, models, oracle[i])
             for strategy in strategies]
            for i, cell in enumerate(cells)]


def _model_free_pass(cfg: dict, world: World, graph: DecodingGraph,
                     seed: int, strategies: list[str]) -> list[tuple]:
    """Per condition of a seed, (cells, rows): the test cells with their
    utterances dropped, which keeps what a learned fuser reads, and per
    cell a row of its utterance id, reference words and each of the
    model-free ``strategies``' hypothesis, from one padded decode."""
    kinds = list(cfg["noise_kinds"])
    test_utts = test_split(cfg, world)
    cache = video_cache(world, test_utts)

    # a condition's full cells are dropped before the next one is built
    def one(cond: float | None) -> tuple:
        cells = condition_cells(world, test_utts, cache, cond, kinds, seed)
        rows = [{"utt_id": cell.utt.utt_id, "reference": cell.utt.words,
                 "hyps": {}} for cell in cells]
        if strategies:
            fused = fuse_cells(cells, strategies, world, {},
                               cfg["oracle_mode"])
            _decode_into(rows, fused, strategies, graph)
        return [replace(cell, utt=None) for cell in cells], rows

    return [one(cond) for cond in condition_grid(cfg)]


def _decode_into(rows: list[dict], fused: list[list], strategies: list[str],
                 graph: DecodingGraph) -> None:
    """Decode ``fused`` ([cell][strategy]) in one padded Viterbi run and
    file each hypothesis under its row and strategy."""
    decoded = viterbi_decode_batch([f for per_cell in fused
                                    for f in per_cell], graph)
    for i, row in enumerate(rows):
        per_cell = decoded[i * len(strategies):(i + 1) * len(strategies)]
        row["hyps"].update(
            (strategy, dec.words)
            for strategy, dec in zip(strategies, per_cell))


@single_blas_thread()
def run_sweep(cfg: dict, models_out: dict | None = None) -> SweepResult:
    """Run the full experiment grid described by a validated config dict.

    A seed's model-free strategies are evaluated while its learned ones
    train (``train_strategy_models``'s ``parent_work``); the learned ones
    are fused and decoded once their models are back.
    """
    strategies = list(cfg["strategies"])
    unknown = [s for s in strategies if s not in ALL_STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategies: {unknown}")
    learned = [s for s in strategies if s in TRAINED_STRATEGIES]
    model_free = [s for s in strategies if s not in learned]
    labels = [condition_label(c) for c in condition_grid(cfg)]
    seeds = [int(s) for s in cfg["seeds"]]
    result = SweepResult(strategies=strategies, labels=labels, seeds=seeds)
    counts: dict[str, dict[str, list[WerReport]]] = {
        s: {lab: [] for lab in labels} for s in strategies}

    for seed in seeds:
        world = build_world(WorldConfig(**cfg["world"]), seed)
        graph = build_decoding_graph(world, cfg["lm_scale"])
        passes: list[tuple] = []
        models, seed_val_ce = train_strategy_models(
            cfg, world, graph, seed, strategies,
            lambda: passes.extend(
                _model_free_pass(cfg, world, graph, seed, model_free)))
        for strat, best in seed_val_ce.items():
            if strat.startswith("dfn-"):
                result.val_ce.setdefault(strat, []).append(best)
        if models_out is not None:
            models_out[seed] = models
        for label, (cells, rows) in zip(labels, passes):
            if learned:
                _decode_into(rows, fuse_cells(cells, learned, world, models,
                                              cfg["oracle_mode"]),
                             learned, graph)
            per_cell: dict[str, list[WerReport]] = {s: [] for s in strategies}
            for row in rows:
                for strategy in strategies:
                    hyp = row["hyps"][strategy]
                    report = wer(row["reference"], hyp)
                    per_cell[strategy].append(report)
                    result.utterance_detail.append({
                        "seed": seed, "strategy": strategy, "snr": label,
                        "utt_id": row["utt_id"],
                        "reference": row["reference"], "hypothesis": hyp,
                        "errors": report.errors,
                        "ref_length": report.ref_length,
                    })
            for strategy in strategies:
                counts[strategy][label].append(
                    pool_reports(per_cell[strategy]))

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
