"""Correctness checks computed apart from the program.

Every check reports the cells it condemns; a cell is one scored
(seed, condition, utterance, strategy) combination, keyed as
``(seed, strategy, condition label, utt_id)``. A check on a whole group
(a pooled WER, a trained model, a solver call) condemns every cell of the
group. Nothing here calls into avfusion: the benchmark's own Levenshtein
distance, path scorer, simplex grid and AVPF reader do the work.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

WER_TOL = 1e-12
LOGSUMEXP_TOL = 1e-9
ORACLE_GRID_STEP = 0.01
ORACLE_SLACK = 1e-6
SCORE_SLACK = 1e-6  # decode/*.json rounds log scores to 6 decimals


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    """Unit-cost Levenshtein distance between two word lists."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def read_avpf(path: Path) -> np.ndarray:
    """The AVPF matrix format: 'AVPF', u32 version, rows, cols, f32 data."""
    data = Path(path).read_bytes()
    if data[:4] != b"AVPF" or len(data) < 16:
        raise ValueError(f"{path}: not an AVPF file")
    _, rows, cols = struct.unpack_from("<III", data, 4)
    if len(data) != 16 + 4 * rows * cols:
        raise ValueError(f"{path}: payload does not match {rows}x{cols}")
    return np.frombuffer(data, "<f4", offset=16).reshape(rows, cols) \
        .astype(np.float64)


def path_score(emissions: np.ndarray, states: np.ndarray, graph) -> float:
    """Score of one state path through the decoding graph: LM start, each
    frame's emission, self-loop / chain / word-entry arcs. -inf when the
    path uses an arc the graph does not have."""
    states = np.asarray(states, dtype=int)
    word = graph.word_of_state
    initial = set(graph.initial_states.tolist())
    final = set(graph.final_states.tolist())
    if states[0] not in initial:
        return -math.inf
    score = float(graph.lm_init[word[states[0]]])
    score += float(emissions[np.arange(len(states)), states].sum())
    for prev, cur in zip(states[:-1].tolist(), states[1:].tolist()):
        if cur == prev:
            score += graph.log_loop
        elif graph.chain_prev[cur] == prev:
            score += graph.log_leave
        elif prev in final and cur in initial:
            score += graph.log_leave + float(
                graph.lm_entry[word[prev], word[cur]])
        else:
            return -math.inf
    return score


def _logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    mx = mat.max(axis=1, keepdims=True)
    return np.log(np.exp(mat - mx).sum(axis=1)) + mx[:, 0]


def simplex_grid(step: float = ORACLE_GRID_STEP) -> np.ndarray:
    n = int(round(1.0 / step))
    pts = [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
    return np.asarray(pts, dtype=np.float64) / n


def oracle_sample_ok(logs: np.ndarray, targets: np.ndarray,
                     weights: np.ndarray, grid: np.ndarray) -> bool:
    """``logs`` (F, M, S) stream log-posteriors, ``targets`` (F,) true
    states, ``weights`` (F, M) solver output, all on sampled frames.

    The weights must lie on the simplex, and each frame's renormalized CE
    must not exceed the best 0.01-grid point's by more than 1e-6."""
    if (weights < -1e-12).any() or \
            np.abs(weights.sum(axis=1) - 1.0).max() > 1e-9:
        return False
    f_idx = np.arange(len(targets))
    lstar = logs[f_idx, :, targets]  # (F, M)
    fused = np.einsum("fm,fms->fs", weights, logs)
    ce = _logsumexp_rows(fused) - (weights * lstar).sum(axis=1)
    for f in range(len(targets)):
        grid_fused = grid @ logs[f]  # (G, S)
        grid_ce = _logsumexp_rows(grid_fused) - grid @ lstar[f]
        if ce[f] > grid_ce.min() + ORACLE_SLACK:
            return False
    return True


def wer_cells(cells: dict, reported: dict) -> set:
    """``cells`` maps a cell key to (reference, hypothesis, reported
    (errors, ref_length) or None); ``reported`` maps (seed, strategy,
    label) to the program's pooled WER. Returns the failed cells."""
    failed = set()
    pooled: dict = {}
    for key, (ref, hyp, claim) in cells.items():
        errors = edit_distance(ref, hyp)
        if claim is not None and tuple(claim) != (errors, len(ref)):
            failed.add(key)
        acc = pooled.setdefault(key[:3], [0, 0, []])
        acc[0] += errors
        acc[1] += len(ref)
        acc[2].append(key)
    for group, (errors, length, keys) in pooled.items():
        claim = reported.get(group)
        if claim is None or abs(errors / max(length, 1) - claim) > WER_TOL:
            failed.update(keys)
    return failed


class Captures:
    """In-memory outputs taken from the calls a round makes: oracle weights
    on sampled frames and every DFN output matrix."""

    def __init__(self):
        self.oracle: list[tuple] = []  # (logs (F,M,S), targets, weights)
        self.dfn: list[tuple] = []  # (strategy, (T, S) log-posteriors)

    def add_oracle(self, log_posts: list, alignment, weights) -> None:
        stacked = np.stack([np.asarray(lp) for lp in log_posts], axis=1)
        t_len = stacked.shape[0]
        idx = sorted({0, t_len // 2, t_len - 1})  # first, middle, last
        self.oracle.append((stacked[idx], alignment.states[idx].copy(),
                            np.asarray(weights)[idx].copy()))

    def add_dfn(self, model, fused) -> None:
        self.dfn.append((f"dfn-{model.variant}",
                         np.asarray(getattr(fused, "frames", fused))))

    def failed_strategies(self) -> set:
        bad = set()
        grid = simplex_grid()
        if not all(oracle_sample_ok(*sample, grid) for sample in self.oracle):
            bad.update({"oracle", "dsw-mse"})
        for strategy, mat in self.dfn:
            if np.abs(_logsumexp_rows(mat)).max() > LOGSUMEXP_TOL:
                bad.add(strategy)
        return bad


def dfn_val_ok(best_val: float, num_states: int) -> bool:
    """A trained DFN must beat the uniform predictor's CE, log S."""
    return math.isfinite(best_val) and best_val < math.log(num_states)


def check_sweep(out_dir: Path, expected: set, num_states: int,
                captures: Captures) -> set:
    """Failed cells of a ``sweep.json`` written by ``write_sweep_json``."""
    doc = json.loads((Path(out_dir) / "sweep.json").read_text())
    seeds = list(doc["seeds"])
    cells = {}
    for u in doc["utterances"]:
        key = (u["seed"], u["strategy"], u["snr"], u["utt_id"])
        cells[key] = (u["reference"], u["hypothesis"],
                      (u["errors"], u["ref_length"]))
    reported = {(seed, s, lab): per_lab["per_seed"][i]
                for s, by_lab in doc["wer"].items()
                for lab, per_lab in by_lab.items()
                for i, seed in enumerate(seeds)}
    failed = wer_cells(cells, reported)
    failed |= expected - set(cells)
    bad = captures.failed_strategies()
    for strategy, per_seed in doc["validation_ce"].items():
        for seed, best in zip(seeds, per_seed):
            if not dfn_val_ok(best, num_states):
                bad.add((seed, strategy))
    return _condemn(failed, expected, bad)


def check_staged(out_dir: Path, expected: set, graph,
                 captures: Captures) -> set:
    """Failed cells of a staged run's decode/, fused/, eval/ and models/
    outputs, with references and true paths from synth's manifest."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    utts = {r["id"]: r for r in manifest["utterances"]}
    results = json.loads((out_dir / "eval" / "results.json").read_text())
    seeds = results["seeds"]
    reported = {(seed, s, lab): per_lab["per_seed"][i]
                for s, by_lab in results["wer"].items()
                for lab, per_lab in by_lab.items()
                for i, seed in enumerate(seeds)}
    cells = {}
    failed = set()
    truth = {uid: read_avpf(out_dir / r["alignment"])[:, 0].astype(int)
             for uid, r in utts.items()}
    decoded: dict = {}
    for seed, strategy, label, uid in sorted(expected):
        if (seed, strategy) not in decoded:
            dec_path = out_dir / "decode" / f"{strategy}.seed{seed}.json"
            decoded[seed, strategy] = json.loads(dec_path.read_text()) \
                if dec_path.exists() else {}
        entry = decoded[seed, strategy].get(label, {}).get(uid)
        fused_path = (out_dir / "fused" / strategy / f"seed{seed}" /
                      f"{uid}.{label}.avpf")
        key = (seed, strategy, label, uid)
        if entry is None or uid not in utts or not fused_path.exists():
            continue  # missing: condemned below
        cells[key] = (utts[uid]["transcript"], entry["words"], None)
        true = path_score(read_avpf(fused_path), truth[uid], graph)
        if not math.isfinite(true) or \
                entry["log_score"] < true - SCORE_SLACK - 1e-9 * abs(true):
            failed.add(key)
    failed |= wer_cells(cells, reported)
    failed |= expected - set(cells)
    bad = captures.failed_strategies()
    val_path = out_dir / "models" / "val_ce.json"
    val = json.loads(val_path.read_text()) if val_path.exists() else {}
    for strategy in {k[1] for k in expected}:
        if strategy.startswith("dfn-"):
            for seed in seeds:
                best = val.get(strategy, {}).get(str(seed))
                if best is None or not dfn_val_ok(best, graph.num_states):
                    bad.add((seed, strategy))
    return _condemn(failed, expected, bad)


def _condemn(failed: set, expected: set, bad: set) -> set:
    """Add every expected cell whose strategy, or (seed, strategy), is in
    ``bad``."""
    return failed | {k for k in expected
                     if k[1] in bad or (k[0], k[1]) in bad}
