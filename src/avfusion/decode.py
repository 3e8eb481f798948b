"""Viterbi decoding over word state chains with a bigram language model,
forced alignment, and word-error-rate scoring.

The decoding graph keeps one left-to-right chain per word. Each state
self-loops with probability 1 - 1/mean_duration; leaving a word-final state
follows a bigram LM arc whose probabilities are renormalized after LM-scale
exponentiation, so every node's outgoing mass stays 1. Emission scores are
the fused log-pseudo-posteriors, a plain (T, S) array, used directly; both
decoders refuse a matrix with a NaN or infinite entry.

Ties are broken deterministically: among equal-score predecessors the lowest
state index wins, and on a full tie the arc preference is self-loop, then
chain advance, then word entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AlignmentTarget

ARC_LOOP, ARC_CHAIN, ARC_ENTRY = 0, 1, 2


@dataclass
class DecodingGraph:
    words: list[str]
    chains: list[list[int]]  # state ids per word, left to right
    num_states: int
    log_loop: float
    log_leave: float
    lm_entry: np.ndarray  # (V, V) log P(next word | word), renormalized
    lm_init: np.ndarray  # (V,) log P(first word), renormalized
    initial_states: np.ndarray = field(init=False)
    final_states: np.ndarray = field(init=False)
    chain_prev: np.ndarray = field(init=False)
    word_of_state: np.ndarray = field(init=False)

    def __post_init__(self):
        used = [s for chain in self.chains for s in chain]
        if sorted(used) != list(range(self.num_states)):
            raise ValueError("chains must cover each state exactly once")
        self.initial_states = np.array([c[0] for c in self.chains])
        self.final_states = np.array([c[-1] for c in self.chains])
        self.chain_prev = np.full(self.num_states, -1)
        self.word_of_state = np.empty(self.num_states, dtype=int)
        for w, chain in enumerate(self.chains):
            self.word_of_state[chain] = w
            for a, b in zip(chain, chain[1:]):
                self.chain_prev[b] = a


def _renorm_log(log_probs: np.ndarray, scale: float) -> np.ndarray:
    scaled = scale * log_probs
    return scaled - np.log(np.exp(scaled - scaled.max(axis=-1, keepdims=True))
                           .sum(axis=-1, keepdims=True)) \
        - scaled.max(axis=-1, keepdims=True)


def build_decoding_graph(world, lm_scale: float = 1.0) -> DecodingGraph:
    """Shared decoding graph for every stream and fusion strategy."""
    return graph_from_parts(
        words=world.vocabulary,
        chains=[world.lexicon[w] for w in world.vocabulary],
        lm_initial=world.lm_initial,
        lm_bigram=world.lm_bigram,
        mean_duration=world.config.mean_duration_frames,
        lm_scale=lm_scale,
    )


def graph_from_parts(words, chains, lm_initial, lm_bigram, mean_duration,
                     lm_scale: float = 1.0) -> DecodingGraph:
    if mean_duration <= 1.0:
        raise ValueError("mean duration must exceed 1 frame for a self-loop")
    p_loop = 1.0 - 1.0 / mean_duration
    num_states = sum(len(c) for c in chains)
    return DecodingGraph(
        words=list(words),
        chains=[list(c) for c in chains],
        num_states=num_states,
        log_loop=float(np.log(p_loop)),
        log_leave=float(np.log(1.0 - p_loop)),
        lm_entry=_renorm_log(np.log(np.asarray(lm_bigram, dtype=np.float64)),
                             lm_scale),
        lm_init=_renorm_log(np.log(np.asarray(lm_initial, dtype=np.float64)),
                            lm_scale),
    )


@dataclass
class DecodeResult:
    words: list[str]
    states: np.ndarray
    arcs: np.ndarray  # arc type used to enter each frame's state
    log_score: float


def _emissions(fused: np.ndarray, graph: DecodingGraph) -> np.ndarray:
    """``fused`` as a float64 (T, S) emission matrix, checked: S is the
    graph's state count, T is at least 1 and every entry is finite.

    Both decoders read their scores through here, so a fused matrix with
    a NaN or an infinity is refused wherever it comes from: a fuser in
    memory or an AVPF file on disk.
    """
    lp = np.asarray(fused, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[1] != graph.num_states:
        raise ValueError(f"emission matrix shape {lp.shape} does not match "
                         f"{graph.num_states} graph states")
    if lp.shape[0] == 0:
        raise ValueError("emission matrix has no frames")
    bad = np.flatnonzero(~np.isfinite(lp).all(axis=1))
    if bad.size:
        raise ValueError(f"emission matrix has a non-finite entry in frame "
                         f"{bad[0]}")
    return lp


def viterbi_decode(fused: np.ndarray, graph: DecodingGraph) -> DecodeResult:
    """Best word sequence and state path under emissions + transitions + LM."""
    return viterbi_decode_batch([fused], graph)[0]


def viterbi_decode_batch(fused_list: list,
                         graph: DecodingGraph) -> list[DecodeResult]:
    """``viterbi_decode`` of several emission matrices at once, in input
    order; their lengths may differ.

    Each matrix runs its own recurrence along a leading axis, longest
    first. A sequence that has ended keeps its scores, and its
    back-pointers hold each state in place, so one backtrace serves every
    sequence and each path is then cut to its own length. Every operation
    stays within one sequence, so the results equal separate decodes bit
    for bit while the per-frame overhead is paid once.
    """
    mats = [_emissions(f, graph) for f in fused_list]
    lengths = np.array([m.shape[0] for m in mats])
    order = np.argsort(-lengths, kind="stable")
    n_dec, t_len, s = len(mats), int(lengths.max()), graph.num_states
    em = np.zeros((t_len, n_dec, s))
    for n, i in enumerate(order):
        em[:lengths[i], n] = mats[i]
    # sequences still running at frame t are the first active[t]
    active = (lengths[order][None, :] > np.arange(t_len)[:, None]).sum(axis=1)
    has_prev = graph.chain_prev >= 0
    prev_idx = np.where(has_prev, graph.chain_prev, 0)

    delta = np.full((n_dec, s), -np.inf)
    delta[:, graph.initial_states] = graph.lm_init
    delta += em[0]
    bp_prev = np.empty((t_len, n_dec, s), dtype=np.int32)
    bp_prev[:] = np.arange(s)  # an ended sequence stays where it is
    bp_arc = np.full((t_len, n_dec, s), ARC_LOOP, dtype=np.int8)

    big = s + 1
    # candidate predecessors per arc type; only the entry row changes
    cand_prev = np.zeros((3, n_dec, s), dtype=int)
    cand_prev[ARC_LOOP] = np.arange(s)
    cand_prev[ARC_CHAIN] = prev_idx
    cand_sc = np.full((3, n_dec, s), -np.inf)
    for t in range(1, t_len):
        k = active[t]
        run = delta[:k]
        sc, pv = cand_sc[:, :k], cand_prev[:, :k]
        sc[ARC_LOOP] = run + graph.log_loop
        sc[ARC_CHAIN] = np.where(
            has_prev, run[:, prev_idx] + graph.log_leave, -np.inf)
        entry_mat = run[:, graph.final_states, None] + graph.log_leave \
            + graph.lm_entry  # (k, V from, V to)
        sc[ARC_ENTRY][:, graph.initial_states] = entry_mat.max(axis=1)
        pv[ARC_ENTRY][:, graph.initial_states] = \
            graph.final_states[entry_mat.argmax(axis=1)]
        best = sc.max(axis=0)
        reachable = np.isfinite(best)
        masked_prev = np.where(sc == best, pv, big)
        bp_arc[t, :k] = masked_prev.argmin(axis=0)
        bp_prev[t, :k] = np.where(reachable, masked_prev.min(axis=0), -1)
        delta[:k] = np.where(reachable, best + em[t, :k], -np.inf)

    rows = np.arange(n_dec)
    end_states = delta.argmax(axis=1)
    states = np.empty((t_len, n_dec), dtype=int)
    arcs = np.empty((t_len, n_dec), dtype=np.int8)
    states[-1] = end_states
    for t in range(t_len - 1, 0, -1):
        arcs[t] = bp_arc[t, rows, states[t]]
        states[t - 1] = bp_prev[t, rows, states[t]]
    arcs[0] = ARC_ENTRY

    results: list = [None] * n_dec
    for n, i in enumerate(order):
        path = states[:lengths[i], n].copy()
        path_arcs = arcs[:lengths[i], n].copy()
        starts = path[path_arcs == ARC_ENTRY]
        words = [graph.words[w] for w in graph.word_of_state[starts]]
        results[i] = DecodeResult(words=words, states=path, arcs=path_arcs,
                                  log_score=float(delta[n, end_states[n]]))
    return results


def forced_align(transcript: list[str], fused: np.ndarray,
                 graph: DecodingGraph) -> AlignmentTarget:
    """Viterbi over the linear state chain of the given transcript only.

    The path starts at the first chain node, ends at the last, and may only
    self-loop or advance, so it is monotone by construction.
    """
    for word in transcript:
        if word not in graph.words:
            raise ValueError(f"word {word!r} not in the lexicon")
    em = _emissions(fused, graph)
    chain = [s for word in transcript
             for s in graph.chains[graph.words.index(word)]]
    n = len(chain)
    t_len = em.shape[0]
    if t_len < n:
        raise ValueError(f"cannot align {n} chain states to {t_len} frames")
    chain_em = em[:, chain]  # (T, n)
    delta = np.full(n, -np.inf)
    delta[0] = chain_em[0, 0]
    bp = np.zeros((t_len, n), dtype=np.int8)  # 1 = advanced into this node
    for t in range(1, t_len):
        stay = delta + graph.log_loop
        adv = np.full(n, -np.inf)
        adv[1:] = delta[:-1] + graph.log_leave
        # prefer the lower-index predecessor (the advance arc) on exact ties
        advanced = adv >= stay
        bp[t] = advanced
        delta = np.where(advanced, adv, stay) + chain_em[t]
    node = n - 1
    nodes = np.empty(t_len, dtype=int)
    nodes[-1] = node
    for t in range(t_len - 1, 0, -1):
        if bp[t, node]:
            node -= 1
        nodes[t - 1] = node
    if nodes[0] != 0:
        raise RuntimeError("alignment failed to cover the chain")
    states = np.asarray(chain, dtype=int)[nodes]
    return AlignmentTarget(states, graph.num_states)


@dataclass
class WerReport:
    substitutions: int
    deletions: int
    insertions: int
    ref_length: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / max(self.ref_length, 1)


def wer(reference: list[str], hypothesis: list[str]) -> WerReport:
    """Levenshtein alignment with unit costs; backtrace prefers match or
    substitution, then deletion, then insertion."""
    n, m = len(reference), len(hypothesis)
    dist = np.zeros((n + 1, m + 1), dtype=int)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (reference[i - 1] != hypothesis[j - 1])
            dist[i, j] = min(sub, dist[i - 1, j] + 1, dist[i, j - 1] + 1)
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and \
                dist[i, j] == dist[i - 1, j - 1] + (reference[i - 1] != hypothesis[j - 1]):
            subs += reference[i - 1] != hypothesis[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerReport(substitutions=int(subs), deletions=dels, insertions=ins,
                     ref_length=n)


def pool_reports(reports: list[WerReport]) -> WerReport:
    """Corpus-level WER: error and reference counts summed before dividing."""
    return WerReport(
        substitutions=sum(r.substitutions for r in reports),
        deletions=sum(r.deletions for r in reports),
        insertions=sum(r.insertions for r in reports),
        ref_length=sum(r.ref_length for r in reports),
    )
