"""Viterbi decoding over word state chains with a bigram language model,
forced alignment, and word-error-rate scoring.

The decoding graph keeps one left-to-right chain per word. Each state
self-loops with probability 1 - 1/mean_duration; leaving a word-final state
follows a bigram LM arc whose probabilities are renormalized after LM-scale
exponentiation, so every node's outgoing mass stays 1. Emission scores are
the fused log-pseudo-posteriors used directly (an optional uniform-prior
division is available but changes nothing for the uniform prior).

Ties are broken deterministically: among equal-score predecessors the lowest
state index wins, and on a full tie the arc preference is self-loop, then
chain advance, then word entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AlignmentTarget, FusedLogPosterior

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

    @property
    def num_words(self) -> int:
        return len(self.words)


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


def _emissions(fused: FusedLogPosterior | np.ndarray,
               graph: DecodingGraph) -> np.ndarray:
    lp = fused.frames if isinstance(fused, FusedLogPosterior) else \
        np.asarray(fused, dtype=np.float64)
    if lp.ndim != 2 or lp.shape[1] != graph.num_states:
        raise ValueError(f"emission matrix shape {lp.shape} does not match "
                         f"{graph.num_states} graph states")
    return lp


def viterbi_decode(fused: FusedLogPosterior | np.ndarray,
                   graph: DecodingGraph) -> DecodeResult:
    """Best word sequence and state path under emissions + transitions + LM."""
    return viterbi_decode_batch([fused], graph)[0]


def viterbi_decode_batch(fused_list: list,
                         graph: DecodingGraph) -> list[DecodeResult]:
    """``viterbi_decode`` of several equally long emission matrices at once.

    Each matrix runs its own recurrence along a leading axis, so the results
    equal separate decodes while the per-frame overhead is paid once.
    """
    em = np.stack([_emissions(f, graph) for f in fused_list])
    n_dec, t_len, s = em.shape
    has_prev = graph.chain_prev >= 0
    prev_idx = np.where(has_prev, graph.chain_prev, 0)

    delta = np.full((n_dec, s), -np.inf)
    delta[:, graph.initial_states] = graph.lm_init
    delta += em[:, 0]
    bp_prev = np.full((t_len, n_dec, s), -1, dtype=int)
    bp_arc = np.zeros((t_len, n_dec, s), dtype=np.int8)

    big = s + 1
    # candidate predecessors per arc type; only the entry row changes
    cand_prev = np.zeros((3, n_dec, s), dtype=int)
    cand_prev[ARC_LOOP] = np.arange(s)
    cand_prev[ARC_CHAIN] = prev_idx
    cand_sc = np.full((3, n_dec, s), -np.inf)
    for t in range(1, t_len):
        cand_sc[ARC_LOOP] = delta + graph.log_loop
        cand_sc[ARC_CHAIN] = np.where(
            has_prev, delta[:, prev_idx] + graph.log_leave, -np.inf)
        entry_mat = delta[:, graph.final_states, None] + graph.log_leave \
            + graph.lm_entry  # (N, V from, V to)
        cand_sc[ARC_ENTRY, :, graph.initial_states] = \
            entry_mat.max(axis=1).T
        cand_prev[ARC_ENTRY, :, graph.initial_states] = \
            graph.final_states[entry_mat.argmax(axis=1)].T
        best = cand_sc.max(axis=0)
        reachable = np.isfinite(best)
        masked_prev = np.where(cand_sc == best, cand_prev, big)
        bp_arc[t] = masked_prev.argmin(axis=0)
        bp_prev[t] = np.where(reachable, masked_prev.min(axis=0), -1)
        delta = np.where(reachable, best + em[:, t], -np.inf)

    results = []
    for n in range(n_dec):
        end_state = int(np.argmax(delta[n]))
        states = np.empty(t_len, dtype=int)
        arcs = np.empty(t_len, dtype=np.int8)
        states[-1] = end_state
        for t in range(t_len - 1, 0, -1):
            arcs[t] = bp_arc[t, n, states[t]]
            states[t - 1] = bp_prev[t, n, states[t]]
        arcs[0] = ARC_ENTRY
        words = [graph.words[graph.word_of_state[states[0]]]]
        for t in range(1, t_len):
            if arcs[t] == ARC_ENTRY:
                words.append(graph.words[graph.word_of_state[states[t]]])
        results.append(DecodeResult(words=words, states=states, arcs=arcs,
                                    log_score=float(delta[n, end_state])))
    return results


def forced_align(transcript: list[str], fused: FusedLogPosterior | np.ndarray,
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
    def empty_reference(self) -> bool:
        return self.ref_length == 0

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
