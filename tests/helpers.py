"""Helpers shared by several test files.

The exhaustive-search oracles of the decoder and acceptance tests
deliberately re-derive the best path by brute force so the dynamic
programming code is checked against an independent formulation. The fork
pool's tests (training and DFN inference) share the worker-count, BLAS
and deadline controls.
"""

import contextlib
import itertools
import multiprocessing
import signal

import numpy as np
import pytest

from avfusion import blas, forkpool

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the platform cannot fork; the pool's calls run in this process")
needs_openblas = pytest.mark.skipif(
    blas._openblas() is None, reason="numpy's bundled OpenBLAS not found")


def blas_threads() -> int:
    return blas._openblas()[0]()


def cpus(monkeypatch, n: int) -> None:
    """Pretend ``n`` usable CPUs: the fork pools get at most ``n``
    workers."""
    monkeypatch.setattr(forkpool, "usable_cpus", lambda: n)


@contextlib.contextmanager
def outer_blas_threads(n: int):
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
def deadline(seconds: int):
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


def enumerate_path_scores(graph, em):
    """Score every length-T state sequence against the decoding model.

    Returns (paths, scores) where paths has shape (S^T, T). A step that is
    simultaneously a self-loop and a word re-entry (1-state word) scores as
    the better of the two arcs, matching the decoder's max over arc types.
    """
    t_len, s = em.shape
    paths = np.indices((s,) * t_len).reshape(t_len, -1).T
    word_of = graph.word_of_state
    is_init = np.zeros(s, dtype=bool)
    is_init[graph.initial_states] = True
    is_final = np.zeros(s, dtype=bool)
    is_final[graph.final_states] = True

    first = paths[:, 0]
    scores = np.where(is_init[first], graph.lm_init[word_of[first]], -np.inf)
    scores = scores + em[0, first]
    for t in range(1, t_len):
        a = paths[:, t - 1]
        b = paths[:, t]
        arc = np.full((3, len(paths)), -np.inf)
        arc[0, a == b] = graph.log_loop
        arc[1, graph.chain_prev[b] == a] = graph.log_leave
        entry = is_final[a] & is_init[b]
        arc[2, entry] = (graph.log_leave
                         + graph.lm_entry[word_of[a[entry]],
                                          word_of[b[entry]]])
        scores = scores + arc.max(axis=0) + em[t, b]
    return paths, scores


def oracle_decode(graph, em):
    """Best score by exhaustive search plus the argmax path and tie count."""
    paths, scores = enumerate_path_scores(graph, em)
    best = scores.max()
    ties = int(np.sum(scores > best - 1e-9))
    return best, paths[int(np.argmax(scores))], ties


def path_score(graph, states, em):
    """Arc-max score of one concrete state sequence (-inf if invalid)."""
    paths = np.asarray(states, dtype=int)[None, :]
    t_len, s = em.shape
    word_of = graph.word_of_state
    is_init = np.zeros(s, dtype=bool)
    is_init[graph.initial_states] = True
    is_final = np.zeros(s, dtype=bool)
    is_final[graph.final_states] = True
    sc = (graph.lm_init[word_of[paths[0, 0]]] if is_init[paths[0, 0]]
          else -np.inf) + em[0, paths[0, 0]]
    for t in range(1, t_len):
        a, b = paths[0, t - 1], paths[0, t]
        options = []
        if a == b:
            options.append(graph.log_loop)
        if graph.chain_prev[b] == a:
            options.append(graph.log_leave)
        if is_final[a] and is_init[b]:
            options.append(graph.log_leave
                           + graph.lm_entry[word_of[a], word_of[b]])
        if not options:
            return -np.inf
        sc += max(options) + em[t, b]
    return float(sc)


def oracle_forced_align(graph, chain, em):
    """Best monotone node path over a linear chain by full enumeration.

    Returns (score, node_path, tie_count). Paths start at node 0, end at the
    last node, and advance by 0 or 1 per frame.
    """
    t_len = em.shape[0]
    n = len(chain)
    best = -np.inf
    best_nodes = None
    ties = 0
    for advance_at in itertools.combinations(range(1, t_len), n - 1):
        nodes = np.zeros(t_len, dtype=int)
        for frame in advance_at:
            nodes[frame:] += 1
        sc = em[0, chain[0]]
        for t in range(1, t_len):
            sc += graph.log_leave if nodes[t] != nodes[t - 1] \
                else graph.log_loop
            sc += em[t, chain[nodes[t]]]
        if sc > best + 1e-9:
            best, best_nodes, ties = sc, nodes, 1
        elif sc > best - 1e-9:
            ties += 1
    return best, best_nodes, ties
