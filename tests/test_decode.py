"""Tests for graph construction, Viterbi decoding, alignment, and WER."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from avfusion.decode import (
    ARC_ENTRY,
    build_decoding_graph,
    forced_align,
    graph_from_parts,
    pool_reports,
    viterbi_decode,
    viterbi_decode_batch,
    wer,
)
from avfusion.corpus import WorldConfig, build_world
from helpers import oracle_decode, oracle_forced_align, path_score


def toy_graph(lm_scale=1.0, chains=((0,), (1, 2)), mean_duration=3.0,
              seed=0):
    rng = np.random.default_rng(seed)
    v = len(chains)
    init = rng.dirichlet(np.ones(v) * 2)
    bigram = rng.dirichlet(np.ones(v) * 2, size=v)
    words = [f"w{i}" for i in range(v)]
    return graph_from_parts(words, [list(c) for c in chains], init, bigram,
                            mean_duration, lm_scale)


class TestGraph:
    def test_two_word_hand_construction(self):
        g = toy_graph()
        assert g.num_states == 3
        npt.assert_array_equal(g.initial_states, [0, 1])
        npt.assert_array_equal(g.final_states, [0, 2])
        npt.assert_array_equal(g.chain_prev, [-1, -1, 1])
        npt.assert_array_equal(g.word_of_state, [0, 1, 1])

    def test_out_probabilities_normalize(self):
        for i, scale in enumerate((1.0, 0.5, 2.0)):
            g = toy_graph(lm_scale=scale, seed=i)
            npt.assert_allclose(np.exp(g.log_loop) + np.exp(g.log_leave),
                                1.0, atol=1e-12)
            npt.assert_allclose(np.exp(g.lm_entry).sum(axis=1), 1.0,
                                atol=1e-12)
            npt.assert_allclose(np.exp(g.lm_init).sum(), 1.0, atol=1e-12)

    def test_single_word_graph_loops_to_start(self):
        g = toy_graph(chains=((0, 1),))
        npt.assert_array_equal(g.initial_states, [0])
        npt.assert_array_equal(g.final_states, [1])
        npt.assert_allclose(np.exp(g.lm_entry), [[1.0]], atol=1e-12)

    def test_world_graph_matches_lexicon(self):
        world = build_world(WorldConfig(vocab_size=3), 0)
        g = build_decoding_graph(world, 1.0)
        assert g.num_states == world.config.num_states
        assert g.words == world.vocabulary
        loop = 1.0 - 1.0 / world.config.mean_duration_frames
        npt.assert_allclose(np.exp(g.log_loop), loop, atol=1e-12)

    def test_duration_must_allow_loop(self):
        with pytest.raises(ValueError, match="mean duration"):
            toy_graph(mean_duration=1.0)

    def test_chain_coverage_enforced(self):
        with pytest.raises(ValueError, match="exactly once"):
            toy_graph(chains=((0,), (2, 3)))


class TestViterbi:
    def test_single_frame_picks_one_hot_word(self):
        g = toy_graph()
        em = np.full((1, 3), -50.0)
        em[0, 1] = 0.0  # initial state of the second word
        result = viterbi_decode(em, g)
        assert result.words == ["w1"]
        npt.assert_array_equal(result.states, [1])

    def test_matches_brute_force_random_instances(self):
        rng = np.random.default_rng(1)
        layouts = [((0,), (1,)), ((0,), (1, 2)), ((0, 1), (2, 3)),
                   ((0, 1, 2), (3,)), ((0,), (1,), (2,), (3,))]
        checked = 0
        for trial in range(60):
            chains = layouts[trial % len(layouts)]
            g = toy_graph(chains=chains, seed=trial,
                          mean_duration=2.0 + (trial % 3))
            t_len = 1 + trial % 6
            em = np.log(rng.dirichlet(np.ones(g.num_states), size=t_len))
            result = viterbi_decode(em, g)
            best, best_path, ties = oracle_decode(g, em)
            npt.assert_allclose(result.log_score, best, atol=1e-9)
            npt.assert_allclose(path_score(g, result.states, em),
                                result.log_score, atol=1e-9)
            if ties == 1:
                npt.assert_array_equal(result.states, best_path)
            checked += 1
        assert checked == 60

    def test_uniform_emissions_match_brute_force(self):
        for seed in range(5):
            g = toy_graph(chains=((0,), (1, 2)), seed=seed)
            em = np.zeros((4, 3))
            result = viterbi_decode(em, g)
            best, _, _ = oracle_decode(g, em)
            npt.assert_allclose(result.log_score, best, atol=1e-9)

    def test_word_boundaries_follow_entry_arcs(self):
        g = toy_graph(seed=3)
        rng = np.random.default_rng(4)
        em = np.log(rng.dirichlet(np.ones(3), size=8))
        result = viterbi_decode(em, g)
        n_entries = int(np.sum(result.arcs == ARC_ENTRY))
        assert len(result.words) == n_entries
        assert all(w in g.words for w in result.words)

    def test_batch_equals_separate_decodes(self):
        rng = np.random.default_rng(7)
        g = toy_graph(chains=((0,), (1, 2), (3, 4, 5)), seed=7)
        ems = [np.log(rng.dirichlet(np.ones(6), size=9)) for _ in range(4)]
        ems.append(np.zeros((9, 6)))  # all ties
        for em, got in zip(ems, viterbi_decode_batch(ems, g)):
            alone = viterbi_decode(em, g)
            assert got.words == alone.words
            npt.assert_array_equal(got.states, alone.states)
            npt.assert_array_equal(got.arcs, alone.arcs)
            assert got.log_score == alone.log_score

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 120), min_size=1, max_size=12),
           tie_length=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1))
    def test_padded_batch_equals_separate_decodes(self, lengths, tie_length,
                                                  seed):
        rng = np.random.default_rng(seed)
        g = toy_graph(chains=((0,), (1, 2), (3, 4, 5)), seed=seed % 97,
                      mean_duration=2.0 + seed % 3)
        ems = [np.log(rng.dirichlet(np.ones(6), size=t)) for t in lengths]
        ems.insert(int(rng.integers(len(ems) + 1)),
                   np.zeros((tie_length, 6)))  # all ties
        for em, got in zip(ems, viterbi_decode_batch(ems, g)):
            alone = viterbi_decode(em, g)
            assert got.words == alone.words
            npt.assert_array_equal(got.states, alone.states)
            npt.assert_array_equal(got.arcs, alone.arcs)
            assert got.states.shape == got.arcs.shape == (len(em),)
            assert got.log_score == alone.log_score

    def test_empty_emissions_rejected(self):
        g = toy_graph()
        with pytest.raises(ValueError, match="no frames"):
            viterbi_decode_batch([np.zeros((3, 3)), np.zeros((0, 3))], g)

    def test_dimension_mismatch(self):
        g = toy_graph()
        with pytest.raises(ValueError, match="graph states"):
            viterbi_decode(np.zeros((4, 5)), g)

    def test_accepts_fused_log_posterior(self):
        from avfusion.core import FusedLogPosterior

        g = toy_graph(seed=5)
        rng = np.random.default_rng(6)
        fused = FusedLogPosterior(
            np.log(rng.dirichlet(np.ones(3), size=5)))
        result = viterbi_decode(fused, g)
        assert np.isfinite(result.log_score)


class TestForcedAlign:
    def test_one_state_word_fills_all_frames(self):
        g = toy_graph(chains=((0,), (1, 2)))
        em = np.log(np.random.default_rng(7).dirichlet(np.ones(3), size=6))
        target = forced_align(["w0"], em, g)
        npt.assert_array_equal(target.states, np.zeros(6, dtype=int))

    def test_monotone_and_covers_chain(self):
        g = toy_graph(chains=((0, 1), (2, 3)), seed=8)
        rng = np.random.default_rng(9)
        for trial in range(20):
            t_len = 4 + trial % 5
            em = np.log(rng.dirichlet(np.ones(4), size=t_len))
            target = forced_align(["w1", "w0"], em, g)
            chain = [2, 3, 0, 1]
            nodes = [chain.index(s) for s in target.states]
            assert nodes[0] == 0
            assert nodes[-1] == len(chain) - 1
            assert all(b - a in (0, 1) for a, b in zip(nodes, nodes[1:]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            g = toy_graph(chains=((0, 1), (2,)), seed=trial,
                          mean_duration=2.0 + trial % 3)
            t_len = 3 + trial % 5
            em = np.log(rng.dirichlet(np.ones(3), size=t_len))
            transcript = ["w0"] if trial % 2 else ["w0", "w1"]
            chain = [s for w in transcript
                     for s in g.chains[g.words.index(w)]]
            target = forced_align(transcript, em, g)
            best, best_nodes, ties = oracle_forced_align(g, chain, em)
            got = em[np.arange(t_len), target.states].sum()
            stays = sum(target.states[t] == target.states[t - 1]
                        for t in range(1, t_len))
            got += stays * g.log_loop + (t_len - 1 - stays) * g.log_leave
            npt.assert_allclose(got, best, atol=1e-9)
            if ties == 1:
                npt.assert_array_equal(target.states,
                                       np.asarray(chain)[best_nodes])

    def test_oov_word_rejected(self):
        g = toy_graph()
        with pytest.raises(ValueError, match="lexicon"):
            forced_align(["nope"], np.zeros((4, 3)), g)

    def test_too_few_frames_rejected(self):
        g = toy_graph(chains=((0, 1, 2),))
        with pytest.raises(ValueError, match="cannot align"):
            forced_align(["w0", "w0"], np.zeros((4, 3)), g)


def _edit_distance(a, b):
    """Plain recursive Levenshtein used as an independent check."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
                   d(i - 1, j) + 1, d(i, j - 1) + 1)

    return d(len(a), len(b))


class TestWer:
    def test_identical_sequences(self):
        report = wer(["a", "b", "c"], ["a", "b", "c"])
        assert report.errors == 0
        assert report.wer == 0.0

    def test_single_substitution(self):
        report = wer(["a", "b", "c"], ["a", "x", "c"])
        assert (report.substitutions, report.deletions,
                report.insertions) == (1, 0, 0)
        npt.assert_allclose(report.wer, 1.0 / 3.0, atol=1e-12)

    def test_pure_deletions(self):
        report = wer(["a", "b"], [])
        assert report.deletions == 2
        assert report.wer == 1.0

    def test_empty_reference_flagged(self):
        report = wer([], ["x"])
        assert report.insertions == 1
        assert report.wer == 1.0  # guarded denominator

    def test_renaming_invariance(self):
        r1 = wer(["a", "b", "a"], ["b", "b", "a"])
        r2 = wer(["x", "y", "x"], ["y", "y", "x"])
        assert (r1.substitutions, r1.deletions, r1.insertions) == \
            (r2.substitutions, r2.deletions, r2.insertions)

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(11)
        vocab = ["a", "b", "c", "d"]
        for _ in range(50):
            ref = tuple(rng.choice(vocab, size=rng.integers(1, 7)))
            hyp = tuple(rng.choice(vocab, size=rng.integers(0, 7)))
            assert wer(list(ref), list(hyp)).errors == \
                _edit_distance(ref, hyp)

    def test_pool_reports_sums_counts(self):
        a = wer(["a", "b"], ["a", "x"])
        b = wer(["c"], [])
        pooled = pool_reports([a, b])
        assert pooled.substitutions == 1
        assert pooled.deletions == 1
        assert pooled.ref_length == 3
        npt.assert_allclose(pooled.wer, 2.0 / 3.0, atol=1e-12)
