"""Tests for the stream integration strategies and their training loops."""

import functools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from avfusion.core import AlignmentTarget, normalize_posteriors
from avfusion.corpus import WorldConfig, build_world, sample_utterance
from avfusion.decode import build_decoding_graph
from avfusion.experiment import add_oracle_targets, build_training_items
from avfusion import fusion
from avfusion.fusion import (
    DfnModel,
    WeightEstimator,
    dfn_fuse,
    dfn_input,
    dfn_input_dim,
    dfn_specs,
    dynamic_fuse,
    estimator_specs,
    linear_oracle_ce,
    oracle_weights,
    oracle_weights_batch,
    renormalized_ce,
    static_fuse,
    train_dfn,
    train_weight_estimator,
)
from avfusion import nn


def random_log_posts(rng, n_streams, t_len, s):
    return [np.log(rng.dirichlet(np.ones(s), size=t_len))
            for _ in range(n_streams)]


class TestStaticFuse:
    def test_unit_weight_reproduces_stream(self):
        rng = np.random.default_rng(1)
        posts = random_log_posts(rng, 3, 5, 4)
        fused = static_fuse(posts, np.array([1.0, 0.0, 0.0]))
        npt.assert_array_equal(fused, posts[0])

    def test_equal_weights_identical_streams(self):
        rng = np.random.default_rng(2)
        base = np.log(rng.dirichlet(np.ones(3), size=4))
        fused = static_fuse([base, base.copy(), base.copy()],
                            np.full(3, 1.0 / 3.0))
        npt.assert_allclose(fused, base, atol=1e-12)

    def test_two_stream_hand_example(self):
        a = np.log(np.array([[0.8, 0.2]]))
        b = np.log(np.array([[0.2, 0.8]]))
        fused = static_fuse([a, b], np.array([0.5, 0.5]))
        npt.assert_allclose(fused, np.log([[0.4, 0.4]]), atol=1e-12)

    def test_weight_count_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="one weight per stream"):
            static_fuse(random_log_posts(rng, 2, 3, 2), np.ones(3))

    def test_stream_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            static_fuse([np.zeros((3, 2)), np.zeros((4, 2))], np.ones(2))


class TestDynamicFuse:
    def test_constant_weights_reduce_to_static(self):
        rng = np.random.default_rng(4)
        posts = random_log_posts(rng, 3, 6, 4)
        lam = np.array([0.5, 0.3, 0.2])
        dyn = dynamic_fuse(posts, np.tile(lam, (6, 1)))
        sta = static_fuse(posts, lam)
        npt.assert_allclose(dyn, sta, atol=1e-12)

    def test_alternating_unit_weights_copy_rows(self):
        rng = np.random.default_rng(5)
        posts = random_log_posts(rng, 2, 4, 3)
        lam = np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]])
        fused = dynamic_fuse(posts, lam)
        npt.assert_array_equal(fused[0], posts[0][0])
        npt.assert_array_equal(fused[1], posts[1][1])
        npt.assert_array_equal(fused[2], posts[0][2])
        npt.assert_array_equal(fused[3], posts[1][3])

    def test_argmax_invariant_to_weight_scale(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            posts = random_log_posts(rng, 3, 5, 4)
            lam = rng.dirichlet(np.ones(3), size=5)
            c = rng.uniform(0.1, 10.0)
            base = dynamic_fuse(posts, lam).argmax(axis=1)
            scaled = dynamic_fuse(posts, c * lam).argmax(axis=1)
            npt.assert_array_equal(base, scaled)

    def test_weight_shape_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="does not match"):
            dynamic_fuse(random_log_posts(rng, 2, 3, 2), np.ones((4, 2)))


def _simplex_grid(m, step):
    """All weight vectors on the M-simplex with the given resolution."""
    ticks = int(round(1.0 / step))
    if m == 2:
        w = np.arange(ticks + 1) / ticks
        return np.stack([w, 1.0 - w], axis=1)
    grids = []
    for i in range(ticks + 1):
        for j in range(ticks + 1 - i):
            grids.append((i / ticks, j / ticks, (ticks - i - j) / ticks))
    return np.array(grids)


class TestOracleWeights:
    def test_linear_mode_picks_dominant_stream(self):
        rng = np.random.default_rng(9)
        t_len, s = 6, 4
        strong = np.log(normalize_posteriors(
            np.eye(s)[rng.integers(0, s, t_len)] + 0.05))
        targets = strong.argmax(axis=1)
        weak = np.log(np.full((t_len, s), 1.0 / s))
        lam = oracle_weights([strong, weak, weak + 0.0],
                             AlignmentTarget(targets, s), mode="linear")
        npt.assert_allclose(lam.weights[:, 0], 1.0, atol=1e-12)
        npt.assert_allclose(lam.weights[:, 1:], 0.0, atol=1e-12)

    def test_linear_mode_splits_ties(self):
        base = np.log(np.array([[0.5, 0.5]]))
        lam = oracle_weights([base, base.copy(), np.log([[0.2, 0.8]])],
                             AlignmentTarget(np.array([0]), 2), mode="linear")
        npt.assert_allclose(lam.weights, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_renormalized_identical_streams_uniform(self):
        rng = np.random.default_rng(10)
        base = np.log(rng.dirichlet(np.ones(3), size=5))
        lam = oracle_weights([base, base.copy(), base.copy()],
                             AlignmentTarget(rng.integers(0, 3, 5), 3),
                             mode="renormalized")
        npt.assert_allclose(lam.weights, 1.0 / 3.0, atol=1e-6)

    def test_renormalized_two_stream_matches_grid(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            posts = random_log_posts(rng, 2, 1, 3)
            align = AlignmentTarget(np.array([trial % 3]), 3)
            lam = oracle_weights(posts, align, mode="renormalized")
            grid = _simplex_grid(2, 1e-3)
            ces = [renormalized_ce(posts, g, align) for g in grid]
            best = grid[int(np.argmin(ces))]
            # the objective can be flat near the optimum; compare by value
            got = renormalized_ce(posts, lam.weights[0], align)
            assert got <= min(ces) + 1e-6
            if abs(lam.weights[0, 0] - best[0]) > 1e-3:
                npt.assert_allclose(got, min(ces), atol=1e-6)

    def test_oracle_beats_fixed_weights_both_modes(self):
        rng = np.random.default_rng(12)
        grid = _simplex_grid(3, 0.05)
        for _ in range(5):
            posts = random_log_posts(rng, 3, 4, 3)
            align = AlignmentTarget(rng.integers(0, 3, 4), 3)
            lin = oracle_weights(posts, align, mode="linear")
            lin_ce = np.mean([
                linear_oracle_ce([p[t:t + 1] for p in posts],
                                 lin.weights[t],
                                 AlignmentTarget(align.states[t:t + 1], 3))
                for t in range(4)])
            ren = oracle_weights(posts, align, mode="renormalized")
            ren_ce = renormalized_ce(posts, ren.weights, align)
            for g in grid:
                assert lin_ce <= linear_oracle_ce(posts, g, align) + 1e-6
                assert ren_ce <= renormalized_ce(posts, g, align) + 1e-6

    def test_batch_equals_one_utterance_at_a_time(self):
        rng = np.random.default_rng(15)
        cells = [(random_log_posts(rng, 3, t_len, 4),
                  AlignmentTarget(rng.integers(0, 4, t_len), 4))
                 for t_len in (7, 1, 12, 5)]
        for mode in ("linear", "renormalized"):
            batch = oracle_weights_batch([p for p, _ in cells],
                                         [a for _, a in cells], mode=mode)
            for (posts, align), lam in zip(cells, batch):
                npt.assert_array_equal(
                    lam.weights, oracle_weights(posts, align, mode).weights)

    @staticmethod
    def _training_items(oracle_mode):
        world = build_world(WorldConfig(vocab_size=3, states_per_word=2,
                                        calib_frames=40,
                                        calib_video_frames=30), 0)
        graph = build_decoding_graph(world, 1.0)
        utts = [sample_utterance(world, n, seed=i)
                for i, n in enumerate((2, 3, 1, 2))]
        items = build_training_items(world, graph, utts, 0,
                                     [-6.0, 3.0, None], ["white", "babble"], 0)
        if oracle_mode is not None:
            add_oracle_targets(items, world.config.num_states, oracle_mode)
        return world, items

    def test_training_item_targets_equal_per_item_solves(self):
        # add_oracle_targets solves all items' oracle targets in one run
        world, items = self._training_items("renormalized")
        for item in items:
            alone = oracle_weights(
                list(item["log_posts"]),
                AlignmentTarget(item["targets"], world.config.num_states),
                mode="renormalized").weights
            assert item["oracle_weights"].shape == alone.shape
            assert item["oracle_weights"].tobytes() == alone.tobytes()

    def test_training_item_targets_follow_the_oracle_mode(self):
        world, items = self._training_items("linear")
        solved = oracle_weights_batch(
            [list(item["log_posts"]) for item in items],
            [AlignmentTarget(item["targets"], world.config.num_states)
             for item in items], mode="linear")
        for item, weights in zip(items, solved, strict=True):
            assert item["oracle_weights"].tobytes() == \
                weights.weights.tobytes()
        _, unsolved = self._training_items(None)
        assert all("oracle_weights" not in item for item in unsolved)

    def test_batch_rejects_mixed_state_counts(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="state count"):
            oracle_weights_batch(
                [random_log_posts(rng, 2, 3, 2), random_log_posts(rng, 2, 3, 3)],
                [AlignmentTarget(np.zeros(3, dtype=int), 2),
                 AlignmentTarget(np.zeros(3, dtype=int), 3)])

    def test_frame_count_mismatch(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="frames"):
            oracle_weights(random_log_posts(rng, 2, 3, 2),
                           AlignmentTarget(np.zeros(4, dtype=int), 2))

    def test_unknown_mode(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="mode"):
            oracle_weights(random_log_posts(rng, 2, 2, 2),
                           AlignmentTarget(np.zeros(2, dtype=int), 2),
                           mode="concave")


def _frame_objective(stacked, targets, lam):
    """Per-frame renormalized CE and its gradient g = -l* + E_q[lp]."""
    t_len = stacked.shape[1]
    lp = stacked.transpose(1, 0, 2)
    lstar = stacked[:, np.arange(t_len), targets].T
    fused = np.einsum("tm,tms->ts", lam, lp)
    mx = fused.max(axis=1, keepdims=True)
    q = np.exp(fused - mx)
    z = q.sum(axis=1, keepdims=True)
    f = -(lam * lstar).sum(axis=1) + np.log(z[:, 0]) + mx[:, 0]
    return f, -lstar + np.einsum("ts,tms->tm", q / z, lp)


def _eg_reference(stacked, targets, tol=1e-8, max_iter=20000):
    """The exponentiated-gradient solver the Newton solver replaced, kept
    here as the reference it must not lose to: per-frame multiplicative
    steps with backtracking until ||lam * (g - <lam, g>)|| < tol."""
    t_len, m = stacked.shape[1], stacked.shape[0]
    lam = np.full((t_len, m), 1.0 / m)
    f_cur, g = _frame_objective(stacked, targets, lam)
    eta = np.ones(t_len)
    for _ in range(max_iter):
        centered = g - (lam * g).sum(axis=1, keepdims=True)
        live = np.linalg.norm(lam * centered, axis=1) >= tol
        if not live.any():
            break
        scale = eta / np.maximum(np.abs(centered).max(axis=1), 1e-300)
        cand = np.maximum(lam * np.exp(-scale[:, None] * centered), 1e-300)
        cand /= cand.sum(axis=1, keepdims=True)
        f_new, g_new = _frame_objective(stacked, targets, cand)
        accept = live & (f_new <= f_cur + 1e-15 * (1.0 + np.abs(f_cur)))
        lam = np.where(accept[:, None], cand, lam)
        g = np.where(accept[:, None], g_new, g)
        f_cur = np.where(accept, np.minimum(f_new, f_cur), f_cur)
        eta = np.where(accept, np.minimum(eta * 1.3, 50.0),
                       np.where(live, eta * 0.5, eta))
    return lam


@st.composite
def _oracle_frames(draw):
    """(M, T, S) stream log-posteriors and (T,) targets: 2 or 3 streams,
    sometimes two of them identical, sometimes one whose target posterior
    sits at the floor, so that the optimum lies on an edge or a vertex."""
    m = draw(st.integers(2, 3))
    t_len = draw(st.integers(1, 8))
    s = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = draw(st.sampled_from([0.1, 0.5, 1.0, 5.0]))
    posts = normalize_posteriors(rng.dirichlet(np.full(s, alpha),
                                               size=(m, t_len)))
    targets = rng.integers(0, s, t_len)
    if draw(st.booleans()):
        posts[1] = posts[0]
    weak = draw(st.sampled_from([None] + list(range(m))))
    if weak is not None:
        posts[weak, np.arange(t_len), targets] = 0.0
        posts[weak] = normalize_posteriors(posts[weak])
    return np.log(posts), targets


class TestNewtonSolverProperties:
    @settings(max_examples=200, deadline=None)
    @given(_oracle_frames())
    def test_simplex_kkt_and_no_worse_than_eg(self, frames):
        stacked, targets = frames
        lam, _ = fusion._newton_minimize(stacked, targets)
        assert np.all(lam >= 0.0)
        npt.assert_allclose(lam.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        f, g = _frame_objective(stacked, targets, lam)
        centered = g - (lam * g).sum(axis=1, keepdims=True)
        assert np.all(np.linalg.norm(lam * centered, axis=1) <= 1e-7)
        assert np.all(np.where(lam == 0.0, centered, 0.0) >= -1e-7)
        f_eg, _ = _frame_objective(stacked, targets,
                                   _eg_reference(stacked, targets))
        assert np.all(f <= f_eg + 1e-10)
        # each frame solved alone gets the same bits
        for t in range(stacked.shape[1]):
            alone, _ = fusion._newton_minimize(stacked[:, t:t + 1],
                                               targets[t:t + 1])
            assert alone.tobytes() == lam[t:t + 1].tobytes()

    def test_seeded_batch_converges_in_30_iterations(self):
        # 6 batches of 340 frames: 2 or 3 streams, flat to sharp posteriors,
        # identical streams, and a stream that misses every target
        rng = np.random.default_rng(25)
        batches = []
        for m in (2, 3):
            for alpha in (0.1, 1.0, 10.0):
                posts = normalize_posteriors(
                    rng.dirichlet(np.full(12, alpha), size=(m, 340)))
                targets = rng.integers(0, 12, 340)
                if alpha == 1.0:
                    posts[1] = posts[0]
                if alpha == 10.0:
                    posts[0, np.arange(340), targets] = 0.0
                    posts[0] = normalize_posteriors(posts[0])
                batches.append((np.log(posts), targets))
        for stacked, targets in batches:
            _, iters = fusion._newton_minimize(stacked, targets)
            assert iters.max() <= 30

    def test_iteration_cap_warns(self, monkeypatch):
        monkeypatch.setattr(
            fusion, "_newton_minimize",
            functools.partial(fusion._newton_minimize, max_iter=1))
        rng = np.random.default_rng(26)
        cells = [(random_log_posts(rng, 3, t_len, 5),
                  AlignmentTarget(rng.integers(0, 5, t_len), 5))
                 for t_len in (4, 6)]
        with pytest.warns(RuntimeWarning,
                          match=r"iteration cap on \d+ of 10 frames"):
            oracle_weights_batch([p for p, _ in cells],
                                 [a for _, a in cells])


def _estimator_items(rng, n_items, t_len=12, rel_dim=5, s=4,
                     constant_lam=None):
    items = []
    for _ in range(n_items):
        rel = rng.standard_normal((t_len, rel_dim))
        targets = rng.integers(0, s, t_len)
        sharp = np.log(normalize_posteriors(
            np.eye(s)[targets] * 12.0 + 1.0))
        flat = np.log(rng.dirichlet(np.ones(s), size=t_len))
        logs = np.stack([sharp, flat, flat.copy()])
        lam = constant_lam if constant_lam is not None else \
            rng.dirichlet(np.ones(3))
        items.append({
            "reliability": rel,
            "oracle_weights": np.tile(lam, (t_len, 1)),
            "log_posts": logs,
            "targets": targets,
        })
    return items


class TestWeightEstimator:
    def test_mse_mode_learns_constant_oracle(self):
        rng = np.random.default_rng(15)
        lam = np.array([0.5, 0.3, 0.2])
        train_items = _estimator_items(rng, 12, constant_lam=lam)
        val_items = _estimator_items(rng, 3, constant_lam=lam)
        cfg = nn.TrainConfig(lr0=0.03, batch_size=4, check_interval=25,
                             patience=150, max_steps=600, seed=1)
        est, hist = train_weight_estimator(train_items, val_items, "mse",
                                           num_states=4, config=cfg)
        assert hist["best_val"] < 1e-3
        pred = est.predict(rng.standard_normal((6, 5)))
        npt.assert_allclose(pred.weights, np.tile(lam, (6, 1)), atol=0.05)

    def test_ce_mode_beats_equal_weights(self):
        rng = np.random.default_rng(16)
        train_items = _estimator_items(rng, 12)
        val_items = _estimator_items(rng, 3)
        cfg = nn.TrainConfig(lr0=0.03, batch_size=4, check_interval=25,
                             patience=150, max_steps=600, seed=2)
        est, hist = train_weight_estimator(train_items, val_items, "ce",
                                           num_states=4, config=cfg)
        equal = np.mean([
            linear_oracle_ce(list(it["log_posts"]), np.full(3, 1.0 / 3.0),
                             AlignmentTarget(it["targets"], 4))
            for it in val_items])
        assert hist["best_val"] < equal

    def test_outputs_on_simplex(self):
        rng = np.random.default_rng(17)
        net = nn.build_network(estimator_specs(5, 3, 8), rng=3)
        est = WeightEstimator(net, np.zeros(5), np.ones(5), "mse")
        lam = est.predict(rng.standard_normal((20, 5)))
        npt.assert_allclose(lam.weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(lam.weights >= 0.0)

    def test_mse_requires_oracle_targets(self):
        rng = np.random.default_rng(18)
        items = _estimator_items(rng, 3)
        for it in items:
            del it["oracle_weights"]
        with pytest.raises(ValueError, match="oracle weight targets"):
            train_weight_estimator(items, items, "mse", num_states=4,
                                   config=nn.TrainConfig(max_steps=10))

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            train_weight_estimator([], [], "huber", num_states=4,
                                   config=nn.TrainConfig())

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        net = nn.build_network(estimator_specs(5, 3, 8), rng=4)
        est = WeightEstimator(net, np.zeros(5), np.ones(5), "ce")
        est.save(str(tmp_path / "est"))
        back = WeightEstimator.load(str(tmp_path / "est"))
        x = rng.standard_normal((4, 5))
        npt.assert_allclose(back.predict(x).weights,
                            est.predict(x).weights, atol=1e-6)
        assert back.criterion == "ce"


def _dfn_items(rng, n_items, t_len=24, rel_dim=5, s=4):
    items = []
    for _ in range(n_items):
        targets = rng.integers(0, s, t_len)
        posts = []
        for sharp in (8.0, 2.0, 2.0):
            p = normalize_posteriors(
                np.eye(s)[targets] * sharp
                + rng.uniform(0.2, 1.0, size=(t_len, s)))
            posts.append(p)
        items.append({
            "posteriors": posts,
            "reliability": rng.standard_normal((t_len, rel_dim)),
            "targets": targets,
        })
    return items


class TestDfn:
    def test_full_scale_input_dim(self):
        assert dfn_input_dim(3856, 41) == 11609

    def test_toy_input_dim_and_layout(self):
        rng = np.random.default_rng(20)
        posts = [rng.dirichlet(np.ones(4), size=3) for _ in range(3)]
        rel = rng.standard_normal((3, 5))
        x = dfn_input(posts, rel)
        assert x.shape == (3, dfn_input_dim(4, 5))
        npt.assert_array_equal(x[:, :4], posts[0])
        npt.assert_array_equal(x[:, 12:], rel)

    def test_specs_shape_ratio_and_floor(self):
        specs = dfn_specs(4, 5, "blstm", scale=1.0)
        dense_outs = [sp["out"] for sp in specs if sp["kind"] == "dense"]
        assert dense_outs == [256, 128, 64, 4]
        rec = [sp for sp in specs if sp["kind"] == "blstm"]
        assert len(rec) == 3
        assert rec[1]["in"] == 2 * rec[0]["hidden"]
        tiny = dfn_specs(4, 5, "lstm", scale=0.001)
        assert all(sp["out"] >= 4 for sp in tiny if sp["kind"] == "dense")

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            dfn_specs(4, 5, "gru")

    def test_output_rows_are_log_distributions(self):
        rng = np.random.default_rng(21)
        net = nn.build_network(dfn_specs(4, 5, "lstm", scale=0.05), rng=5)
        model = DfnModel(net, "lstm", 4, 5, np.zeros(17), np.ones(17))
        posts = [rng.dirichlet(np.ones(4), size=6) for _ in range(3)]
        fused = dfn_fuse([posts], [rng.standard_normal((6, 5))], model)
        npt.assert_allclose(np.exp(fused).sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["lstm", "blstm"])
    def test_batched_rows_match_one_utterance_calls(self, variant):
        rng = np.random.default_rng(26)
        net = nn.build_network(dfn_specs(4, 5, variant, scale=0.05), rng=8)
        model = DfnModel(net, variant, 4, 5, rng.standard_normal(17),
                         rng.uniform(0.5, 2.0, 17))
        # shuffled lengths with a 1-frame utterance and one longer than a
        # batch, over enough frames to fill several batches
        lengths = rng.permutation(np.concatenate([
            [1, fusion.DFN_BATCH_FRAMES + 37], rng.integers(2, 150, 30)]))
        assert lengths.sum() > 3 * fusion.DFN_BATCH_FRAMES
        posts = [[rng.dirichlet(np.ones(4), size=t) for _ in range(3)]
                 for t in lengths]
        rels = [rng.standard_normal((t, 5)) for t in lengths]
        net.forward(rng.standard_normal((1, 3, 17)))  # leaves caches behind
        fused = dfn_fuse(posts, rels, model)
        assert all(layer._cache is None for layer in net.layers)
        assert fused.shape == (lengths.sum(), 4)
        alone = np.concatenate([dfn_fuse([p], [r], model)
                                for p, r in zip(posts, rels)])
        npt.assert_allclose(fused, alone, rtol=0, atol=1e-12)

    def test_zero_final_dense_gives_uniform(self):
        rng = np.random.default_rng(22)
        net = nn.build_network(dfn_specs(4, 5, "lstm", scale=0.05), rng=6)
        final = net.layers[-2]
        final.params["w"] = np.zeros_like(final.params["w"])
        final.params["b"] = np.zeros_like(final.params["b"])
        model = DfnModel(net, "lstm", 4, 5, np.zeros(17), np.ones(17))
        posts = [rng.dirichlet(np.ones(4), size=3) for _ in range(3)]
        fused = dfn_fuse([posts], [rng.standard_normal((3, 5))], model)
        npt.assert_allclose(fused, -np.log(4.0), atol=1e-12)

    def test_layout_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        net = nn.build_network(dfn_specs(4, 5, "lstm", scale=0.05), rng=7)
        model = DfnModel(net, "lstm", 4, 5, np.zeros(17), np.ones(17))
        posts = [rng.dirichlet(np.ones(4), size=3) for _ in range(3)]
        with pytest.raises(ValueError, match="input features"):
            dfn_fuse([posts], [rng.standard_normal((3, 9))], model)

    def test_training_beats_uniform_and_reproduces(self, tmp_path):
        rng = np.random.default_rng(24)
        train_items = _dfn_items(rng, 8)
        val_items = _dfn_items(rng, 2)
        cfg = nn.TrainConfig(lr0=0.01, batch_size=4, check_interval=20,
                             patience=100, max_steps=300, seed=3)
        model, hist = train_dfn(train_items, val_items, "lstm",
                                num_states=4, rel_dim=5, config=cfg,
                                scale=0.05, chunk_frames=12)
        assert hist["best_val"] < np.log(4.0)
        _, hist2 = train_dfn(train_items, val_items, "lstm", num_states=4,
                             rel_dim=5, config=cfg, scale=0.05,
                             chunk_frames=12)
        assert hist == hist2
        model.save(str(tmp_path / "dfn"))
        back = DfnModel.load(str(tmp_path / "dfn"))
        it = val_items[0]
        npt.assert_allclose(
            dfn_fuse([it["posteriors"]], [it["reliability"]], back),
            dfn_fuse([it["posteriors"]], [it["reliability"]], model),
            atol=1e-6)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train_dfn([], [], "lstm", num_states=4, rel_dim=5,
                      config=nn.TrainConfig())
