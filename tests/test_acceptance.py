"""Acceptance gate: seven checks covering formulas, gradients, decoding,
oracle weighting, frame alignment, qualitative trends, and reproducibility.

Each test prints one PASS/FAIL line (outside pytest's capture) and enforces
its own runtime budget.
"""

import time

import numpy as np
import numpy.testing as npt
from scipy.stats import spearmanr

from avfusion.align import bresenham_map
from avfusion.config import load_config
from avfusion.core import AlignmentTarget, normalize_posteriors
from avfusion.decode import forced_align, graph_from_parts, viterbi_decode
from avfusion.experiment import run_sweep, write_sweep_csv
from avfusion.fusion import oracle_weights, renormalized_ce
from avfusion.model_reliability import (
    dispersion,
    dispersion_ratio,
    entropy,
    entropy_ratio,
    kl_divergence,
    posterior_difference,
    temporal_divergence,
)
from avfusion.nn.gradcheck import check_gradients
from avfusion.nn.layers import (
    BLSTM,
    LSTM,
    Dense,
    Dropout,
    LayerNorm,
    LogSoftmax,
    Network,
    ReLU,
)
from helpers import enumerate_path_scores, oracle_forced_align, path_score


def _verdict(capsys, name, budget, started, failed=None):
    elapsed = time.monotonic() - started
    with capsys.disabled():
        if failed is not None:
            print(f"[FAIL] {name}: {failed} ({elapsed:.1f}s)", flush=True)
        elif elapsed >= budget:
            print(f"[FAIL] {name}: runtime {elapsed:.1f}s exceeds "
                  f"{budget:.0f}s budget", flush=True)
        else:
            print(f"[PASS] {name} ({elapsed:.1f}s / budget {budget:.0f}s)",
                  flush=True)
    if failed is None:
        assert elapsed < budget, \
            f"{name}: runtime {elapsed:.1f}s exceeds {budget:.0f}s budget"


def _run(capsys, name, budget, body):
    started = time.monotonic()
    try:
        body()
    except BaseException as exc:
        _verdict(capsys, name, budget, started, failed=repr(exc))
        raise
    _verdict(capsys, name, budget, started)


def test_1_formula_unit_suite(capsys):
    def body():
        tol = 1e-9
        assert abs(entropy(np.array([[0.7, 0.2, 0.1]]))[0]
                   - 0.8018185525433372) < tol
        assert abs(dispersion(np.array([0.5, 0.3, 0.2]), k=2)
                   - 0.5108256237659907) < tol
        assert abs(dispersion(np.array([0.5, 0.3, 0.2]), k=3)
                   - 0.6108604879161034) < tol
        assert abs(posterior_difference(np.array([0.5, 0.3, 0.2]), k=3)
                   - 0.7135581778200729) < tol
        assert abs(kl_divergence(np.array([0.5, 0.5]),
                                 np.array([0.25, 0.75]))
                   - 0.14384103622589042) < tol
        npt.assert_allclose(entropy_ratio(np.array([1.0, 2.0, 3.0])),
                            np.array([1.0, 2.0, 10000.0]) / 10003.0,
                            atol=tol)
        npt.assert_allclose(dispersion_ratio(np.array([1.0, 2.0, 3.0])),
                            np.array([1e-4, 2.0, 3.0]) / 5.0001, atol=tol)
        npt.assert_allclose(dispersion_ratio(np.array([5.0, 0.0, 0.0])),
                            np.array([5.0, 1e-4, 1e-4]) / 5.0002, atol=tol)

        rng = np.random.default_rng(99)
        s = 8
        rows = normalize_posteriors(
            rng.exponential(1.0, size=(10_000, s)) + 1e-6)
        h = entropy(rows)
        assert np.all(h >= 0) and np.all(h <= np.log(s) + 1e-12)
        d = dispersion(rows, k=s)
        assert np.all(d >= 0) and np.all(np.isfinite(d))
        pd = posterior_difference(rows, k=s)
        assert np.all(pd >= 0) and np.all(np.isfinite(pd))
        q = normalize_posteriors(
            rng.exponential(1.0, size=(10_000, s)) + 1e-6)
        assert np.all(kl_divergence(rows, q) >= -1e-15)
        assert np.all(temporal_divergence(rows) >= -1e-15)
        ents = rng.uniform(0, 4, size=(10_000, 3))
        for om in (entropy_ratio(ents), dispersion_ratio(ents)):
            assert np.all(om >= 0)
            npt.assert_allclose(om.sum(axis=1), 1.0, rtol=1e-9)

    _run(capsys, "formula unit suite", 10.0, body)


def test_2_gradient_verification(capsys):
    def body():
        rng = np.random.default_rng(7)
        x34 = rng.standard_normal((2, 5, 4))
        singles = [
            (Dense(4, 3, rng), x34, False),
            (ReLU(), x34 + 0.2, False),
            (LayerNorm(4), x34, False),
            (Dropout(0.3, np.random.default_rng(1)), x34, True),
            (LogSoftmax(), x34, False),
            (LSTM(4, 3, rng), x34, False),
            (BLSTM(4, 3, rng), x34, False),
        ]
        stacks = [
            (Network([Dense(5, 4, rng), LayerNorm(4), LSTM(4, 3, rng),
                      LogSoftmax()]),
             rng.standard_normal((2, 4, 5)), False),
            (Network([Dense(5, 4, rng), ReLU(), BLSTM(4, 2, rng),
                      LogSoftmax()]),
             rng.standard_normal((2, 4, 5)) + 0.1, False),
            (Network([Dense(4, 4, rng), LayerNorm(4),
                      Dropout(0.2, np.random.default_rng(2)),
                      Dense(4, 3, rng)]),
             rng.standard_normal((2, 3, 4)), True),
        ]
        worst = 0.0
        for model, x, train in singles + stacks:
            errors = check_gradients(model, x, train=train)
            worst = max(worst, max(errors.values()))
        assert worst < 1e-4, f"max relative gradient error {worst:.2e}"

    _run(capsys, "gradient verification", 60.0, body)


def test_3_decoder_oracle_equivalence(capsys):
    layouts = [((0,),), ((0,), (1,)), ((0, 1),), ((0,), (1, 2)),
               ((0, 1), (2, 3)), ((0, 1, 2, 3),), ((0,), (1,), (2,), (3,)),
               ((0, 1, 2), (3,))]

    def toy(chains, seed, mean_duration):
        rng = np.random.default_rng(seed)
        v = len(chains)
        return graph_from_parts(
            [f"w{i}" for i in range(v)], [list(c) for c in chains],
            rng.dirichlet(np.ones(v) * 2),
            rng.dirichlet(np.ones(v) * 2, size=v), mean_duration, 1.0)

    def body():
        rng = np.random.default_rng(123)
        decoded = aligned = 0
        for trial in range(1000):
            chains = layouts[trial % len(layouts)]
            graph = toy(chains, trial, 2.0 + trial % 4)
            t_len = 1 + trial % 6
            em = np.log(rng.dirichlet(np.ones(graph.num_states),
                                      size=t_len))
            result = viterbi_decode(em, graph)
            _, scores = enumerate_path_scores(graph, em)
            best = scores.max()
            assert abs(result.log_score - best) < 1e-9
            assert abs(path_score(graph, result.states, em) - best) < 1e-9
            decoded += 1
            chain = list(graph.chains[0])
            if t_len >= len(chain):
                target = forced_align([graph.words[0]], em, graph)
                opt, nodes, ties = oracle_forced_align(graph, chain, em)
                got = em[np.arange(t_len), target.states].sum()
                stays = int(np.sum(target.states[1:] == target.states[:-1]))
                got += stays * graph.log_loop \
                    + (t_len - 1 - stays) * graph.log_leave
                assert abs(got - opt) < 1e-9
                if ties == 1:
                    npt.assert_array_equal(target.states,
                                           np.asarray(chain)[nodes])
                aligned += 1
        assert decoded >= 1000
        assert aligned >= 500

    _run(capsys, "decoder oracle equivalence", 60.0, body)


def _simplex_grid(m, step):
    ticks = int(round(1.0 / step))
    if m == 2:
        w = np.arange(ticks + 1) / ticks
        return np.stack([w, 1.0 - w], axis=1)
    pts = []
    for i in range(ticks + 1):
        for j in range(ticks + 1 - i):
            pts.append((i / ticks, j / ticks, (ticks - i - j) / ticks))
    return np.array(pts)


def test_4_oracle_weighting_optimality(capsys):
    def body():
        grids = {2: _simplex_grid(2, 1e-2), 3: _simplex_grid(3, 1e-2)}
        for trial in range(200):
            m = 2 + trial % 2
            t_len = 2 + trial % 3
            s = 2 + trial % 3
            rng = np.random.default_rng(trial)
            stacked = np.log(rng.dirichlet(np.ones(s), size=(m, t_len)))
            states = rng.integers(0, s, t_len)
            align = AlignmentTarget(states, s)
            posts = list(stacked)
            grid = grids[m]

            # literal objective: linear in the weights, vertex optimum
            picked = stacked[:, np.arange(t_len), states].T
            lin_grid = -(grid @ picked.mean(axis=0))
            lin_oracle = -picked.max(axis=1).mean()
            assert lin_oracle <= lin_grid.min() + 1e-6

            # renormalized objective vs the same grid
            fused = np.einsum("gm,mts->gts", grid, stacked)
            mx = fused.max(axis=2, keepdims=True)
            logz = np.log(np.exp(fused - mx).sum(axis=2)) + mx[:, :, 0]
            ren_grid = -(fused[:, np.arange(t_len), states]
                         - logz).mean(axis=1)
            lam = oracle_weights(posts, align, mode="renormalized")
            ren_oracle = renormalized_ce(posts, lam.weights, align)
            assert ren_oracle <= ren_grid.min() + 1e-6

    _run(capsys, "oracle weighting optimality", 120.0, body)


def test_5_frame_map_properties(capsys):
    def body():
        for total in range(1, 201):
            for source in range(1, total + 1):
                m = bresenham_map(total, source)
                assert m.shape == (total,)
                assert m[0] == 0
                assert m[-1] == source - 1
                if total > 1:
                    d = np.diff(m)
                    assert d.min() >= 0 and d.max() <= 1
                counts = np.bincount(m, minlength=source)
                assert counts.min() >= total // source
                assert counts.max() <= -(-total // source)

    _run(capsys, "frame map properties", 5.0, body)


def test_6_trend_reproduction(capsys):
    def body():
        cfg = load_config("configs/trend.json")
        result = run_sweep(cfg)
        avg = {s: result.row_average(s) for s in result.strategies}

        # (a) audio-only WER degrades monotonically as SNR drops
        snr_rank = [float(lab) for lab in result.labels if lab != "clean"]
        snr_rank.append(max(snr_rank) + 3.0)  # clean sits above the grid
        ao_means = [result.mean_wer("ao", lab) for lab in result.labels]
        rho = spearmanr(snr_rank, ao_means).statistic
        assert rho <= -0.9, f"audio-only WER vs SNR rho={rho:.3f}"

        # (b) recurrent fusion beats audio-only clearly
        red = (avg["ao"] - avg["dfn-blstm"]) / avg["ao"]
        assert avg["dfn-blstm"] < avg["ao"], \
            f"dfn-blstm {avg['dfn-blstm']:.4f} !< ao {avg['ao']:.4f}"
        assert red >= 0.15, f"relative reduction {red:.3f} < 0.15"

        # (c) oracle weighting bounds every single stream and equal-static
        floor = min(avg["ao"], avg["va"], avg["vs"])
        assert avg["oracle"] <= floor, \
            f"oracle {avg['oracle']:.4f} > best stream {floor:.4f}"
        assert avg["oracle"] <= avg["static"], \
            f"oracle {avg['oracle']:.4f} > static {avg['static']:.4f}"

        # (d) bidirectional recurrence converges at least as well
        blstm_ce = float(np.median(result.val_ce["dfn-blstm"]))
        lstm_ce = float(np.median(result.val_ce["dfn-lstm"]))
        assert blstm_ce <= lstm_ce, \
            f"median val CE blstm {blstm_ce:.4f} > lstm {lstm_ce:.4f}"

        # (e) early feature fusion does not lose to audio-only
        assert avg["early"] <= avg["ao"], \
            f"early {avg['early']:.4f} > ao {avg['ao']:.4f}"

        with capsys.disabled():
            print("  trend detail: " + "  ".join(
                f"{s}={avg[s]:.4f}" for s in result.strategies), flush=True)
            print(f"  trend detail: rho={rho:.4f} red={red:.3f} "
                  f"valCE lstm={lstm_ce:.4f} blstm={blstm_ce:.4f}",
                  flush=True)

    _run(capsys, "trend reproduction", 600.0, body)


def test_7_reproducibility(capsys, tmp_path):
    def body():
        cfg = load_config("configs/smoke.json")
        outputs = []
        for name in ("a", "b"):
            result = run_sweep(load_config("configs/smoke.json"))
            path = tmp_path / f"sweep_{name}.csv"
            write_sweep_csv(path, result)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], "sweep CSVs differ between runs"
        assert cfg["seeds"], "bundled config must list seeds"

    _run(capsys, "reproducibility", 120.0, body)
