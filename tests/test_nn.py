"""Tests for the neural kit: layers, losses, ADAM, training, checkpoints."""

import numpy as np
import numpy.testing as npt
import pytest

from avfusion.nn.gradcheck import (
    check_gradients,
    max_relative_error,
    numerical_gradient,
)
from avfusion.nn.layers import (
    BLSTM,
    LSTM,
    Dense,
    Dropout,
    LayerNorm,
    LogSoftmax,
    Network,
    ReLU,
    _lstm_backward,
    _lstm_forward,
    build_network,
    load_checkpoint,
    save_checkpoint,
)
from avfusion.nn.losses import ce_loss, mse_loss
from avfusion.nn.optim import Adam, adam_step
from avfusion.nn.training import TrainConfig, evaluate, pad_batch, train

# The recurrence as it stood before its sigmoid gate columns were halved
# ahead of the loop, kept here as the reference the kernels must equal bit
# for bit.


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(x / 2)): stable on both tails, one transcendental;
    ``out`` may be ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _reference_lstm_forward(x, keep, wx, wh, b):
    """K independent LSTM recurrences run in lockstep.

    x is (K, B, T, D), keep a boolean (K, B, T) mask, and the weights carry
    the same leading K axis. Gate columns are laid out [input, forget,
    output, candidate]. Inside, the gates of frame t are the (K, 4, H, B)
    block ``gates[t]`` and the states are (K, H, B): batch-last blocks keep
    every per-step operation on contiguous memory. Returns the (K, B, T, H)
    states and a cache.
    """
    k_dir, bsz, t_len, d_in = x.shape
    hid = wh.shape[1]
    xt = x.transpose(0, 2, 1, 3).reshape(k_dir, t_len * bsz, d_in)
    proj = xt @ wx
    proj += b[:, None, :]
    # the projected inputs become the activated gates, in place
    gates = np.ascontiguousarray(
        proj.reshape(k_dir, t_len, bsz, 4, hid).transpose(1, 0, 3, 4, 2))
    keep_t = keep.transpose(2, 0, 1)[:, :, None, :]  # (T, K, 1, B)
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
    h = np.zeros((k_dir, hid, bsz))
    c = np.zeros((k_dir, hid, bsz))
    hs = np.empty((t_len, k_dir, hid, bsz))
    cs = np.empty_like(hs)
    tcs = np.empty_like(hs)
    for t in range(t_len):
        z = gates[t]
        z += (wh_t @ h).reshape(z.shape)
        _sigmoid(z[:, :3], out=z[:, :3])
        np.tanh(z[:, 3], out=z[:, 3])
        c_cand = z[:, 1] * c
        c_cand += z[:, 0] * z[:, 3]
        tc = np.tanh(c_cand, out=tcs[t])
        # padded frames hold the previous state
        np.copyto(c, c_cand, where=keep_t[t])
        np.copyto(h, z[:, 2] * tc, where=keep_t[t])
        cs[t] = c
        hs[t] = h
    return hs.transpose(1, 3, 0, 2), (xt, keep_t, hs, cs, tcs, gates)


def _reference_lstm_backward(dh_seq, cache, wx, wh):
    """Backward of ``_reference_lstm_forward``; dh_seq is (K, B, T, H). Returns dx
    (K, B, T, D) and the stacked dwx, dwh, db."""
    xt, keep_t, hs, cs, tcs, gates = cache
    t_len, k_dir, hid, bsz = hs.shape
    dh_seq = np.ascontiguousarray(dh_seq.transpose(2, 0, 3, 1))
    i, f, o, g = (gates[:, :, j] for j in range(4))
    # per-frame factors: the pre-activation gradient of each gate is its
    # factor times dc, except the output gate's, which is its factor times
    # dh; built in place, as large temporaries are costly to allocate
    factor = np.empty_like(gates)
    np.subtract(1.0, gates[:, :, :3], out=factor[:, :, :3])
    factor[:, :, :3] *= gates[:, :, :3]
    factor[:, :, 0] *= g
    factor[1:, :, 1] *= cs[:-1]
    factor[0, :, 1] = 0.0  # the state before the first frame is zero
    factor[:, :, 2] *= tcs
    np.multiply(g, g, out=factor[:, :, 3])
    np.subtract(1.0, factor[:, :, 3], out=factor[:, :, 3])
    factor[:, :, 3] *= i
    dc_from_h = np.multiply(tcs, tcs)
    np.subtract(1.0, dc_from_h, out=dc_from_h)
    dc_from_h *= o
    dpre_all = np.empty_like(gates)
    # a 0/1 float mask splits each state gradient exactly into the part a
    # valid frame consumes (x * m) and the part a padded frame passes back
    # unchanged (x - x * m)
    mask_t = keep_t.astype(np.float64)
    dh_next = np.zeros((k_dir, hid, bsz))
    dc_next = np.zeros((k_dir, hid, bsz))
    for t in range(t_len - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        dh_cand = dh * mask_t[t]
        dc_in = dc_next * mask_t[t]
        dc_cand = dc_in + dh_cand * dc_from_h[t]
        dc_next = (dc_next - dc_in) + dc_cand * f[t]
        dpre = np.multiply(factor[t], dc_cand[:, None], out=dpre_all[t])
        np.multiply(factor[t, :, 2], dh_cand, out=dpre[:, 2])
        dh_next = (dh - dh_cand) + wh @ dpre.reshape(k_dir, 4 * hid, bsz)
    flat_d = dpre_all.transpose(1, 0, 4, 2, 3).reshape(
        k_dir, t_len * bsz, 4 * hid)
    # frame t's gates see the state of frame t - 1 (zero before frame 0)
    h_prev = hs[:-1].transpose(1, 2, 0, 3).reshape(k_dir, hid, -1)
    dwx = xt.transpose(0, 2, 1) @ flat_d
    dwh = h_prev @ flat_d[:, bsz:]
    db = flat_d.sum(axis=1)
    dx = (flat_d @ wx.transpose(0, 2, 1)).reshape(k_dir, t_len, bsz, -1)
    return dx.transpose(0, 2, 1, 3), dwx, dwh, db


class TestForward:
    def test_zero_lstm_outputs_zero(self):
        rng = np.random.default_rng(0)
        layer = LSTM(3, 5, rng)
        for name in layer.params:
            layer.params[name] = np.zeros_like(layer.params[name])
        x = rng.standard_normal((2, 7, 3))
        npt.assert_array_equal(layer.forward(x), 0.0)

    def test_identity_dense(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 4, rng)
        layer.params["w"] = np.eye(4)
        layer.params["b"] = np.zeros(4)
        x = rng.standard_normal((3, 4))
        npt.assert_array_equal(layer.forward(x), x)

    def test_dense_dim_mismatch(self):
        layer = Dense(4, 2, np.random.default_rng(2))
        with pytest.raises(ValueError, match="features"):
            layer.forward(np.zeros((3, 5)))

    def test_log_softmax_rows_normalize(self):
        x = np.random.default_rng(3).standard_normal((2, 6, 5)) * 4
        out = LogSoftmax().forward(x)
        npt.assert_allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-12)

    def test_log_softmax_shift_invariant(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        shifted = x + rng.standard_normal((3, 1)) * 10
        npt.assert_allclose(LogSoftmax().forward(x),
                            LogSoftmax().forward(shifted), atol=1e-12)

    def test_blstm_concatenates_directions(self):
        rng = np.random.default_rng(5)
        layer = BLSTM(3, 4, rng)
        out = layer.forward(rng.standard_normal((2, 6, 3)))
        assert out.shape == (2, 6, 8)

    def test_dropout_inference_identity(self):
        layer = Dropout(0.5, np.random.default_rng(6))
        x = np.random.default_rng(7).standard_normal((4, 5))
        npt.assert_array_equal(layer.forward(x, train=False), x)

    def test_dropout_train_scales_kept_units(self):
        layer = Dropout(0.25, np.random.default_rng(8))
        x = np.ones((200, 50))
        out = layer.forward(x, train=True)
        kept = out[out != 0]
        npt.assert_allclose(kept, 1.0 / 0.75, atol=1e-12)
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_bad_rate(self):
        with pytest.raises(ValueError, match="dropout rate"):
            Dropout(1.0, np.random.default_rng(9))

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(10)
        out = LayerNorm(8).forward(rng.standard_normal((5, 8)) * 3 + 2)
        npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        npt.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_mask_freezes_padded_frames(self):
        rng = np.random.default_rng(11)
        layer = LSTM(3, 4, rng)
        x = rng.standard_normal((1, 6, 3))
        mask = np.array([[1.0, 1, 1, 1, 0, 0]])
        out = layer.forward(x, mask=mask)
        # the held state repeats once the mask goes to zero
        npt.assert_array_equal(out[0, 4], out[0, 3])
        npt.assert_array_equal(out[0, 5], out[0, 3])

    @pytest.mark.parametrize("masked", [False, True])
    def test_infer_equals_inference_forward_and_keeps_no_cache(self, masked):
        net = build_network([
            {"kind": "dense", "in": 3, "out": 6}, {"kind": "relu"},
            {"kind": "layer_norm", "dim": 6}, {"kind": "dropout", "p": 0.3},
            {"kind": "lstm", "in": 6, "hidden": 4},
            {"kind": "blstm", "in": 4, "hidden": 3},
            {"kind": "dense", "in": 6, "out": 5}, {"kind": "log_softmax"},
        ], rng=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 7, 3))
        mask = None
        if masked:
            mask = np.ones((3, 7))
            mask[1, 4:] = 0.0
            mask[2, 1:] = 0.0
        want = net.forward(x, mask=mask, train=False)
        assert any(layer._cache is not None for layer in net.layers)
        got = net.infer(x, mask=mask)
        npt.assert_array_equal(got, want)
        assert all(layer._cache is None for layer in net.layers)


class TestBackward:
    def test_dense_weight_gradient_is_outer_product(self):
        rng = np.random.default_rng(12)
        layer = Dense(3, 2, rng)
        x = rng.standard_normal((1, 3))
        layer.forward(x)
        dout = rng.standard_normal((1, 2))
        layer.backward(dout)
        npt.assert_allclose(layer.grads["w"], np.outer(x[0], dout[0]),
                            atol=1e-12)
        npt.assert_allclose(layer.grads["b"], dout[0], atol=1e-12)

    def test_relu_kills_negative_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        npt.assert_array_equal(grad, [[0.0, 5.0]])

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError, match="forward"):
            ReLU().backward(np.zeros((1, 2)))

    def test_numerical_gradient_on_quadratic(self):
        x = np.array([1.0, -2.0, 0.5])
        num = numerical_gradient(lambda v: float(np.sum(v ** 2)), x)
        npt.assert_allclose(num, 2 * x, atol=1e-7)

    def test_max_relative_error_scale(self):
        assert max_relative_error(np.array([1.0]), np.array([1.0])) == 0.0
        assert max_relative_error(np.array([1.0]), np.array([2.0])) == 0.5


class TestGradCheck:
    TOL = 1e-4

    def _passes(self, model, x, **kw):
        errors = check_gradients(model, x, **kw)
        worst = max(errors.values())
        assert worst < self.TOL, f"gradient errors {errors}"

    def test_dense(self):
        rng = np.random.default_rng(20)
        self._passes(Dense(4, 3, rng), rng.standard_normal((2, 5, 4)))

    def test_relu(self):
        rng = np.random.default_rng(21)
        self._passes(ReLU(), rng.standard_normal((2, 5, 4)) + 0.2)

    def test_layer_norm(self):
        rng = np.random.default_rng(23)
        self._passes(LayerNorm(4), rng.standard_normal((2, 5, 4)))

    def test_log_softmax(self):
        rng = np.random.default_rng(24)
        self._passes(LogSoftmax(), rng.standard_normal((2, 5, 4)))

    def test_dropout_training_mode(self):
        rng = np.random.default_rng(25)
        self._passes(Dropout(0.3, np.random.default_rng(1)),
                     rng.standard_normal((2, 5, 4)), train=True)

    def test_lstm(self):
        rng = np.random.default_rng(26)
        self._passes(LSTM(4, 3, rng), rng.standard_normal((2, 5, 4)))

    def test_blstm(self):
        rng = np.random.default_rng(27)
        self._passes(BLSTM(4, 3, rng), rng.standard_normal((2, 5, 4)))

    def test_lstm_with_mask(self):
        rng = np.random.default_rng(28)
        mask = np.array([[1.0, 1, 1, 0], [1, 1, 0, 0]])
        self._passes(LSTM(3, 2, rng), rng.standard_normal((2, 4, 3)),
                     mask=mask)

    def test_blstm_with_mask(self):
        rng = np.random.default_rng(35)
        mask = np.array([[1.0, 1, 1, 0], [1, 1, 0, 0]])
        self._passes(BLSTM(3, 2, rng), rng.standard_normal((2, 4, 3)),
                     mask=mask)

    def test_recurrent_stack(self):
        rng = np.random.default_rng(29)
        net = Network([Dense(5, 4, rng), LayerNorm(4), LSTM(4, 3, rng),
                       LogSoftmax()])
        self._passes(net, rng.standard_normal((2, 4, 5)))

    def test_bidirectional_stack(self):
        rng = np.random.default_rng(30)
        net = Network([Dense(5, 4, rng), ReLU(), BLSTM(4, 2, rng),
                       LogSoftmax()])
        self._passes(net, rng.standard_normal((2, 4, 5)) + 0.1)

    def test_norm_dropout_stack(self):
        rng = np.random.default_rng(31)
        net = build_network(
            [{"kind": "dense", "in": 4, "out": 4},
             {"kind": "layer_norm", "dim": 4},
             {"kind": "dropout", "p": 0.2},
             {"kind": "dense", "in": 4, "out": 3}], rng=2)
        self._passes(net, rng.standard_normal((2, 3, 4)), train=True)


class TestKernelReferences:
    """The fast kernels against their plain definitions."""

    def test_sigmoid_matches_softplus_form(self):
        x = np.concatenate([np.linspace(-60.0, 60.0, 20001),
                            [-800.0, 800.0, -1e-300, 0.0, 1e-300]])
        reference = np.exp(-np.logaddexp(0.0, -x))
        with np.errstate(all="raise"):
            got = _sigmoid(x)
        assert np.all(np.isfinite(got))
        npt.assert_allclose(got, reference, rtol=0.0, atol=1e-15)
        npt.assert_array_equal(got[[-5, -4]], [0.0, 1.0])

    def test_lstm_matches_textbook_recurrence(self):
        rng, x, mask = self._ragged_case(39)
        layer = LSTM(4, 5, rng)
        layer.params["b"] = rng.standard_normal(20)
        wx, wh, b = (layer.params[k] for k in ("wx", "wh", "b"))
        h = np.zeros((3, 5))
        c = np.zeros((3, 5))
        expected = np.empty((3, 7, 5))
        for t in range(7):
            pre = x[:, t] @ wx + h @ wh + b
            i, f, o = (np.exp(-np.logaddexp(0.0, -pre[:, k * 5:(k + 1) * 5]))
                       for k in range(3))
            c_new = f * c + i * np.tanh(pre[:, 15:])
            valid = mask[:, t][:, None] == 1
            c = np.where(valid, c_new, c)
            h = np.where(valid, o * np.tanh(c_new), h)
            expected[:, t] = h
        npt.assert_allclose(layer.forward(x, mask=mask), expected,
                            rtol=0.0, atol=1e-12)

    def _ragged_case(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 7, 4))
        mask = np.ones((3, 7))
        mask[1, 5:] = 0.0
        mask[2, 2:] = 0.0
        return rng, x, mask

    def test_blstm_equals_two_single_direction_runs(self):
        rng, x, mask = self._ragged_case(36)
        bi = BLSTM(4, 5, rng)
        fwd, bwd = LSTM(4, 5, rng), LSTM(4, 5, rng)
        for tag, single in (("fwd", fwd), ("bwd", bwd)):
            for name in ("wx", "wh", "b"):
                single.params[name] = bi.params[f"{name}_{tag}"]
        out = bi.forward(x, mask=mask)
        out_f = fwd.forward(x, mask=mask)
        out_b = bwd.forward(x[:, ::-1], mask=mask[:, ::-1])[:, ::-1]
        npt.assert_allclose(out, np.concatenate([out_f, out_b], axis=-1),
                            rtol=0.0, atol=1e-14)

        dout = rng.standard_normal(out.shape)
        dx = bi.backward(dout)
        dx_f = fwd.backward(dout[:, :, :5])
        dx_b = bwd.backward(dout[:, ::-1, 5:])[:, ::-1]
        npt.assert_allclose(dx, dx_f + dx_b, rtol=0.0, atol=1e-13)
        for tag, single in (("fwd", fwd), ("bwd", bwd)):
            for name in ("wx", "wh", "b"):
                npt.assert_allclose(bi.grads[f"{name}_{tag}"],
                                    single.grads[name], rtol=0.0,
                                    atol=1e-13)

    @pytest.mark.parametrize("k_dir", [1, 2])
    def test_lstm_kernels_bit_equal_to_reference(self, k_dir):
        rng = np.random.default_rng(40 + k_dir)
        bsz, t_len, d_in, hid = 6, 9, 4, 5
        for lengths in ([t_len] * bsz, rng.integers(1, t_len + 1, bsz)):
            x = rng.standard_normal((k_dir, bsz, t_len, d_in))
            keep = np.arange(t_len)[None, None, :] < \
                np.asarray(lengths)[None, :, None]
            keep = np.repeat(keep, k_dir, axis=0)
            if k_dir == 2:
                keep[1] = keep[1, :, ::-1]
            wx = rng.standard_normal((k_dir, d_in, 4 * hid)) * 0.5
            wh = rng.standard_normal((k_dir, hid, 4 * hid)) * 0.5
            b = rng.standard_normal((k_dir, 4 * hid))
            hs, cache = _lstm_forward(x, keep, wx, wh, b)
            ref_hs, ref_cache = _reference_lstm_forward(x, keep, wx, wh, b)
            assert hs.tobytes() == ref_hs.tobytes()
            dh = rng.standard_normal(hs.shape)
            got = _lstm_backward(dh, cache, wx, wh)
            want = _reference_lstm_backward(dh, ref_cache, wx, wh)
            for name, a, r in zip(("dx", "dwx", "dwh", "db"), got, want):
                assert a.shape == r.shape, name
                assert a.tobytes() == r.tobytes(), name

    def test_recurrent_layers_refuse_non_binary_mask(self):
        rng, x, mask = self._ragged_case(37)
        mask[0, 3] = 0.5
        for layer in (LSTM(4, 3, rng), BLSTM(4, 3, rng)):
            with pytest.raises(ValueError, match="0/1 mask"):
                layer.forward(x, mask=mask)


class TestLosses:
    def test_ce_perfect_prediction(self):
        lp = np.log(np.array([[0.9999, 1e-4 / 3, 1e-4 / 3, 1e-4 / 3]]))
        loss, _ = ce_loss(lp, np.array([0]))
        assert loss < 1e-3

    def test_ce_uniform_is_log_states(self):
        lp = np.full((6, 4), np.log(0.25))
        loss, _ = ce_loss(lp, np.zeros(6, dtype=int))
        npt.assert_allclose(loss, np.log(4.0), atol=1e-12)

    def test_ce_two_frame_hand_value(self):
        lp = np.log(np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1]]))
        loss, grad = ce_loss(lp, np.array([0, 1]))
        npt.assert_allclose(loss, -(np.log(0.7) + np.log(0.2)) / 2.0,
                            atol=1e-12)
        expected = np.zeros((2, 3))
        expected[0, 0] = expected[1, 1] = -0.5
        npt.assert_allclose(grad, expected, atol=1e-12)

    def test_ce_mask_limits_to_valid_frames(self):
        lp = np.log(np.array([[[0.5, 0.5], [0.9, 0.1], [0.3, 0.7]]]))
        loss, grad = ce_loss(lp, np.array([[0, 0, 1]]),
                             mask=np.array([[1.0, 1.0, 0.0]]))
        npt.assert_allclose(loss, -(np.log(0.5) + np.log(0.9)) / 2.0,
                            atol=1e-12)
        npt.assert_array_equal(grad[0, 2], 0.0)

    def test_ce_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ce_loss(np.log(np.full((2, 3), 1 / 3)), np.array([0, 3]))

    def test_ce_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(32)
        lp = LogSoftmax().forward(rng.standard_normal((4, 5)))
        tgt = rng.integers(0, 5, size=4)
        _, grad = ce_loss(lp, tgt)
        num = numerical_gradient(lambda v: ce_loss(v, tgt)[0], lp.copy())
        npt.assert_allclose(grad, num, atol=1e-8)

    def test_mse_equal_inputs_zero(self):
        x = np.random.default_rng(33).standard_normal((3, 4))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        npt.assert_array_equal(grad, 0.0)

    def test_mse_hand_value(self):
        loss, _ = mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        npt.assert_allclose(loss, 1.0, atol=1e-12)

    def test_mse_matches_direct_summation(self):
        rng = np.random.default_rng(34)
        p = rng.standard_normal((5, 3))
        t = rng.standard_normal((5, 3))
        loss, grad = mse_loss(p, t)
        npt.assert_allclose(loss, np.sum((p - t) ** 2) / p.size, atol=1e-12)
        npt.assert_allclose(grad, 2 * (p - t) / p.size, atol=1e-12)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = np.array([1.0, -2.0])
        new_p, _, _ = adam_step(p, np.zeros(2), np.zeros(2), np.zeros(2),
                                t=1, lr=0.1)
        npt.assert_array_equal(new_p, p)

    def test_first_step_is_signed_lr(self):
        g = np.array([3.0, -0.5, 1e-3])
        new_p, _, _ = adam_step(np.zeros(3), g, np.zeros(3), np.zeros(3),
                                t=1, lr=0.1)
        npt.assert_allclose(new_p, -0.1 * g / (np.abs(g) + 1e-8), atol=1e-9)

    def test_quadratic_converges(self):
        x = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for t in range(1, 101):
            x, m, v = adam_step(x, 2.0 * x, m, v, t, lr=0.1)
        assert abs(x[0]) < 0.05


def _toy_classification(n_items, seed):
    """Length-6 sequences whose class is the sign of the first feature."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n_items):
        x = rng.standard_normal((6, 2))
        x[:, 0] += np.where(x[:, 0] >= 0, 1.0, -1.0)
        y = (x[:, 0] >= 0).astype(int)
        data.append((x, y))
    return data


def _toy_net(seed=3):
    return build_network(
        [{"kind": "dense", "in": 2, "out": 8},
         {"kind": "relu"},
         {"kind": "dense", "in": 8, "out": 2},
         {"kind": "log_softmax"}], rng=seed)


class TestTraining:
    def test_pad_batch_masks(self):
        seqs = [np.ones((3, 2)), np.ones((5, 2))]
        x, mask = pad_batch(seqs)
        assert x.shape == (2, 5, 2)
        npt.assert_array_equal(mask, [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        npt.assert_array_equal(x[0, 3:], 0.0)

    def test_patience_zero_stops_at_first_check(self):
        net = _toy_net()
        cfg = TrainConfig(lr0=1e-3, check_interval=5, patience=0,
                          max_steps=500, batch_size=4)
        hist = train(net, _toy_classification(12, 0),
                     _toy_classification(4, 1), cfg, ce_loss)
        assert hist["stopped_at"] == 5
        assert len(hist["step"]) == 1

    def test_fixed_seed_reproducible(self):
        runs = []
        for _ in range(2):
            net = _toy_net(seed=3)
            cfg = TrainConfig(lr0=0.02, check_interval=10, patience=40,
                              max_steps=80, batch_size=4, seed=5)
            runs.append(train(net, _toy_classification(12, 0),
                              _toy_classification(4, 1), cfg, ce_loss))
        assert runs[0] == runs[1]

    def test_toy_task_halves_validation_loss(self):
        net = _toy_net()
        val = _toy_classification(6, 1)
        init_ce = evaluate(net, val, ce_loss)
        cfg = TrainConfig(lr0=0.05, check_interval=20, patience=200,
                          max_steps=600, batch_size=5)
        hist = train(net, _toy_classification(30, 0), val, cfg, ce_loss)
        assert hist["best_val"] <= 0.5 * init_ce

    def test_best_parameters_restored(self):
        net = _toy_net()
        val = _toy_classification(4, 1)
        cfg = TrainConfig(lr0=0.05, check_interval=10, patience=50,
                          max_steps=150, batch_size=4)
        hist = train(net, _toy_classification(12, 0), val, cfg, ce_loss)
        npt.assert_allclose(evaluate(net, val, ce_loss), hist["best_val"],
                            rtol=0, atol=1e-12)

    def test_trained_network_carries_no_batch_buffers(self):
        # restoring the best parameters drops the last pass's activations
        # and gradients, which belong to other parameters
        net = _toy_net()
        cfg = TrainConfig(lr0=0.05, check_interval=10, patience=50,
                          max_steps=40, batch_size=4)
        train(net, _toy_classification(12, 0), _toy_classification(4, 1),
              cfg, ce_loss)
        assert all(layer._cache is None and layer.grads == {}
                   for layer in net.layers)
        with pytest.raises(RuntimeError, match="without a stored forward"):
            net.backward(np.ones((1, 6, 2)))

    def test_lr_decays_on_plateau(self):
        net = _toy_net()
        cfg = TrainConfig(lr0=0.02, lr_decay=0.8, check_interval=5,
                          patience=100, max_steps=100, batch_size=4)
        hist = train(net, _toy_classification(12, 0),
                     _toy_classification(4, 1), cfg, ce_loss)
        worsened = [i for i in range(1, len(hist["val_loss"]))
                    if hist["val_loss"][i] >= min(hist["val_loss"][:i])]
        if worsened:
            i = worsened[0]
            npt.assert_allclose(hist["lr"][i + 1] if i + 1 < len(hist["lr"])
                                else hist["lr"][i] * 0.8,
                                hist["lr"][i] * 0.8, rtol=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(_toy_net(), [], _toy_classification(2, 1),
                  TrainConfig(), ce_loss)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="lr0"):
            TrainConfig(lr0=0.0)
        with pytest.raises(ValueError, match="lr_decay"):
            TrainConfig(lr_decay=1.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        net = build_network(
            [{"kind": "dense", "in": 3, "out": 4},
             {"kind": "layer_norm", "dim": 4},
             {"kind": "blstm", "in": 4, "hidden": 2},
             {"kind": "dense", "in": 4, "out": 3},
             {"kind": "log_softmax"}], rng=7)
        x = rng.standard_normal((2, 5, 3))
        before = net.forward(x)
        save_checkpoint(net, str(tmp_path / "ckpt"))
        restored = load_checkpoint(str(tmp_path / "ckpt"))
        # parameters are stored in 32-bit matrices, so the first save
        # quantizes; a second round trip must be bit-exact
        npt.assert_allclose(restored.forward(x), before, atol=1e-6)
        assert restored.specs() == net.specs()
        save_checkpoint(restored, str(tmp_path / "ckpt2"))
        again = load_checkpoint(str(tmp_path / "ckpt2"))
        npt.assert_array_equal(again.forward(x), restored.forward(x))

    def test_adam_trains_network_through_optimizer_class(self):
        net = _toy_net()
        opt = Adam(net, lr=0.05)
        data = _toy_classification(8, 2)
        x, mask = pad_batch([d[0] for d in data])
        tgt = np.stack([d[1] for d in data])
        first = None
        for _ in range(60):
            out = net.forward(x, mask=mask, train=True)
            loss, grad = ce_loss(out, tgt, mask)
            if first is None:
                first = loss
            net.backward(grad)
            opt.step()
        out = net.forward(x, mask=mask)
        final, _ = ce_loss(out, tgt, mask)
        assert final < 0.5 * first

    def test_unknown_layer_kind(self):
        with pytest.raises(ValueError, match="unknown layer"):
            build_network([{"kind": "conv"}])
