import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grads
from tempospike.engine import (
    ShapeError,
    SurrogateConfig,
    Tape,
    Tensor,
    bntt_seq,
    concat,
    conv2d,
    cross_entropy,
    matmul,
    mse,
    select_channels,
    sigmoid,
    soft_spike_forward,
    spike,
    square,
    surrogate_grad,
)


class TestTensor:
    def test_shape_matches_data(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4) and t.size == 12


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[3.0], [4.0]]

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True, name="a")
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="b")
        check_grads(lambda: matmul(a, b).sum(), [a, b], tol=1e-6)


def conv_reference(x, k, bias, g, stride):
    """Loop-by-loop "same"-padded cross-correlation plus bias, and the
    gradients of sum(out * g) with respect to x, k and bias."""
    b, c, h, w = x.shape
    oc, _, kh, kw = k.shape
    oh, ow = -(-h // stride), -(-w // stride)
    top = max((oh - 1) * stride + kh - h, 0) // 2
    left = max((ow - 1) * stride + kw - w, 0) // 2
    out = np.empty((b, oc, oh, ow))
    gx, gk, gb = np.zeros_like(x), np.zeros_like(k), np.zeros(oc)
    for n, o, y, q in np.ndindex(out.shape):
        acc = bias[o]
        gb[o] += g[n, o, y, q]
        for ci, i, j in np.ndindex(c, kh, kw):
            r, s = y * stride + i - top, q * stride + j - left
            if 0 <= r < h and 0 <= s < w:
                acc += x[n, ci, r, s] * k[o, ci, i, j]
                gx[n, ci, r, s] += g[n, o, y, q] * k[o, ci, i, j]
                gk[o, ci, i, j] += g[n, o, y, q] * x[n, ci, r, s]
        out[n, o, y, q] = acc
    return out, gx, gk, gb


def conv_operands(rng, x_shape, k_shape, x_grad=True):
    x = Tensor(rng.normal(size=x_shape), requires_grad=x_grad, name="x")
    k = Tensor(rng.normal(size=k_shape), requires_grad=True, name="k")
    b = Tensor(rng.normal(size=(k_shape[0], 1, 1)), requires_grad=True, name="b")
    return x, k, b


def rel_close(a, ref, tol=1e-12):
    return np.abs(a - ref).max() <= tol * np.abs(ref).max()


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Tensor(np.arange(25, dtype=float).reshape(1, 1, 5, 5))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, k, Tensor(np.zeros((1, 1, 1))), stride=1)
        assert np.array_equal(out.data, x.data)

    def test_zero_input_zero_output(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        k = Tensor(np.random.default_rng(0).normal(size=(5, 3, 3, 3)))
        assert not conv2d(x, k, Tensor(np.zeros((5, 1, 1)))).data.any()

    def test_same_padding_output_size(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        k = Tensor(np.zeros((2, 1, 3, 3)))
        assert conv2d(x, k, Tensor(np.zeros((2, 1, 1))), stride=2).shape == (1, 2, 3, 3)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                   Tensor(np.zeros((1, 1, 1))))

    def test_bias_size_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                   Tensor(np.zeros((2, 1, 1))))

    @pytest.mark.parametrize("x_shape, k_shape, stride", [
        ((2, 2, 5, 5), (3, 2, 3, 3), 1),
        ((2, 2, 5, 7), (3, 2, 3, 3), 2),   # non-square input
        ((2, 3, 7, 5), (2, 3, 3, 3), 3),
        ((2, 2, 6, 5), (3, 2, 2, 2), 1),   # even kernels
        ((2, 2, 6, 7), (2, 2, 4, 4), 2),
        ((2, 2, 3, 2), (2, 2, 5, 5), 1),   # kernel larger than the input
        ((2, 3, 4, 6), (4, 3, 1, 1), 1),   # 1x1
        ((2, 3, 5, 4), (2, 3, 1, 1), 2),
    ])
    def test_matches_loop_reference(self, x_shape, k_shape, stride):
        rng = np.random.default_rng(sum(x_shape + k_shape) + stride)
        x, k, b = conv_operands(rng, x_shape, k_shape)
        with Tape() as tape:
            out = conv2d(x, k, b, stride)
            g = rng.normal(size=out.shape)
            loss = (out * Tensor(g)).sum()
        grads = tape.backward(loss)
        ref_out, ref_gx, ref_gk, ref_gb = conv_reference(x.data, k.data, b.data.ravel(), g, stride)
        assert out.shape == ref_out.shape
        assert rel_close(out.data, ref_out)
        assert rel_close(grads[x], ref_gx)
        assert rel_close(grads[k], ref_gk)
        assert grads[b].shape == b.shape and rel_close(grads[b].ravel(), ref_gb)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x, k, b = conv_operands(rng, (1, 2, 5, 5), (2, 2, 3, 3))
        check_grads(lambda: conv2d(x, k, b, stride=1).sum(), [x, k, b], tol=1e-5)

    def test_strided_gradients(self):
        rng = np.random.default_rng(4)
        x, k, b = conv_operands(rng, (2, 1, 5, 5), (3, 1, 3, 3))
        check_grads(lambda: square(conv2d(x, k, b, stride=2)).sum(), [x, k, b], tol=1e-5)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(5)
        x, k, b = conv_operands(rng, (2, 2, 4, 4), (3, 2, 3, 3), x_grad=False)
        with Tape() as tape:
            loss = square(conv2d(x, k, b, stride=1)).sum()
        grads = tape.backward(loss)
        assert set(grads) == {k, b}
        conv_node = tape.nodes[0]
        assert conv_node.backward(np.ones(conv_node.output.shape))[0] is None


class TestSpike:
    def test_hard_threshold_is_strict(self):
        # spike iff the normalized drive is strictly positive
        out = spike(Tensor([-0.5, 0.0, 0.3]), SurrogateConfig(2.0), mode="hard")
        assert out.data.tolist() == [0.0, 0.0, 1.0]

    def test_hard_output_is_binary(self):
        z = np.random.default_rng(0).normal(size=200)
        out = spike(Tensor(z), SurrogateConfig(2.0)).data
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_surrogate_peak_at_zero(self):
        alpha = 2.0
        assert surrogate_grad(np.array(0.0), alpha) == pytest.approx(alpha / 2)

    def test_surrogate_never_nan(self):
        z = np.array([-1e300, -1e6, 0.0, 1e6, 1e300])
        g = surrogate_grad(z, 2.0)
        assert np.all(np.isfinite(g))

    @given(z=st.floats(-1e6, 1e6), alpha=st.floats(0.1, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_surrogate_even_positive_peaked(self, z, alpha):
        g_pos = surrogate_grad(np.array(z), alpha)
        g_neg = surrogate_grad(np.array(-z), alpha)
        assert g_pos == pytest.approx(g_neg)
        assert g_pos > 0.0
        assert g_pos <= alpha / 2 + 1e-15

    def test_soft_forward_matches_surrogate_derivative(self):
        # the soft forward's finite differences must equal the backward rule
        rng = np.random.default_rng(11)
        z = Tensor(rng.normal(size=12), requires_grad=True)
        check_grads(lambda: spike(z, SurrogateConfig(1.7), mode="soft").sum(), [z], tol=1e-4)

    def test_soft_forward_range(self):
        z = np.linspace(-5, 5, 101)
        s = soft_spike_forward(z, 2.0)
        assert np.all((s > 0) & (s < 1))
        assert s[50] == pytest.approx(0.5)


class TestRelu:
    def test_forward(self):
        from tempospike.engine import relu

        out = relu(Tensor([-2.0, 0.0, 3.0]))
        assert out.data.tolist() == [0.0, 0.0, 3.0]

    def test_gradient_away_from_kink(self):
        from tempospike.engine import relu

        rng = np.random.default_rng(19)
        vals = rng.normal(size=(3, 4))
        vals += np.sign(vals) * 0.2  # keep clear of the nondifferentiable point
        x = Tensor(vals, requires_grad=True)
        check_grads(lambda: square(relu(x)).sum(), [x], tol=1e-6)


class TestConcat:
    def test_basic(self):
        out = concat(Tensor([[1.0]]), Tensor([[2.0]]), axis=1)
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_channel_counts_add(self):
        a = Tensor(np.zeros((4, 124)))
        b = Tensor(np.zeros((4, 124)))
        assert concat(a, b, axis=1).shape == (4, 248)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), axis=1)

    def test_gradient_split(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        check_grads(lambda: square(matmul(concat(a, b, axis=1), w)).sum(),
                    [a, b, w], tol=1e-6)


class TestSelectChannels:
    def test_selection(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = select_channels(x, [2, 0], axis=1)
        assert out.data.tolist() == [[3.0, 1.0]]

    def test_repeats_accumulate_gradient(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        with Tape() as tape:
            out = select_channels(x, [0, 0, 1], axis=1)
            loss = out.sum()
        g = tape.backward(loss)[x]
        assert g.tolist() == [[2.0, 1.0]]

    def test_gradient_sums_repeats_in_selection_order(self):
        # the same additions in the same order as np.add.at, so the gradient
        # is bit-identical to it however often a channel is picked
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        picks = [2, 0, 2, 2, 1, 2, 0, 2]
        w = rng.standard_normal((3, 8, 2)) * 10.0 ** rng.integers(-8, 8, (3, 8, 2))
        with Tape() as tape:
            loss = (select_channels(x, picks, axis=1) * Tensor(w)).sum()
        expected = np.zeros_like(x.data)
        np.add.at(expected, (slice(None), picks), w)
        assert np.array_equal(tape.backward(loss)[x], expected)


class TestBntt:
    def test_zero_variance_gives_beta(self):
        x = Tensor(np.full((4, 3), 7.0))
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.array([1.0, -2.0, 0.5]))
        out = bntt_seq(x, [gamma], [beta], np.zeros((1, 3)), np.ones((1, 3)), training=True)
        assert np.allclose(out.data, beta.data[None, :])

    def test_identity_on_standardized_batch(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(200, 4))
        raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        out = bntt_seq(Tensor(raw), [Tensor(np.ones(4))], [Tensor(np.zeros(4))],
                       np.zeros((1, 4)), np.ones((1, 4)), training=True)
        assert np.allclose(out.data, raw, atol=1e-4)

    def test_batch_of_one_raises(self):
        with pytest.raises(Exception, match="batch"):
            bntt_seq(Tensor(np.zeros((1, 3))), [Tensor(np.ones(3))], [Tensor(np.zeros(3))],
                     np.zeros((1, 3)), np.ones((1, 3)), training=True)

    def test_inference_uses_running_stats(self):
        x = Tensor(np.array([[2.0, 4.0]]))
        out = bntt_seq(x, [Tensor(np.ones(2))], [Tensor(np.zeros(2))],
                       np.array([[1.0, 1.0]]), np.array([[4.0, 4.0]]),
                       training=False, eps=0.0)
        assert np.allclose(out.data, [[0.5, 1.5]])

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True, name="x")
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True, name="g")
        beta = Tensor(rng.normal(size=3), requires_grad=True, name="b")

        def build():
            return square(bntt_seq(x, [gamma], [beta], np.zeros((1, 3)), np.ones((1, 3)),
                                   training=True)).sum()

        check_grads(build, [x, gamma, beta], tol=1e-4)


class TestBackward:
    def test_linear_gradient(self):
        x = Tensor([[2.0, -1.0, 3.0]])
        w = Tensor([[1.0], [1.0], [1.0]], requires_grad=True)
        with Tape() as tape:
            loss = matmul(x, w).sum()
        g = tape.backward(loss)
        assert g[w].ravel().tolist() == [2.0, -1.0, 3.0]

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = matmul(Tensor(np.ones((2, 2))), w)
        with pytest.raises(ShapeError):
            tape.backward(out)

    def test_loss_off_tape_rejected(self):
        with Tape() as tape:
            pass
        with pytest.raises(Exception, match="tape"):
            tape.backward(Tensor(1.0, requires_grad=True))

    def test_two_layer_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 4)))
        w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True, name="w1")
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True, name="w2")
        surr = SurrogateConfig(2.0)

        def build():
            h = spike(matmul(x, w1), surr, mode="soft")
            return square(matmul(h, w2)).mean()

        check_grads(build, [w1, w2], tol=1e-4)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def run():
            with Tape() as tape:
                loss = square(sigmoid(matmul(x, w))).sum()
            return tape.backward(loss)[w]

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_only_leaf_gradients_returned(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            h = x * 3.0
            loss = h.sum()
        grads = tape.backward(loss)
        assert list(grads) == [x]
        assert grads[x].tolist() == [[3.0, 3.0]]
        # the sweep norm still counts the gradients of loss (1) and h (1, 1)
        assert tape.grad_norm == pytest.approx(math.sqrt(1 + 2 + 18))

    def test_gradient_accumulates_over_reuse(self):
        w = Tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            y = matmul(Tensor([[2.0]]), w) + matmul(Tensor([[3.0]]), w)
            loss = y.sum()
        assert tape.backward(loss)[w].item() == 5.0


class TestLosses:
    def test_mse_zero_on_identical(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert mse(a, Tensor(a.data.copy())).item() == 0.0

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 7)))
        labels = np.array([0, 3, 5, 6])
        assert cross_entropy(logits, labels).item() == pytest.approx(math.log(7))

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(23)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        labels = np.array([1, 0, 3])
        check_grads(lambda: cross_entropy(logits, labels), [logits], tol=1e-5)

    def test_mse_gradient(self):
        rng = np.random.default_rng(29)
        pred = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 4)))
        check_grads(lambda: mse(pred, target), [pred], tol=1e-5)
