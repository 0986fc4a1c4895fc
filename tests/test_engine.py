import math
import platform
import resource
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import check_grads
from tempospike.engine import ops
from tempospike.engine import (
    EngineError,
    ShapeError,
    SurrogateConfig,
    Tape,
    Tensor,
    add,
    affine,
    bntt_seq,
    concat,
    conv2d,
    cross_entropy,
    div,
    dropout,
    li_scan,
    lif_scan,
    lif_update,
    matmul,
    mse,
    mul,
    relu,
    select_channels,
    sigmoid,
    soft_spike_forward,
    spike,
    square,
    sub,
    sum_steps,
    surrogate_grad,
    window,
)
from tempospike.graph import Network, TSkip, from_shorthand, mlp_spec, run_forward


class TestTensor:
    def test_shape_matches_data(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4) and t.size == 12

    def test_float32_kept_as_it_is(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert Tensor(a).data is a
        assert Tensor(np.float32(1.5)).data.dtype == np.float32

    @pytest.mark.parametrize("value", [
        np.arange(3), np.array([True, False]), np.zeros(2, np.float16), 1.5, 2, [1.0, 2.0],
        np.int64(3)])
    def test_anything_but_a_float32_array_widens_to_float64(self, value):
        t = Tensor(value)
        assert t.data.dtype == np.float64
        assert np.array_equal(t.data, np.asarray(value, dtype=np.float64))


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


def tape_growth(op):
    """Run ``op`` under a tape; return its output and the bytes still
    allocated after it returns, i.e. what the tape keeps for the backward
    pass. Everything allocated before the call is not counted."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            out = op()
            grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == 1
    return out, grown


# room for the node, its closures and a few per-channel vectors
TAPE_SLACK = 16 << 10


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
            out = conv2d(x, k, b, stride=1)
            loss = square(out).sum()
        grads = tape.backward(loss)
        assert set(grads) == {k, b}
        conv_node = tape.nodes[0]
        assert conv_node.backward(np.ones(out.shape))[0] is None

    def test_tape_keeps_no_padded_input(self):
        # the padded (16, 18, 18, 8) input is 5x the output; the backward
        # pass pads x again
        rng = np.random.default_rng(6)
        x, k, b = conv_operands(rng, (8, 16, 16, 16), (4, 16, 3, 3))
        out, grown = tape_growth(lambda: conv2d(x, k, b, stride=1))
        assert grown <= out.data.nbytes + TAPE_SLACK, (grown, out.data.nbytes)


class TestSpike:
    def test_hard_threshold_is_strict(self):
        # spike iff the normalized drive U / V_th - 1 is strictly positive:
        # here -0.5, 0.0 and 0.3
        out = spike(Tensor([0.5, 1.0, 1.3]), Tensor(1.0), SurrogateConfig(2.0), mode="hard")
        assert out.data.tolist() == [0.0, 0.0, 1.0]

    def test_hard_output_is_binary(self):
        z = np.random.default_rng(0).normal(size=200)
        out = spike(Tensor(z), Tensor(0.7), SurrogateConfig(2.0)).data
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_surrogate_peak_at_zero(self):
        alpha = 2.0
        assert surrogate_grad(np.array(0.0), alpha) == pytest.approx(alpha / 2)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.nan, math.inf])
    def test_surrogate_sharpness_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha_surr"):
            SurrogateConfig(alpha)

    def test_surrogate_never_nan(self):
        z = np.array([-1e300, -1e6, 0.0, 1e6, 1e300])
        g = surrogate_grad(z, 2.0)
        assert np.all(np.isfinite(g))

    @given(z=st.floats(-1e6, 1e6), alpha=st.floats(0.1, 50.0))
    @settings(max_examples=60)
    def test_surrogate_even_positive_peaked(self, z, alpha):
        g_pos = surrogate_grad(np.array(z), alpha)
        g_neg = surrogate_grad(np.array(-z), alpha)
        assert g_pos == pytest.approx(g_neg)
        assert g_pos > 0.0
        assert g_pos <= alpha / 2 + 1e-15

    def test_soft_forward_matches_surrogate_derivative(self):
        # the soft forward's finite differences must equal the backward rule,
        # which rebuilds the normalized drive from the membrane and threshold
        rng = np.random.default_rng(11)
        u = Tensor(rng.normal(size=12), requires_grad=True)
        th = Tensor(0.8, requires_grad=True)
        check_grads(lambda: spike(u, th, SurrogateConfig(1.7), mode="soft").sum(), [u, th],
                    tol=1e-4)

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


class TestDropout:
    P = 0.3

    def operands(self, seed, shape=(4, 6)):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape), requires_grad=True, name="x")
        return x, rng.random(shape) >= self.P

    def test_matches_multiplying_by_the_scaled_mask(self):
        x, keep = self.operands(41)
        g = np.random.default_rng(42).normal(size=x.shape)
        results = []
        for build in (lambda: dropout(x, keep, self.P),
                      lambda: x * Tensor(keep / (1.0 - self.P))):
            with Tape() as tape:
                out = build()
                loss = (out * Tensor(g)).sum()
            results.append((out.data, tape.backward(loss)[x]))
        (out, gx), (ref_out, ref_gx) = results
        # bit for bit, the signs of dropped zeros included
        assert np.array_equal(out.view(np.uint64), ref_out.view(np.uint64))
        assert np.array_equal(gx.view(np.uint64), ref_gx.view(np.uint64))

    def test_gradients_vs_finite_differences(self):
        x, keep = self.operands(43)
        check_grads(lambda: square(dropout(x, keep, self.P)).sum(), [x], tol=1e-6)

    def test_mask_shape_mismatch(self):
        x, keep = self.operands(44)
        with pytest.raises(ShapeError):
            dropout(x, keep[:, :3], self.P)

    def test_tape_keeps_a_boolean_mask(self):
        x, _ = self.operands(45, shape=(256, 128))
        rng = np.random.default_rng(46)
        masks = []

        def op():
            masks.append(rng.random(x.shape) >= self.P)
            return dropout(x, masks[0], self.P)

        out, grown = tape_growth(op)
        assert grown <= out.data.nbytes + masks[0].nbytes + TAPE_SLACK, (grown, out.data.nbytes)


@st.composite
def spike_valued_or_not(draw):
    """0/1 and 0/s spikes, all zeros, empty arrays, arrays with a -0.0 and
    mixed floats, in C or transposed layout."""
    s = draw(st.floats(min_value=0.0, exclude_min=True))
    elements = draw(st.sampled_from([
        st.sampled_from([0.0, 1.0]), st.sampled_from([0.0, s]), st.just(0.0),
        st.sampled_from([0.0, s, -0.0]), st.floats() | st.sampled_from([0.0, s])]))
    shape = draw(st.tuples(st.integers(0, 4), st.integers(1, 6)))
    a = draw(hnp.arrays(np.float64, shape, elements=elements))
    return a.T if draw(st.booleans()) else a


class TestPackSpikes:
    @given(spike_valued_or_not(), st.integers(1, 30))
    @example(np.array([0.0, math.inf, 0.0]), 1)
    @settings(max_examples=400)
    def test_unpack_gives_the_input_back_bit_for_bit(self, a, block):
        # small blocks, so that the check covers several of them
        with mock.patch.object(ops, "_CHECK_BLOCK", block):
            data, scale = ops.pack_spikes(a)
        patterns = set(a.view(np.int64).ravel().tolist()) - {0}
        spike_valued = a.size > 0 and len(patterns) <= 1 and all(
            0.0 < np.int64(p).view(np.float64) < math.inf for p in patterns)
        assert (scale is not None) == spike_valued
        if scale is None:
            assert data is a
        else:
            assert data.dtype == bool and data.shape == a.shape
            back = ops.unpack_spikes((data, scale))
            assert back.dtype == np.float64 and back.tobytes() == a.tobytes()

    def test_spikes_outside_the_last_block_are_packed(self):
        # the last block, which gives the scale, is all zero here
        a = np.zeros((3, ops._CHECK_BLOCK))
        a[0, 1::64] = 1.25
        data, scale = ops.pack_spikes(a)
        assert scale == 1.25 and np.array_equal(data, a > 0)


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


class TestWindow:
    """Rows [start, start + rows) of blocks laid end to end, zeros before row 0."""

    @staticmethod
    def blocks(rng, rows=(4, 6, 2)):
        return [Tensor(rng.normal(size=(n, 3)), requires_grad=True) for n in rows]

    def test_rows_of_the_blocks_laid_end_to_end(self):
        bs = self.blocks(np.random.default_rng(0))
        padded = np.concatenate([np.zeros((5, 3))] + [b.data for b in bs])
        for start, rows in [(-5, 3), (-2, 6), (0, 12), (1, 2), (3, 5), (8, 4)]:
            assert np.array_equal(window(bs, start, rows).data,
                                  padded[start + 5:start + 5 + rows])

    def test_exactly_one_block_is_that_block(self):
        bs = self.blocks(np.random.default_rng(1))
        with Tape() as tape:
            assert window(bs, 4, 6) is bs[1]
        assert tape.nodes == []

    def test_rows_past_the_end_are_refused(self):
        with pytest.raises(ShapeError):
            window(self.blocks(np.random.default_rng(2)), 10, 3)

    @pytest.mark.parametrize("start, rows", [(-3, 5), (1, 2), (2, 6)],
                             ids=["zero lead", "inside one block", "across two blocks"])
    def test_gradients_vs_finite_differences(self, start, rows):
        rng = np.random.default_rng(3)
        bs = self.blocks(rng, (4, 6))
        w = Tensor(rng.normal(size=(rows, 3)))
        check_grads(lambda: square(window(bs, start, rows) * w).sum(), bs, tol=1e-6)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_backward_is_the_adjoint(self, data):
        # <window(x), g> = <x, backward(g)>; small integers keep both sums exact
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        start = data.draw(st.integers(-4, sum(sizes) - 1))
        rows = data.draw(st.integers(1, sum(sizes) - start))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bs = [Tensor(rng.integers(-9, 10, (n, 2)).astype(np.float64), requires_grad=True)
              for n in sizes]
        g = rng.integers(-9, 10, (rows, 2)).astype(np.float64)
        with Tape() as tape:
            out = window(bs, start, rows)
            loss = (out * Tensor(g)).sum()
        grads = tape.backward(loss)
        back = sum(float(np.vdot(b.data, grads[b])) for b in bs if b in grads)
        assert float(np.vdot(out.data, g)) == back

    def test_a_taped_window_across_two_chunks_reaches_both(self):
        rng = np.random.default_rng(4)
        chunks = self.blocks(rng, (4, 4))
        with Tape() as tape:
            loss = window(chunks, 2, 4).sum()
        assert len(tape.nodes) == 2  # the window and the sum
        grads = tape.backward(loss)
        assert grads[chunks[0]].tolist() == [[0.0] * 3] * 2 + [[1.0] * 3] * 2
        assert grads[chunks[1]].tolist() == [[1.0] * 3] * 2 + [[0.0] * 3] * 2


class TestBntt:
    def test_zero_variance_gives_beta(self):
        x = Tensor(np.full((4, 3), 7.0))
        gamma = Tensor(np.ones((1, 3)))
        beta = Tensor(np.array([[1.0, -2.0, 0.5]]))
        out = bntt_seq(x, gamma, beta, np.zeros((1, 3)), np.ones((1, 3)), 0, 1, training=True)
        assert np.allclose(out.data, beta.data)

    def test_identity_on_standardized_batch(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(200, 4))
        raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        out = bntt_seq(Tensor(raw), Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4))),
                       np.zeros((1, 4)), np.ones((1, 4)), 0, 1, training=True)
        assert np.allclose(out.data, raw, atol=1e-4)

    def test_batch_of_one_raises(self):
        with pytest.raises(Exception, match="batch"):
            bntt_seq(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3))),
                     np.zeros((1, 3)), np.ones((1, 3)), 0, 1, training=True)

    def test_inference_uses_running_stats(self):
        x = Tensor(np.array([[2.0, 4.0]]))
        out = bntt_seq(x, Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))),
                       np.array([[1.0, 1.0]]), np.array([[4.0, 4.0]]), 0, 1,
                       training=False, eps=0.0)
        assert np.allclose(out.data, [[0.5, 1.5]])

    def test_gradients_vs_finite_differences(self):
        # steps 1 and 2 of 3: row 0 of gamma and beta has a zero gradient
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(10, 3)), requires_grad=True, name="x")
        gamma = Tensor(rng.uniform(0.5, 1.5, (3, 3)), requires_grad=True, name="g")
        beta = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="b")

        def build():
            return square(bntt_seq(x, gamma, beta, np.zeros((3, 3)), np.ones((3, 3)), 1, 3,
                                   training=True)).sum()

        check_grads(build, [x, gamma, beta], tol=1e-4)

    def test_tape_keeps_no_normalized_copy(self):
        # four steps of a (16, 8, 8, 8) batch; x-hat would double the output
        steps, c = 4, 8
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(steps * 16, c, 8, 8)), requires_grad=True)
        gamma = Tensor(np.ones((steps, c)), requires_grad=True)
        beta = Tensor(np.zeros((steps, c)), requires_grad=True)
        mean, var = np.zeros((steps, c)), np.ones((steps, c))
        out, grown = tape_growth(lambda: bntt_seq(x, gamma, beta, mean, var, 0, steps,
                                                  training=True))
        assert grown <= out.data.nbytes + TAPE_SLACK, (grown, out.data.nbytes)

    def test_inference_backward_ignores_later_running_updates(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        gamma = Tensor(np.ones((1, 3)), requires_grad=True)
        beta = Tensor(np.zeros((1, 3)), requires_grad=True)
        mean, var = rng.normal(size=(1, 3)), np.full((1, 3), 2.0)
        g = rng.normal(size=x.shape)
        grads = []
        for shift in (0.0, 1.0):
            run_mean = mean.copy()
            with Tape() as tape:
                loss = (bntt_seq(x, gamma, beta, run_mean, var, 0, 1, training=False)
                        * Tensor(g)).sum()
            run_mean += shift
            grads.append(tape.backward(loss))
        assert all(np.array_equal(grads[0][t], grads[1][t]) for t in (x, gamma, beta))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("tail", [(5,), (3, 4, 4)], ids=["dense", "conv"])
    def test_one_call_equals_one_step_calls(self, training, tail):
        # steps [1, 5) of 6 as one call and as four one-step calls: the
        # outputs, the running rows and every gradient agree bit for bit
        T, start, stop, batch = 6, 1, 5, 4
        rng = np.random.default_rng(24)
        x = rng.normal(size=((stop - start) * batch,) + tail) * 3.0 + 1.0
        weights = rng.normal(size=x.shape)
        params = (rng.uniform(0.5, 1.5, (T, tail[0])), rng.normal(size=(T, tail[0])))
        stats = (rng.normal(size=(T, tail[0])), rng.uniform(0.5, 2.0, (T, tail[0])))
        runs = []
        for chunks in ([(start, stop)], [(t, t + 1) for t in range(start, stop)]):
            gamma, beta = (Tensor(a, requires_grad=True) for a in params)
            mean, var = (a.copy() for a in stats)
            rows = [slice((s - start) * batch, (e - start) * batch) for s, e in chunks]
            xs = [Tensor(x[r], requires_grad=True) for r in rows]
            with Tape() as tape:
                outs = [bntt_seq(xk, gamma, beta, mean, var, s, e, training)
                        for xk, (s, e) in zip(xs, chunks)]
                loss = sum((o * Tensor(weights[r])).sum() for o, r in zip(outs, rows))
            grads = tape.backward(loss)
            runs.append([np.concatenate([o.data for o in outs]), mean, var,
                         np.concatenate([grads[xk] for xk in xs]), grads[gamma], grads[beta]])
        for whole, steps in zip(*runs):
            assert np.array_equal(whole, steps)
        assert not runs[0][4][[0, T - 1]].any() and not runs[0][5][[0, T - 1]].any()


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
            h = spike(matmul(x, w1), Tensor(1.0), surr, mode="soft")
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

    def test_constant_inputs_get_no_gradient(self):
        x = Tensor(np.full((2, 3), 3.0), requires_grad=True)
        c = Tensor(np.full((2, 3), 2.0))
        with Tape() as tape:
            for op in (add, sub, mul, div):
                op(x, c)
                op(c, x)
        for node in tape.nodes:
            grads = node.backward(np.ones((2, 3)))
            assert [g is None for g in grads] == [k is None for k in node.input_keys]

    def test_gradient_accumulates_over_reuse(self):
        w = Tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            y = matmul(Tensor([[2.0]]), w) + matmul(Tensor([[3.0]]), w)
            loss = y.sum()
        assert tape.backward(loss)[w].item() == 5.0



class TestTapeKeys:
    """The tape names tensors by key and holds none of their arrays, so an
    array that no backward closure reads is freed once the caller drops it."""

    @staticmethod
    def leaf(rng, shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    @staticmethod
    def assert_freed_when_dropped(make, consume):
        # ``make`` builds the intermediate, ``consume`` feeds it to the next
        # op; the weak reference is taken and checked while the tape lives
        with Tape() as tape:
            mid = make()
            ref = weakref.ref(mid.data)
            loss = consume(mid).sum()
            del mid
            assert ref() is None
        assert tape.backward(loss)

    def test_bntt_output_fed_to_lif_update_is_freed(self):
        rng = np.random.default_rng(60)
        x, gamma, beta = self.leaf(rng, (4, 3)), self.leaf(rng, (1, 3)), self.leaf(rng, (1, 3))
        leak, th = Tensor(0.9, requires_grad=True), Tensor(1.0, requires_grad=True)
        mem, prev = Tensor(rng.normal(size=(4, 3))), Tensor(np.ones((4, 3)))
        self.assert_freed_when_dropped(
            lambda: bntt_seq(x, gamma, beta, np.zeros((1, 3)), np.ones((1, 3)), 0, 1, True),
            lambda drive: lif_update(mem, drive, prev, leak, th, "soft"))

    def test_normalized_drive_fed_to_spike_is_freed(self, monkeypatch):
        # spike records normalized_drive, then a spike node on its output z,
        # and rebuilds z from the membrane in its backward pass
        rng = np.random.default_rng(66)
        mem, th = self.leaf(rng, (4, 3)), Tensor(0.7, requires_grad=True)
        drives = []
        original = ops.normalized_drive

        def normalized_drive(*args):
            z = original(*args)
            drives.append(weakref.ref(z.data))
            return z

        monkeypatch.setattr(ops, "normalized_drive", normalized_drive)
        with Tape() as tape:
            loss = spike(mem, th, SurrogateConfig(2.0)).sum()
            assert len(drives) == 1 and drives[0]() is None
        assert tape.backward(loss)

    @pytest.mark.parametrize("reset", ["soft", "hard"])
    def test_hard_spikes_fed_to_lif_update_are_freed(self, reset):
        # lif_update keeps 0/1 previous spikes as one byte each
        rng = np.random.default_rng(67)
        mem, drive = self.leaf(rng, (4, 3)), self.leaf(rng, (4, 3))
        leak, th = Tensor(0.9, requires_grad=True), Tensor(0.5, requires_grad=True)
        self.assert_freed_when_dropped(
            lambda: spike(mem, th, SurrogateConfig(2.0)),
            lambda prev: lif_update(mem, drive, prev, leak, th, reset))

    def test_affine_drive_fed_to_lif_scan_is_freed(self):
        rng = np.random.default_rng(61)
        x, w, b = self.leaf(rng, (6, 4)), self.leaf(rng, (4, 5)), self.leaf(rng, (5,))
        leak, th = Tensor(0.9, requires_grad=True), Tensor(0.5, requires_grad=True)
        self.assert_freed_when_dropped(
            lambda: affine(x, w, b),
            lambda drive: lif_scan(drive, leak, th, 3, "hard", SurrogateConfig(2.0))[0])

    def test_affine_drive_fed_to_li_scan_is_freed(self):
        rng = np.random.default_rng(62)
        x, w, b = self.leaf(rng, (6, 4)), self.leaf(rng, (4, 5)), self.leaf(rng, (5,))
        leak, init = Tensor(0.9, requires_grad=True), self.leaf(rng, (2, 5))
        self.assert_freed_when_dropped(lambda: affine(x, w, b),
                                       lambda drive: li_scan(drive, leak, init))

    def test_select_channels_output_fed_to_dropout_is_freed(self):
        rng = np.random.default_rng(63)
        x, keep = self.leaf(rng, (4, 3, 2, 2)), rng.random((4, 5, 2, 2)) < 0.7
        self.assert_freed_when_dropped(lambda: select_channels(x, [0, 2, 2, 1, 0]),
                                       lambda sel: dropout(sel, keep, 0.3))

    def test_concat_output_fed_to_dropout_is_freed(self):
        rng = np.random.default_rng(64)
        a, b, keep = self.leaf(rng, (4, 3)), self.leaf(rng, (4, 2)), rng.random((4, 5)) < 0.7
        self.assert_freed_when_dropped(lambda: concat(a, b), lambda cat: dropout(cat, keep, 0.3))

    def test_dropping_intermediates_leaves_gradients_bit_identical(self):
        rng = np.random.default_rng(65)
        x, w, b = self.leaf(rng, (8, 3)), self.leaf(rng, (3, 4)), self.leaf(rng, (4,))
        gamma, beta = self.leaf(rng, (2, 4)), self.leaf(rng, (2, 4))
        leak, th = Tensor(0.8, requires_grad=True), Tensor(0.4, requires_grad=True)
        keep = rng.random((8, 6)) < 0.7
        leaves = [x, w, b, gamma, beta, leak, th]

        def run(kept: list | None):
            # every intermediate goes into ``kept``, or is dropped at once
            def k(t):
                if kept is not None:
                    kept.append(t)
                return t

            h = k(bntt_seq(k(affine(x, w, b)), gamma, beta, np.zeros((2, 4)),
                           np.ones((2, 4)), 0, 2, True))
            spikes = k(lif_scan(h, leak, th, 2, "soft", SurrogateConfig(2.0))[0])
            mixed = k(dropout(k(concat(spikes, k(select_channels(h, [3, 0])))), keep, 0.3))
            acc = k(li_scan(mixed, leak, Tensor(np.zeros((4, 6)))))
            return cross_entropy(k(sum_steps(k(acc.reshape((2, 4, 6))))), [0, 5, 2, 1])

        kept, results = [], []
        for store in (kept, None):
            with Tape() as tape:
                loss = run(store)
            grads = tape.backward(loss)
            results.append(([grads[t].tobytes() for t in leaves], tape.grad_norm))
        assert len(kept) == 9
        assert results[0] == results[1]

    @pytest.mark.parametrize("p", [0.0, 0.2], ids=["0-1", "dropout"])
    @pytest.mark.parametrize("kind", ["affine", "conv2d"])
    def test_spike_valued_input_is_freed_and_gradients_match_the_float_path(
            self, monkeypatch, kind, p):
        rng = np.random.default_rng(68)
        if kind == "affine":
            op, mem = affine, self.leaf(rng, (6, 5))
            w, b = self.leaf(rng, (5, 4)), self.leaf(rng, (4,))
        else:
            op, mem = conv2d, self.leaf(rng, (3, 2, 4, 4))
            w, b = self.leaf(rng, (3, 2, 3, 3)), self.leaf(rng, (3, 1, 1))
        keep = rng.random(mem.shape) >= p

        def run():
            # 0/1 spikes, or dropout of them, 0 and 1.25
            with Tape() as tape:
                mid = spike(mem, Tensor(0.5), SurrogateConfig(2.0))
                if p:
                    mid = dropout(mid, keep, p)
                ref = weakref.ref(mid.data)
                loss = square(op(mid, w, b)).sum()
                del mid
                freed = ref() is None
            grads = tape.backward(loss)
            return freed, [grads[t].tobytes() for t in (mem, w, b)], tape.grad_norm

        freed, *packed = run()
        monkeypatch.setattr(ops, "pack_spikes", lambda a: (a, None))
        kept, *floats = run()
        assert freed and not kept
        assert packed == floats

    def test_relu_fed_affine_keeps_floats(self):
        rng = np.random.default_rng(70)
        x, w, b = self.leaf(rng, (6, 5)), self.leaf(rng, (5, 4)), self.leaf(rng, (4,))
        with Tape() as tape:
            mid = relu(x)
            ref = weakref.ref(mid.data)
            loss = affine(mid, w, b).sum()
            del mid
            assert ref() is not None
        assert tape.backward(loss)

    def test_tape_free_forward_never_packs(self, monkeypatch):
        # dense and conv layers, dropout, and a backward edge with one-step
        # chunks, which run lif_scan from the last chunk's arrays
        def never(a):
            raise AssertionError("packed without a tape")

        monkeypatch.setattr(ops, "pack_spikes", never)
        rng = np.random.default_rng(71)
        for spec in (mlp_spec([4, 6, 5, 3], T=4, tskips=[TSkip(2, 1, 1)]),
                     from_shorthand("2x6x6-3c3s1-3c4s1-3", T=3,
                                    tskips=[TSkip(origin=2, dest=1, delta_t=1)], bntt=True)):
            x = (rng.random((spec.T, 2) + spec.input_shape) < 0.5).astype(np.float64)
            for mode in ("train", "eval"):
                run_forward(Network.build(spec, seed=0), x, mode=mode, dropout=0.2,
                            rng=np.random.default_rng(0))

    @pytest.mark.parametrize("spike_mode", ["hard", "soft"])
    def test_lif_scan_keeps_hard_spikes_as_booleans(self, spike_mode):
        rng = np.random.default_rng(72)
        drive = self.leaf(rng, (3 * 4, 5))
        leak, th = Tensor(0.9, requires_grad=True), Tensor(0.5, requires_grad=True)
        with Tape() as tape:
            out = lif_scan(drive, leak, th, 3, "hard", SurrogateConfig(2.0), spike_mode)[0]
            ref = weakref.ref(out.data.base)
            loss = out.sum()
            del out
            kept = [c.cell_contents for c in tape.nodes[0].backward.__closure__
                    if isinstance(c.cell_contents, np.ndarray)
                    and c.cell_contents.shape == (3, 4 * 5)]
            assert (ref() is None) == (spike_mode == "hard")
        assert sorted(a.dtype.name for a in kept) == (
            ["bool", "float64"] if spike_mode == "hard" else ["float64", "float64"])
        assert tape.backward(loss)

    def test_tensor_of_an_outer_tape_is_a_leaf_of_an_inner_one(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        with Tape() as outer:
            h = x * 3.0
            with Tape() as inner:
                y = (h * h).sum()
            inner_grads = inner.backward(y)
            z = h.sum()
        assert list(inner_grads) == [h]
        assert inner_grads[h].tolist() == [[6.0, -12.0]]
        assert list(outer.backward(z)) == [x]
        with pytest.raises(EngineError, match="not produced on this tape"):
            outer.backward(y)


class TestLifScan:
    @pytest.mark.parametrize("reset_mode", ["soft", "hard"])
    @pytest.mark.parametrize("spike_mode", ["hard", "soft"])
    def test_chunks_with_carried_state_equal_one_scan(self, reset_mode, spike_mode):
        rng = np.random.default_rng(23)
        drive = rng.normal(0.6, 0.8, size=(7 * 4, 5))
        leak, threshold = Tensor(0.7), Tensor(0.9)
        whole, end = lif_scan(Tensor(drive), leak, threshold, 7, reset_mode, SurrogateConfig(),
                              spike_mode)
        first, state = lif_scan(Tensor(drive[:3 * 4]), leak, threshold, 3, reset_mode,
                                SurrogateConfig(), spike_mode)
        rest, state = lif_scan(Tensor(drive[3 * 4:]), leak, threshold, 4, reset_mode,
                               SurrogateConfig(), spike_mode, state)
        assert np.array_equal(np.concatenate([first.data, rest.data]), whole.data)
        assert all(np.array_equal(a, b) for a, b in zip(state, end))
        assert 0 < whole.data.sum() < whole.size

    @pytest.mark.parametrize("reset_mode", ["soft", "hard"])
    def test_float32_drive_keeps_float32_state(self, reset_mode):
        # the zero start and every carried state stay in the drive's dtype
        drive = np.random.default_rng(5).normal(0.6, 0.8, size=(3 * 4, 5)).astype(np.float32)
        leak, threshold = Tensor(np.array(0.7, np.float32)), Tensor(np.array(0.9, np.float32))
        out, state = lif_scan(Tensor(drive), leak, threshold, 3, reset_mode, SurrogateConfig())
        out2, state = lif_scan(Tensor(drive), leak, threshold, 3, reset_mode, SurrogateConfig(),
                               init=state)
        assert [a.dtype for a in (out.data, out2.data) + state] == [np.float32] * 4
        acc = li_scan(Tensor(drive), leak, Tensor(np.zeros((4, 5), np.float32)))
        assert acc.data.dtype == np.float32

    def test_initial_state_under_a_tape_is_refused(self):
        drive = Tensor(np.ones((2, 3)), requires_grad=True)
        _, state = lif_scan(drive, Tensor(0.5), Tensor(1.0), 2, "soft", SurrogateConfig())
        with Tape(), pytest.raises(EngineError, match="initial state"):
            lif_scan(drive, Tensor(0.5), Tensor(1.0), 2, "soft", SurrogateConfig(), init=state)


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


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's mallopt")
def test_freed_arrays_stay_mapped():
    # Importing the engine keeps arrays below 32 MiB on the heap and freed
    # heap pages mapped, so a second round of the same arrays reuses the
    # pages of the first instead of faulting them in again (about 7.6k minor
    # faults a round without the setting). 3 MiB stays below the 4 MiB at
    # which numpy asks for huge pages.
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones((3 << 20) // 8) for _ in range(10)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[2] < 100, faults
