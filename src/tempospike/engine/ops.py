"""Network-level operations on tensors: activations, convolution, spike
generation with a surrogate backward pass, per-timestep batch normalization,
channel plumbing, and losses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Array, EngineError, ShapeError, Tensor, active_tape, record

_HALF_PI = math.pi / 2.0

SPIKE_MODES = ("hard", "soft")


@dataclass(frozen=True)
class SurrogateConfig:
    """Sharpness of the smooth stand-in derivative for the spike threshold."""

    alpha_surr: float = 2.0

    def __post_init__(self):
        if not 0 < self.alpha_surr < math.inf:
            raise ValueError(f"alpha_surr must be finite and positive, got {self.alpha_surr}")


def surrogate_grad(z: Array, alpha: float) -> Array:
    """d(spike)/dz stand-in: alpha / (2 * (1 + (pi/2 * alpha * z)^2)).

    Even in z, maximal (= alpha/2) at z = 0, strictly positive, and finite
    for every finite z.
    """
    s = _HALF_PI * alpha * z
    with np.errstate(over="ignore"):  # huge z saturates cleanly to 0
        return alpha / (2.0 * (1.0 + s * s))


def soft_spike_forward(z: Array, alpha: float) -> Array:
    """Smooth primitive whose exact derivative is ``surrogate_grad``."""
    return 0.5 + np.arctan(_HALF_PI * alpha * z) / math.pi


_CHECK_BLOCK = 1 << 15  # values per block of pack_spikes' check: 256 KiB, which stay cached


def pack_spikes(a: Array) -> tuple[Array, float | None]:
    """``a`` as (a == s, s), one byte per value, when every value is +0.0 or
    one finite s > 0, as spikes and dropped-out spikes are; else (a, None).
    ``unpack_spikes`` rebuilds ``a`` bit for bit.

    Per block of leading-axis rows, the check compares the values with s and
    counts those whose bits are not all zero, which a -0.0 or any value but s
    makes larger than the count of matches; a block is read from memory once.
    s is the largest value of the last block, which for spikes is their value
    unless that block is all zero, and then the largest of all values; a
    wrong s fails the count."""
    if not a.ndim or not a.size:
        return a, None
    rows = max(_CHECK_BLOCK * len(a) // a.size, 1)
    s = a[-rows:].max()
    if not s:
        s = a.max()
    if not 0.0 <= s < math.inf:  # NaN fails both
        return a, None
    bits = np.empty_like(a, dtype=bool)
    nonzero = 0
    for i in range(0, len(a), rows):
        np.equal(a[i:i + rows], s, out=bits[i:i + rows])
        nonzero += np.count_nonzero(a[i:i + rows].view(np.int64))
    if nonzero != (np.count_nonzero(bits) if s else 0):
        return a, None
    return bits, s


def unpack_spikes(kept: tuple[Array, float | None]) -> Array:
    """The float array ``pack_spikes`` was given: True * s is s, False * s is +0.0."""
    data, scale = kept
    if scale is None:
        return data
    out = data.astype(np.float64)  # a cast, faster than a mixed-type product
    if scale != 1.0:
        out *= scale
    return out


def spike(membrane: Tensor, threshold: Tensor, cfg: SurrogateConfig,
          mode: str = "hard") -> Tensor:
    """Threshold crossing of the normalized drive z = U / V_th - 1: 1 where
    z > 0, else 0.

    Records ``normalized_drive`` and then a ``spike`` node on z. ``hard``
    emits exact binary spikes; the backward pass substitutes the surrogate
    derivative. ``soft`` emits the smooth primitive itself so that
    finite-difference gradient checks are well-posed; it is never used in
    training. The spike node keeps no z: its backward pass rebuilds z from
    the membrane, which ``normalized_drive`` keeps anyway, and the threshold.
    """
    if mode not in SPIKE_MODES:
        raise ValueError(f"unknown spike mode {mode!r}")
    alpha = cfg.alpha_surr
    z = normalized_drive(membrane, threshold)
    zd = z.data
    out = (zd > 0).astype(zd.dtype) if mode == "hard" else soft_spike_forward(zd, alpha)
    u, th = membrane.data, threshold.data

    def back(g):
        return (g * surrogate_grad(_drive(u, th), alpha),)

    return record((z,), out, back)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def back(g):
        return (g * mask,)

    return record((x,), np.where(mask, x.data, 0.0), back)


def sigmoid(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))

    def back(g):
        return (g * s * (1.0 - s),)

    return record((x,), s, back)


def square(x: Tensor) -> Tensor:
    def back(g):
        return (g * 2.0 * x.data,)

    return record((x,), x.data * x.data, back)


def dropout(x: Tensor, keep: Array, p: float) -> Tensor:
    """Inverted dropout, x * (keep / (1 - p)), for a boolean ``keep`` mask of
    x's shape. The tape keeps the mask at one byte per value, and both passes
    apply it without building a float mask."""
    if keep.shape != x.shape:
        raise ShapeError(f"dropout mask {keep.shape} does not match input {x.shape}")
    scale = 1.0 / (1.0 - p)

    def scaled(a: Array) -> Array:
        # bit for bit a * (keep / (1 - p)): a * True is a, a * False is the
        # signed zero a * 0.0 gives, and True / (1 - p) is ``scale``
        out = a * keep
        out *= scale
        return out

    return record((x,), scaled(x.data), lambda g: (scaled(g),))


def concat(a: Tensor, b: Tensor, axis: int = 1) -> Tensor:
    if a.ndim != b.ndim:
        raise ShapeError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    for ax in range(a.ndim):
        if ax != axis and a.shape[ax] != b.shape[ax]:
            raise ShapeError(f"concat non-channel dims differ: {a.shape} vs {b.shape}")
    na = a.shape[axis]

    def back(g):
        ga, gb = np.split(g, [na], axis=axis)
        return ga, gb

    return record((a, b), np.concatenate((a.data, b.data), axis=axis), back)


def select_channels(x: Tensor, indices, axis: int = 1) -> Tensor:
    """Gather channels by index (repeats allowed); gradients scatter-add back."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("selection must be a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[axis]):
        raise ShapeError(f"selection index out of range for {x.shape[axis]} channels")
    shape = x.shape

    def back(g):
        gx = np.zeros(shape)
        key = [slice(None)] * len(shape)
        rest = np.arange(idx.size)
        while rest.size:
            # one round adds the first remaining pick of every channel, so its
            # channels are distinct and each channel sums its picks in order,
            # as np.add.at would
            picks = rest[np.unique(idx[rest], return_index=True)[1]]
            key[axis] = idx[picks]
            gx[tuple(key)] += np.take(g, picks, axis=axis)
            rest = np.setdiff1d(rest, picks, assume_unique=True)
        return (gx,)

    return record((x,), np.take(x.data, idx, axis=axis), back)


def _same_pad(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-size // stride)
    pad = max((out - 1) * stride + kernel - size, 0)
    lo = pad // 2
    return out, lo, pad - lo


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Cross-correlation with "same" zero padding plus one bias value per output
    channel: output h' = ceil(h/stride).

    Runs as im2col matrix products in channel-major layout. The columns are a
    (c*kh*kw, h'*w'*b) matrix, so the forward pass is one product with the
    (oc, c*kh*kw) kernel, and the backward pass one product each for the
    kernel and column gradients, the latter added back into the padded input
    by a kh*kw loop of slice adds. The batch is the innermost axis of the
    columns and of the padded input, so each window row is one contiguous run
    of w'*b values in both copies. The node keeps the unpadded input, through
    ``pack_spikes``, so spikes take one byte per value, and rebuilds the
    padded input and the columns from it in the backward pass.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/kernel, got {x.shape} and {kernel.shape}")
    b, c, h, w = x.shape
    oc, kc, kh, kw = kernel.shape
    if kc != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {kc}")
    if bias.size != oc:
        raise ShapeError(f"conv2d bias has {bias.size} values for {oc} output channels")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    oh, pt, pb = _same_pad(h, kh, stride)
    ow, pl, pr = _same_pad(w, kw, stride)
    pads = ((0, 0), (pt, pb), (pl, pr), (0, 0))

    def columns(xd: Array) -> Array:
        # padded input (c, hp, wp, b) -> windows (c, oh, ow, b, kh, kw)
        # -> rows (c, kh, kw), columns (oh, ow, b)
        xp = np.pad(xd.transpose(1, 2, 3, 0), pads)
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        return win.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, oh * ow * b)

    w2 = kernel.data.reshape(oc, -1)
    out = w2 @ columns(x.data)
    out += bias.data.reshape(oc, 1)
    kept = pack_spikes(x.data) if active_tape() is not None else (x.data, None)
    need_x = x.requires_grad

    def back(g):
        g2 = g.transpose(1, 2, 3, 0).reshape(oc, -1)
        gk = (g2 @ columns(unpack_spikes(kept)).T).reshape(kernel.shape)
        gx = None
        if need_x:
            gcols = (w2.T @ g2).reshape(c, kh, kw, oh, ow, b)
            gxp = np.zeros((c, pt + h + pb, pl + w + pr, b))
            for k in range(kh):
                for l in range(kw):
                    gxp[:, k:k + oh * stride:stride, l:l + ow * stride:stride] += gcols[:, k, l]
            gx = gxp[:, pt:pt + h, pl:pl + w].transpose(3, 0, 1, 2)
        return gx, gk, g2.sum(axis=1).reshape(bias.shape)

    out = np.ascontiguousarray(out.reshape(oc, oh, ow, b).transpose(3, 0, 1, 2))
    return record((x, kernel, bias), out, back)


def bntt_seq(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Array,
             running_var: Array, start: int, stop: int, training: bool,
             momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalization with statistics and affine parameters owned by each
    timestep, over steps [start, stop) as one node.

    ``x`` holds one block of rows per step, [steps * batch, C(, H, W)]; block
    t is normalized with its own statistics and with row ``start + t`` of the
    [T, C] ``gamma``, ``beta`` and running buffers, the latter updated in place
    in training. The gradients of ``gamma`` and ``beta`` are [T, C] arrays that
    are zero outside rows [start, stop). The backward pass keeps the steps'
    means and inverse deviations and rebuilds x-hat.
    """
    steps = stop - start
    xs = x.data.reshape((steps, -1) + x.shape[1:])
    if training and xs.shape[1] < 2:
        raise EngineError("batch normalization in training mode needs batch size >= 2")
    # per step: reduce over the batch and spatial axes, broadcast per channel
    axes = (1,) + tuple(range(3, xs.ndim))
    shape = (steps, 1, -1) + (1,) * (xs.ndim - 3)
    rows = slice(start, stop)
    if training:
        mu = xs.mean(axis=axes)
        var = xs.var(axis=axes)
        running_mean[rows] *= 1.0 - momentum
        running_mean[rows] += momentum * mu
        running_var[rows] *= 1.0 - momentum
        running_var[rows] += momentum * var
    else:
        # a copy: a later in-place update of the running rows must not move
        # the x-hat a pending backward pass rebuilds
        mu = running_mean[rows].copy()
        var = running_var[rows]
    ivar = (1.0 / np.sqrt(var + eps)).reshape(shape)
    mu = mu.reshape(shape)
    g_rows = gamma.data[rows].reshape(shape)

    def normalized() -> Array:
        xhat = xs - mu
        xhat *= ivar
        return xhat

    out = g_rows * normalized() + beta.data[rows].reshape(shape)
    m = xs[0].size // gamma.shape[1]

    def back(g):
        gs = g.reshape(xs.shape)
        xhat = normalized()
        ggamma, gbeta = np.zeros(gamma.shape), np.zeros(beta.shape)
        gbeta[rows] = gs.sum(axis=axes)
        ggamma[rows] = (gs * xhat).sum(axis=axes)
        dxhat = gs * g_rows
        if training:
            gx = (ivar / m) * (
                m * dxhat
                - dxhat.sum(axis=axes).reshape(shape)
                - xhat * (dxhat * xhat).sum(axis=axes).reshape(shape)
            )
        else:
            gx = dxhat * ivar
        return gx.reshape(x.shape), ggamma, gbeta

    return record((x, gamma, beta), out.reshape(x.shape), back)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over a batch of integer labels."""
    y = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or y.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy expects (batch, classes) logits and flat labels, "
                         f"got {logits.shape} and {y.shape}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = y.shape[0]
    loss = -logp[np.arange(n), y].mean()

    def back(g):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        return (p * (float(g) / n),)

    return record((logits,), np.asarray(loss), back)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-d activations. The node keeps x for the weight
    gradient x.T @ g through ``pack_spikes``, so spikes take one byte per
    value."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine shapes disagree: {x.shape} @ {w.shape}")

    out = x.data @ w.data
    out += b.data
    kept = pack_spikes(x.data) if active_tape() is not None else (x.data, None)
    need_x = x.requires_grad

    def back(g):
        gx = g @ w.data.T if need_x else None
        return gx, unpack_spikes(kept).T @ g, g.sum(axis=0)

    return record((x, w, b), out, back)


def _lif_membrane(membrane: Array, drive: Array, prev_spikes: Array, leak: Array,
                  threshold: Array, reset_mode: str) -> Array:
    """The membrane arithmetic of one step, shared by ``lif_update`` and
    ``lif_scan`` so both round identically."""
    if reset_mode == "soft":
        return leak * membrane + drive - threshold * prev_spikes
    if reset_mode == "hard":
        return leak * (membrane * (1.0 - prev_spikes)) + drive
    raise ValueError(f"unknown reset mode {reset_mode!r}")


def lif_update(membrane: Tensor, drive: Tensor, prev_spikes: Tensor,
               leak: Tensor, threshold: Tensor, reset_mode: str) -> Tensor:
    """One fused membrane step.

    soft: U' = leak * U + drive - threshold * prev_spikes
    hard: U' = leak * (U * (1 - prev_spikes)) + drive
    Fusing the arithmetic keeps the unrolled tape small; gradients match the
    composed primitive ops exactly. The node keeps the membrane U and the
    previous spikes through ``pack_spikes``, so hard spikes and the zero start
    take one byte per value.
    """
    lk = leak.data
    th = threshold.data
    u = membrane.data
    out = _lif_membrane(u, drive.data, prev_spikes.data, lk, th, reset_mode)
    kept = (pack_spikes(prev_spikes.data) if active_tape() is not None
            else (prev_spikes.data, None))
    if reset_mode == "soft":
        def back(g):
            g_mem = g * lk
            g_prev = -g * th
            g_leak = _sum_to_scalar(g * u, leak.shape)
            g_th = _sum_to_scalar(-g * unpack_spikes(kept), threshold.shape)
            return g_mem, g, g_prev, g_leak, g_th

    else:
        def back(g):
            keep = 1.0 - unpack_spikes(kept)
            retained = u * keep
            g_mem = g * lk * keep
            g_prev = -g * lk * u
            g_leak = _sum_to_scalar(g * retained, leak.shape)
            g_th = np.zeros(threshold.shape)
            return g_mem, g, g_prev, g_leak, g_th

    return record((membrane, drive, prev_spikes, leak, threshold), out, back)


def lif_scan(drive: Tensor, leak: Tensor, threshold: Tensor, steps: int, reset_mode: str,
             cfg: SurrogateConfig, spike_mode: str = "hard",
             init: tuple[Array, Array] | None = None) -> tuple[Tensor, tuple[Array, Array]]:
    """LIF dynamics over consecutive steps as one node; returns the spikes and
    the final (membrane, spikes) state.

    ``drive`` holds ``steps`` consecutive timestep blocks of rows, [steps *
    batch, ...], and the output has the same layout. Each step is
    ``lif_update`` followed by ``normalized_drive`` and ``spike`` with the same
    rounding, starting from ``init``, the state a previous call returned, or
    from zero membrane and spikes. The backward pass is a reverse scan that
    carries the membrane and spike gradients one step back and does all
    elementwise work on one step's slice at a time, so it stays in cache; the
    leak and threshold gradients are accumulated per step. It does not reach
    ``init``, so an initial state while a tape records is an error. Under a
    tape the node keeps the membranes and the spikes, hard spikes as a
    boolean array, one byte per value.
    """
    if spike_mode not in SPIKE_MODES:
        raise ValueError(f"unknown spike mode {spike_mode!r}")
    recording = active_tape() is not None
    if init is not None and recording:
        raise EngineError("lif_scan cannot differentiate through an initial state")
    lk = leak.data
    th = threshold.data
    alpha = cfg.alpha_surr
    d = drive.data.reshape(steps, -1)
    # membranes are kept for the backward pass only when a tape records it
    u_seq = np.empty_like(d) if recording else None
    o_seq = np.empty_like(d)
    # hard spikes are made as booleans, which the backward pass keeps: 1.0 -
    # True is 0.0 and a product with True is the other factor
    bits = np.empty(d.shape, dtype=bool) if spike_mode == "hard" else None
    u, o = init if init is not None else (np.zeros(d.shape[1], d.dtype),) * 2
    for t in range(steps):
        u = _lif_membrane(u, d[t], o, lk, th, reset_mode)
        if u_seq is not None:
            u_seq[t] = u
        z = _drive(u, th)
        o_seq[t] = (soft_spike_forward(z, alpha) if bits is None
                    else np.greater(z, 0.0, out=bits[t]))
        o = o_seq[t]
    o_kept = o_seq if bits is None else bits
    rows, drive_shape = d.shape, drive.shape

    def back(g):
        gs = g.reshape(rows)
        gd = np.empty(rows)
        inv_th = 1.0 / th
        g_next = None  # membrane gradient of step t + 1
        g_leak = dot_zu = dot_reset = 0.0
        for t in range(steps - 1, -1, -1):
            u = u_seq[t]
            g_out = gs[t]
            if g_next is not None:
                # step t + 1 read this step's membrane and spikes
                if reset_mode == "soft":
                    g_leak += np.vdot(g_next, u)
                    dot_reset += np.vdot(g_next, o_kept[t])
                    g_out = g_out - th * g_next
                    carry = lk * g_next
                else:
                    keep = 1.0 - o_kept[t]
                    g_leak += np.vdot(g_next, u * keep)
                    carry = lk * g_next
                    g_out = g_out - carry * u
                    carry *= keep
            z = u * inv_th
            z -= 1.0
            gz = g_out * surrogate_grad(z, alpha)
            dot_zu += np.vdot(gz, u)
            g_next = gz * inv_th
            if t < steps - 1:
                g_next += carry
            gd[t] = g_next
        g_th = -dot_zu * inv_th * inv_th - dot_reset
        return (gd.reshape(drive_shape), np.asarray(g_leak).reshape(leak.shape),
                np.asarray(g_th).reshape(threshold.shape))

    # a copy, so that the state does not keep the whole spike sequence alive
    return record((drive, leak, threshold), o_seq.reshape(drive.shape), back), (u, o.copy())


def li_scan(drive: Tensor, leak: Tensor, init: Tensor) -> Tensor:
    """Leaky accumulator over consecutive steps as one node:
    ``acc_t = leak * acc_{t-1} + drive_t`` from ``acc_{-1} = init``.

    ``init`` is one step's state, [batch, ...]; ``drive`` and the output hold
    one such block of rows per step, laid out as in ``lif_scan``.
    """
    if drive.shape[1:] != init.shape[1:] or drive.shape[0] % init.shape[0]:
        raise ShapeError(f"li_scan drive {drive.shape} is not whole steps of {init.shape}")
    lk = leak.data
    d = drive.data.reshape(drive.shape[0] // init.shape[0], -1)
    acc_seq = np.empty_like(d)
    acc = acc_init = init.data.reshape(-1)
    for t in range(len(d)):
        acc = acc_seq[t] = lk * acc + d[t]
    rows, drive_shape = d.shape, drive.shape

    def back(g):
        gs = g.reshape(rows)
        gd = np.empty(rows)
        ga = None
        g_leak = 0.0
        for t in range(rows[0] - 1, -1, -1):
            ga = gs[t] if ga is None else gs[t] + ga * lk
            gd[t] = ga
            g_leak += np.vdot(ga, acc_seq[t - 1] if t else acc_init)
        g_init = (ga * lk).reshape(init.shape) if init.requires_grad else None
        return gd.reshape(drive_shape), np.asarray(g_leak).reshape(leak.shape), g_init

    return record((drive, leak, init), acc_seq.reshape(drive.shape), back)


def window(blocks: Sequence[Tensor], start: int, rows: int) -> Tensor:
    """Rows [start, start + rows) of ``blocks`` laid end to end along the
    leading axis, with zeros before row 0, so ``start`` may be negative. With
    timestep blocks of ``batch`` rows, a window of steps [lo, hi) over chunks
    that begin at step 0 is ``start = lo * batch``, ``rows = (hi - lo) *
    batch``. A window that is exactly one block is that block itself and adds
    nothing to a tape; any other is a copy, in the first block's dtype, whose
    backward pass hands each block the gradient of its rows."""
    lows = [0]
    for b in blocks:
        lows.append(lows[-1] + b.shape[0])
    stop = start + rows
    if not blocks or stop > lows[-1]:
        raise ShapeError(f"window rows [{start}, {stop}) pass the end of {lows[-1]} rows")
    for b, lo in zip(blocks, lows):
        if (lo, b.shape[0]) == (start, rows):
            return b
    # per block, the rows [a, z) of the laid-out blocks that the window covers
    spans = [(max(start, lo), min(stop, hi)) for lo, hi in zip(lows, lows[1:])]
    out = np.zeros((rows,) + blocks[0].shape[1:], blocks[0].data.dtype)
    for b, lo, (a, z) in zip(blocks, lows, spans):
        if a < z:
            out[a - start:z - start] = b.data[a - lo:z - lo]

    shapes = [b.shape for b in blocks]

    def back(g):
        grads = tuple(np.zeros(shape) for shape in shapes)
        for gb, lo, (a, z) in zip(grads, lows, spans):
            if a < z:
                gb[a - lo:z - lo] = g[a - start:z - start]
        return grads

    return record(tuple(blocks), out, back)


def _drive(membrane: Array, threshold: Array) -> Array:
    return membrane / threshold - 1.0


def normalized_drive(membrane: Tensor, threshold: Tensor) -> Tensor:
    """Threshold-relative potential fed to the spike function: U / V_th - 1.
    The node keeps the membrane."""
    th = threshold.data
    out = _drive(membrane.data, th)

    def back(g):
        g_mem = g / th
        g_th = _sum_to_scalar(-g * membrane.data / (th * th), threshold.shape)
        return g_mem, g_th

    return record((membrane, threshold), out, back)


def _sum_to_scalar(grad: Array, shape: tuple[int, ...]) -> Array:
    return np.asarray(grad.sum()).reshape(shape)


def spatial_mean(x: Tensor) -> Tensor:
    """Mean over every axis after the first two: (b, c, ...) -> (b, c)."""
    if x.ndim <= 2:
        return x
    axes = tuple(range(2, x.ndim))
    n = int(np.prod([x.shape[a] for a in axes]))
    shape = x.shape

    def back(g):
        return (np.broadcast_to(g.reshape(g.shape + (1,) * len(axes)) / n, shape).copy(),)

    return record((x,), x.data.mean(axis=axes), back)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference, composed from primitive ops."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return square(diff).mean()
