"""Network-level operations on tensors: activations, convolution, spike
generation with a surrogate backward pass, per-timestep batch normalization,
channel plumbing, and losses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Array, EngineError, ShapeError, Tensor, active_tape, record

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SurrogateConfig:
    """Sharpness of the smooth stand-in derivative for the spike threshold."""

    alpha_surr: float = 2.0

    def __post_init__(self):
        if not self.alpha_surr > 0:
            raise ValueError(f"alpha_surr must be positive, got {self.alpha_surr}")


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


def spike(z: Tensor, cfg: SurrogateConfig, mode: str = "hard") -> Tensor:
    """Threshold crossing: 1 where z > 0, else 0.

    ``hard`` emits exact binary spikes; the backward pass substitutes the
    surrogate derivative. ``soft`` emits the smooth primitive itself so that
    finite-difference gradient checks are well-posed; it is never used in
    training.
    """
    alpha = cfg.alpha_surr
    if mode == "hard":
        out = (z.data > 0).astype(np.float64)
    elif mode == "soft":
        out = soft_spike_forward(z.data, alpha)
    else:
        raise ValueError(f"unknown spike mode {mode!r}")

    def back(g):
        return (g * surrogate_grad(z.data, alpha),)

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

    def back(g):
        gx = np.zeros_like(x.data)
        key = [slice(None)] * x.ndim
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
    of w'*b values in both copies. The columns are rebuilt in the backward
    pass, never kept on the tape.
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
    # padded input, (c, hp, wp, b)
    xp = np.pad(x.data.transpose(1, 2, 3, 0), ((0, 0), (pt, pb), (pl, pr), (0, 0)))

    def columns() -> Array:
        # windows (c, oh, ow, b, kh, kw) -> rows (c, kh, kw), columns (oh, ow, b)
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        return win.transpose(0, 4, 5, 1, 2, 3).reshape(c * kh * kw, oh * ow * b)

    w2 = kernel.data.reshape(oc, -1)
    out = w2 @ columns()
    out += bias.data.reshape(oc, 1)

    def back(g):
        g2 = g.transpose(1, 2, 3, 0).reshape(oc, -1)
        gk = (g2 @ columns().T).reshape(kernel.shape)
        gx = None
        if x.requires_grad:
            gcols = (w2.T @ g2).reshape(c, kh, kw, oh, ow, b)
            gxp = np.zeros_like(xp)
            for k in range(kh):
                for l in range(kw):
                    gxp[:, k:k + oh * stride:stride, l:l + ow * stride:stride] += gcols[:, k, l]
            gx = gxp[:, pt:pt + h, pl:pl + w].transpose(3, 0, 1, 2)
        return gx, gk, g2.sum(axis=1).reshape(bias.shape)

    out = np.ascontiguousarray(out.reshape(oc, oh, ow, b).transpose(3, 0, 1, 2))
    return record((x, kernel, bias), out, back)


def _batch_norm(x: Array, gamma: Array, beta: Array, running_mean: Array,
                running_var: Array, training: bool, momentum: float, eps: float):
    """Normalize one timestep's slice; returns the output and its backward."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    shape = (1, -1) if x.ndim == 2 else (1, -1, 1, 1)
    if training:
        if x.shape[0] < 2:
            raise EngineError("batch normalization in training mode needs batch size >= 2")
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu = running_mean
        var = running_var

    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu.reshape(shape)) * ivar.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    m = x.size // gamma.size

    def back(g):
        gbeta = g.sum(axis=axes)
        ggamma = (g * xhat).sum(axis=axes)
        dxhat = g * gamma.reshape(shape)
        if training:
            gx = (ivar.reshape(shape) / m) * (
                m * dxhat
                - dxhat.sum(axis=axes).reshape(shape)
                - xhat * (dxhat * xhat).sum(axis=axes).reshape(shape)
            )
        else:
            gx = dxhat * ivar.reshape(shape)
        return gx, ggamma, gbeta

    return out, back


def bntt_seq(x: Tensor, gammas: list[Tensor], betas: list[Tensor], running_mean: Array,
             running_var: Array, training: bool, momentum: float = 0.1,
             eps: float = 1e-5) -> Tensor:
    """Batch normalization with statistics and affine parameters owned by each
    timestep, over ``len(gammas)`` consecutive steps as one node.

    ``x`` holds one block of rows per step, [steps * batch, ...]; block t is
    normalized with its own statistics, ``gammas[t]``, ``betas[t]`` and row t
    of the [steps, channels] running buffers, updated in place in training.
    """
    xs = x.data.reshape((len(gammas), -1) + x.shape[1:])
    out = np.empty_like(xs)
    backs = []
    for t, (gamma, beta) in enumerate(zip(gammas, betas)):
        out[t], slice_back = _batch_norm(xs[t], gamma.data, beta.data, running_mean[t],
                                         running_var[t], training, momentum, eps)
        backs.append(slice_back)

    def back(g):
        gs = g.reshape(xs.shape)
        gx = np.empty_like(xs)
        ggammas, gbetas = [], []
        for t, slice_back in enumerate(backs):
            gx[t], ggamma, gbeta = slice_back(gs[t])
            ggammas.append(ggamma)
            gbetas.append(gbeta)
        return (gx.reshape(x.shape), *ggammas, *gbetas)

    return record((x, *gammas, *betas), out.reshape(x.shape), back)


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
    """Fused x @ w + b for 2-d activations."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine shapes disagree: {x.shape} @ {w.shape}")

    out = x.data @ w.data
    out += b.data

    def back(g):
        gx = g @ w.data.T if x.requires_grad else None
        return gx, x.data.T @ g, g.sum(axis=0)

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
    composed primitive ops exactly.
    """
    lk = leak.data
    th = threshold.data
    out = _lif_membrane(membrane.data, drive.data, prev_spikes.data, lk, th, reset_mode)
    if reset_mode == "soft":
        def back(g):
            g_mem = g * lk
            g_prev = -g * th
            g_leak = _sum_to_scalar(g * membrane.data, leak.shape)
            g_th = _sum_to_scalar(-g * prev_spikes.data, threshold.shape)
            return g_mem, g, g_prev, g_leak, g_th

    else:
        def back(g):
            retained = membrane.data * (1.0 - prev_spikes.data)
            g_mem = g * lk * (1.0 - prev_spikes.data)
            g_prev = -g * lk * membrane.data
            g_leak = _sum_to_scalar(g * retained, leak.shape)
            g_th = np.zeros(threshold.shape)
            return g_mem, g, g_prev, g_leak, g_th

    return record((membrane, drive, prev_spikes, leak, threshold), out, back)


def lif_scan(drive: Tensor, leak: Tensor, threshold: Tensor, steps: int, reset_mode: str,
             cfg: SurrogateConfig, spike_mode: str = "hard") -> Tensor:
    """LIF dynamics over a whole sequence as one node; returns the spikes.

    ``drive`` holds ``steps`` consecutive timestep blocks of rows, [steps *
    batch, ...], and the output has the same layout. Each step is
    ``lif_update`` followed by ``normalized_drive`` and ``spike`` with the same
    rounding, starting from zero membrane and spikes. The backward pass is a
    reverse scan that carries the membrane and spike gradients one step back
    and does all elementwise work on one step's slice at a time, so it stays
    in cache; the leak and threshold gradients are accumulated per step.
    """
    if spike_mode not in ("hard", "soft"):
        raise ValueError(f"unknown spike mode {spike_mode!r}")
    lk = leak.data
    th = threshold.data
    alpha = cfg.alpha_surr
    d = drive.data.reshape(steps, -1)
    # membranes are kept for the backward pass only when a tape records it
    u_seq = np.empty_like(d) if active_tape() is not None else None
    o_seq = np.empty_like(d)
    u = o = np.zeros(d.shape[1])
    for t in range(steps):
        u = _lif_membrane(u, d[t], o, lk, th, reset_mode)
        if u_seq is not None:
            u_seq[t] = u
        z = u / th - 1.0
        o_seq[t] = (z > 0) if spike_mode == "hard" else soft_spike_forward(z, alpha)
        o = o_seq[t]

    def back(g):
        gs = g.reshape(d.shape)
        gd = np.empty_like(d)
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
                    dot_reset += np.vdot(g_next, o_seq[t])
                    g_out = g_out - th * g_next
                    carry = lk * g_next
                else:
                    keep = 1.0 - o_seq[t]
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
        return (gd.reshape(drive.shape), np.asarray(g_leak).reshape(leak.shape),
                np.asarray(g_th).reshape(threshold.shape))

    return record((drive, leak, threshold), o_seq.reshape(drive.shape), back)


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

    def back(g):
        gs = g.reshape(d.shape)
        gd = np.empty_like(d)
        ga = None
        g_leak = 0.0
        for t in range(len(d) - 1, -1, -1):
            ga = gs[t] if ga is None else gs[t] + ga * lk
            gd[t] = ga
            g_leak += np.vdot(ga, acc_seq[t - 1] if t else acc_init)
        g_init = (ga * lk).reshape(init.shape) if init.requires_grad else None
        return gd.reshape(drive.shape), np.asarray(g_leak).reshape(leak.shape), g_init

    return record((drive, leak, init), acc_seq.reshape(drive.shape), back)


def delay(x: Tensor, rows: int) -> Tensor:
    """Shift along the leading axis by ``rows``, zero-filled at the start:
    out[i] = x[i - rows]. With timestep blocks of ``batch`` rows, a delay of
    dt steps is a shift by dt * batch rows."""
    n = x.shape[0]
    out = np.zeros_like(x.data)
    out[rows:] = x.data[:n - rows]

    def back(g):
        gx = np.zeros_like(g)
        gx[:n - rows] = g[rows:]
        return (gx,)

    return record((x,), out, back)


def normalized_drive(membrane: Tensor, threshold: Tensor) -> Tensor:
    """Threshold-relative potential fed to the spike function: U / V_th - 1."""
    th = threshold.data
    out = membrane.data / th - 1.0

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

    def back(g):
        return (np.broadcast_to(g.reshape(g.shape + (1,) * len(axes)) / n, x.shape).copy(),)

    return record((x,), x.data.mean(axis=axes), back)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference, composed from primitive ops."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return square(diff).mean()
