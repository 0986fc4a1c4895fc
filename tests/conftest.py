"""Shared test helpers: the central finite-difference gradient oracle, a
generator of random small architectures for gradient sweeps, and the
hypothesis settings profile of every property test."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from tempospike.engine import SurrogateConfig, Tape, Tensor, mse
from tempospike.graph import ArchSpec, LayerSpec, Network, TSkip, run_forward
from tempospike.trainer import readout_logits


# every property test draws the same examples on every run, with no time
# limit per example and no example database carried between runs
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def numeric_grad(f, tensor: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued callable w.r.t. one
    tensor's entries. The callable must recompute the forward pass."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray, tiny: float = 1e-6) -> float:
    """Max-norm relative error; values below ``tiny`` on both sides count as a
    match, since central differences carry ~1e-10 of roundoff noise and cannot
    distinguish such gradients from exact zeros (e.g. biases that a batch-norm
    mean removes)."""
    amax = float(np.abs(analytic).max(initial=0.0))
    nmax = float(np.abs(numeric).max(initial=0.0))
    if amax <= tiny and nmax <= tiny:
        return 0.0
    return float(np.abs(analytic - numeric).max(initial=0.0) / max(amax, nmax))


FD_NOISE_FLOOR = 5e-6  # central differences at eps=1e-5 cannot resolve below
# this: float64 roundoff in the loss, amplified up to ~300x by near-degenerate
# batch statistics, divides by 2*eps


def check_grads(build_loss, params: list[Tensor], tol: float, eps: float = 1e-5) -> None:
    """Assert analytic gradients match central finite differences for every
    parameter: max |a - n| <= noise floor + tol * max(|a|, |n|)."""
    with Tape() as tape:
        loss = build_loss()
    grads = tape.backward(loss)
    for p in params:
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        analytic = np.asarray(analytic)
        numeric = numeric_grad(lambda: build_loss().item(), p, eps=eps)
        diff = float(np.abs(analytic - numeric).max(initial=0.0))
        scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
        assert diff <= FD_NOISE_FLOOR + tol * scale, (
            f"gradient mismatch for {p.name or p.shape}: |a-n| {diff:.3e} vs "
            f"gradient scale {scale:.3e} (tol {tol})")


def random_small_spec(rng: np.random.Generator) -> ArchSpec:
    """Tiny random architecture mixing dense/conv layers, merges, and
    normalization; sized so full finite-difference sweeps stay cheap."""
    T = int(rng.integers(2, 6))
    use_conv = bool(rng.random() < 0.35)
    layers: list[LayerSpec] = []
    if use_conv:
        input_shape = (int(rng.integers(1, 3)), 5, 5)
        layers.append(LayerSpec(kind="conv2d", out=int(rng.integers(1, 4)),
                                kernel=3, stride=int(rng.integers(1, 3))))
        layers.append(LayerSpec(kind="dense", out=int(rng.integers(3, 6))))
    else:
        input_shape = (int(rng.integers(4, 8)),)
        layers.append(LayerSpec(kind="dense", out=int(rng.integers(3, 7))))
        layers.append(LayerSpec(kind="dense", out=int(rng.integers(3, 7))))
        if rng.random() < 0.5:
            layers.append(LayerSpec(kind="dense", out=int(rng.integers(3, 6))))
    layers.append(LayerSpec(kind="dense", out=3, activation="li"))

    depth = len(layers)
    edges = []
    if rng.random() < 0.8:
        origin = int(rng.integers(0, depth + 1))
        dest = int(rng.integers(1, depth + 1))
        if origin != dest:
            backward = origin > dest
            lo = 1 if backward else 0
            if T - 1 >= lo:
                dt = int(rng.integers(lo, T))
                merge = "concat" if rng.random() < 0.6 else "add"
                # conv destinations need matching spatial payloads, which a
                # random origin rarely provides; keep those dense-only
                if layers[dest - 1].kind == "dense":
                    edges.append(TSkip(origin=origin, dest=dest, delta_t=dt, merge=merge,
                                       alpha=bool(rng.random() < 0.4)))
    return ArchSpec(
        input_shape=input_shape,
        layers=tuple(layers),
        tskips=tuple(edges),
        T=T,
        bntt=bool(rng.random() < 0.4),
        reset="hard" if rng.random() < 0.3 else "soft",
        threshold_init=float(rng.uniform(0.5, 1.5)),
    )


def spec_loss_builder(spec: ArchSpec, seed: int, batch: int = 2):
    """Network, input, target, and a soft-forward loss closure for FD checks."""
    net = Network.build(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = (rng.random((spec.T, batch) + spec.input_shape) < 0.4).astype(np.float64)
    out_units = spec.layers[-1].out
    target = Tensor(rng.normal(size=(batch, out_units)))
    surr = SurrogateConfig(2.0)

    def build_loss():
        result = run_forward(net, x, mode="train", spike_mode="soft", surr=surr)
        return mse(readout_logits(result.outputs), target)

    return net, build_loss


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
