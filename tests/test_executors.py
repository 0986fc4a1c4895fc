"""The chunked executor against the time-major one, which executor runs
when, and which gradients a backward pass returns."""

import contextlib

import numpy as np
import pytest

from tempospike import graph
from tempospike.engine import SurrogateConfig, Tape, Tensor, mse
from tempospike.graph import ArchSpec, LayerSpec, Network, TSkip, run_forward, validate
from tempospike.trainer import readout_logits

SURR = SurrogateConfig(2.0)
# Batched and per-step matrix products may round differently (up to ~6e-14
# relative on OpenBLAS for some shapes); everything else is the same
# arithmetic, so spikes match exactly and real values to this tolerance.
REL_TOL = 1e-10


def random_spec(rng: np.random.Generator, backward: bool = False) -> ArchSpec:
    """Small graph mixing dense/conv layers, spiking and non-spiking
    activations, merges, blends, delays, BNTT and resets; forward edges only,
    or with one more edge pointing backward."""
    T = int(rng.integers(2, 7)) + 3 * backward

    def act():
        return str(rng.choice(["lif", "lif", "relu", "linear"]))

    if rng.random() < 0.4:
        input_shape = (int(rng.integers(1, 3)), 6, 6)
        layers = [LayerSpec("conv2d", int(rng.integers(2, 5)), kernel=3, stride=1,
                            activation=act()),
                  # a backward edge into a conv layer needs the same map size
                  LayerSpec("conv2d", int(rng.integers(2, 5)), kernel=3,
                            stride=1 if backward else int(rng.integers(1, 3)),
                            activation=act()),
                  LayerSpec("dense", int(rng.integers(3, 7)), activation=act())]
    else:
        input_shape = (int(rng.integers(3, 8)),)
        layers = [LayerSpec("dense", int(rng.integers(3, 9)), activation=act())
                  for _ in range(int(rng.integers(2, 4)))]
    layers.append(LayerSpec("dense", 3, activation="li"))
    depth = len(layers)
    base = dict(input_shape=input_shape, layers=tuple(layers), T=T,
                bntt=bool(rng.random() < 0.4), reset=str(rng.choice(["soft", "hard"])),
                threshold_init=float(rng.uniform(0.3, 1.0)))
    while True:
        edges = []
        for _ in range(int(rng.integers(1, 3))):
            origin = int(rng.integers(0, depth))
            edges.append(TSkip(origin=origin, dest=int(rng.integers(origin + 1, depth + 1)),
                               delta_t=int(rng.integers(0, T)),
                               merge=str(rng.choice(["concat", "add"])),
                               alpha=bool(rng.random() < 0.4),
                               alpha_init=float(rng.normal())))
        if backward:
            dest = int(rng.integers(1, depth))
            origin = dest + 1 if rng.random() < 0.5 else int(rng.integers(dest + 1, depth + 1))
            edges.append(TSkip(origin=origin, dest=dest,
                               delta_t=int(rng.integers(1, T)),
                               merge=str(rng.choice(["concat", "add"])),
                               alpha=bool(rng.random() < 0.3),
                               alpha_init=float(rng.normal())))
        spec = ArchSpec(tskips=tuple(edges), **base)
        if not validate(spec):
            return spec


def _close(a: np.ndarray, b: np.ndarray, floor: float = 0.0) -> bool:
    """Equal to REL_TOL of the larger magnitude, or of ``floor`` if larger."""
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), floor)
    return float(np.abs(a - b).max(initial=0.0)) <= REL_TOL * scale


def _traced(execute, net, x, target, training):
    layers = {l: None for l in range(1, net.spec.depth + 1)}
    with Tape() as tape:
        result = execute(net, x, layers, training)
        loss = mse(readout_logits(result.outputs), target)
    return result, layers, tape.backward(loss)


def _time_major(net, x, collect, training):
    return graph._run_time_major(net, x, training, "hard", SURR, 0.0, None, collect)


def _chunked(net, x, collect, training):
    return run_forward(net, x, mode="train" if training else "eval", surr=SURR,
                       collect=collect)


def test_layer_major_matches_time_major():
    rng = np.random.default_rng(2024)
    seen = {k: 0 for k in ("conv", "bntt", "alpha", "concat", "add", "dt0", "hard",
                           "soft", "relu", "linear", "spikes")}
    for trial in range(30):
        spec = random_spec(rng)
        seen["conv"] += spec.layers[0].kind == "conv2d"
        seen["bntt"] += spec.bntt
        seen[spec.reset] += 1
        for e in spec.tskips:
            seen["alpha"] += e.alpha
            seen[e.merge] += 1
            seen["dt0"] += e.delta_t == 0
        for layer in spec.layers:
            if layer.activation in seen:
                seen[layer.activation] += 1
        batch = 3
        x = (rng.random((spec.T, batch) + spec.input_shape) < 0.5).astype(np.float64)
        target = Tensor(rng.normal(size=(batch, 3)))
        # one network per executor: train mode updates the BNTT statistics
        ref_net, net = Network.build(spec, seed=trial), Network.build(spec, seed=trial)
        for training in (False, True):
            ref, ref_layers, ref_grads = _traced(_time_major, ref_net, x, target, training)
            got, got_layers, got_grads = _traced(_chunked, net, x, target, training)
            tag = f"trial {trial} ({'train' if training else 'eval'})"
            assert got.stats == ref.stats, tag
            for l, layer in enumerate(spec.layers, start=1):
                if layer.activation == "lif":
                    assert np.array_equal(got_layers[l], ref_layers[l]), f"{tag}: L{l} spikes"
                    seen["spikes"] += int(ref_layers[l].sum() > 0)
                else:
                    assert _close(got_layers[l], ref_layers[l]), f"{tag}: L{l} output"
            assert _close(got.outputs.data, ref.outputs.data), tag
            assert set(got_grads) == set(net.params.values()), tag
            # a bias in front of training-mode BNTT has a zero gradient, so
            # both sides hold rounding noise: measure it on the largest gradient
            floor = max(float(np.abs(g).max()) for g in ref_grads.values())
            for name, p in net.params.items():
                assert _close(got_grads[p], ref_grads[ref_net.params[name]], floor), \
                    f"{tag}: {name}"
            for name, arr in net.state.items():
                assert _close(arr, ref_net.state[name]), f"{tag}: {name}"
    assert all(n >= 3 for n in seen.values()), seen


def test_conv_readout_sequence_matches():
    # a conv readout keeps its spatial dims through the sequence reshape
    spec = ArchSpec(input_shape=(2, 4, 4),
                    layers=(LayerSpec("conv2d", 3, kernel=3, stride=1),
                            LayerSpec("conv2d", 2, kernel=1, stride=1, activation="li")),
                    tskips=(TSkip(0, 2, 1, merge="concat"),), T=4)
    net = Network.build(spec, seed=1)
    x = (np.random.default_rng(3).random((4, 2, 2, 4, 4)) < 0.5).astype(np.float64)
    ref = graph._run_time_major(net, x, False, "hard", SURR, 0.0, None, None)
    got = run_forward(net, x, surr=SURR)
    assert got.outputs.shape == (4, 2, 2, 4, 4)
    assert _close(got.outputs.data, ref.outputs.data)


def test_tape_free_chunks_match_time_major():
    rng = np.random.default_rng(77)
    seen = {k: 0 for k in ("conv", "conv_back", "bntt", "blend", "concat", "add", "hard",
                           "soft", "ragged", "several", "spikes")}
    for trial in range(32):
        spec = random_spec(rng, backward=True)
        steps = graph._chunk_steps(spec)
        assert 1 <= steps < spec.T
        back = [e for e in spec.tskips if not e.is_forward]
        seen["conv"] += spec.layers[0].kind == "conv2d"
        seen["bntt"] += spec.bntt
        seen[spec.reset] += 1
        seen["blend"] += any(e.alpha for e in back)
        seen["conv_back"] += any(spec.layers[e.dest - 1].kind == "conv2d" for e in back)
        seen["ragged"] += spec.T % steps != 0
        seen["several"] += steps > 1
        for e in spec.tskips:
            seen[e.merge] += 1
        batch = 3
        x = (rng.random((spec.T, batch) + spec.input_shape) < 0.5).astype(np.float64)
        ref_net, net = Network.build(spec, seed=trial), Network.build(spec, seed=trial)
        for training in (False, True):
            ref_layers = {l: None for l in range(1, spec.depth + 1)}
            got_layers = dict(ref_layers)
            ref = graph._run_time_major(ref_net, x, training, "hard", SURR, 0.0, None,
                                        ref_layers)
            got = run_forward(net, x, mode="train" if training else "eval", surr=SURR,
                              collect=got_layers)
            tag = f"trial {trial} ({'train' if training else 'eval'}, {steps} steps)"
            assert got.stats == ref.stats, tag
            for l, layer in enumerate(spec.layers, start=1):
                if layer.activation == "lif":
                    assert np.array_equal(got_layers[l], ref_layers[l]), f"{tag}: L{l} spikes"
                    seen["spikes"] += int(ref_layers[l].sum() > 0)
                else:
                    assert _close(got_layers[l], ref_layers[l]), f"{tag}: L{l} output"
            assert _close(got.outputs.data, ref.outputs.data), tag
            for name, arr in net.state.items():
                assert _close(arr, ref_net.state[name]), f"{tag}: {name}"
    assert all(n >= 3 for n in seen.values()), seen


def test_executor_is_chosen_by_edge_direction(monkeypatch):
    calls = []
    for name in ("_run_chunked", "_run_time_major"):
        original = getattr(graph, name)
        monkeypatch.setattr(graph, name, lambda *a, _o=original, _n=name, **k:
                            calls.append(_n) or _o(*a, **k))
    x = np.zeros((4, 2, 5))
    for edges in ((), (TSkip(0, 2, 1),), (TSkip(2, 1, 1),)):
        spec = ArchSpec(input_shape=(5,), layers=(LayerSpec("dense", 4),
                                                  LayerSpec("dense", 3, activation="li")),
                        tskips=edges, T=4)
        net = Network.build(spec, seed=0)
        run_forward(net, x)
        with Tape():
            run_forward(net, x, mode="train")
    assert calls == ["_run_chunked"] * 5 + ["_run_time_major"]


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("tskips", [(), (TSkip(0, 2, 1),), (TSkip(2, 1, 1),), (TSkip(3, 1, 2),)])
def test_collect_hands_back_the_input_for_layer_0(tskips, taped):
    # one chunk, several chunks, and time-major under a tape
    spec = ArchSpec(input_shape=(5,), layers=(LayerSpec("dense", 4), LayerSpec("dense", 4),
                                              LayerSpec("dense", 3, activation="li")),
                    tskips=tskips, T=6)
    x = (np.random.default_rng(1).random((6, 2, 5)) < 0.5).astype(np.float64)
    collect = {0: None, 2: None}
    with Tape() if taped else contextlib.nullcontext():
        run_forward(Network.build(spec, seed=0), x, collect=collect)
    assert collect[0] is x
    assert collect[2].shape == (6, 2, 4)

def test_chunk_steps_come_from_backward_edges():
    layers = (LayerSpec("dense", 4), LayerSpec("dense", 4), LayerSpec("dense", 3, activation="li"))

    def steps(*edges):
        return graph._chunk_steps(ArchSpec(input_shape=(5,), layers=layers, tskips=edges, T=9))

    assert steps() == 9
    assert steps(TSkip(0, 2, 1), TSkip(1, 3, 0)) == 9
    assert steps(TSkip(3, 1, 4), TSkip(2, 1, 6), TSkip(0, 2, 2)) == 4
    assert steps(TSkip(3, 1, 4), TSkip(3, 2, 5, alpha=True)) == 1


@pytest.mark.parametrize("tskips", [
    (TSkip(0, 2, 3, merge="concat", alpha=True),),
    (TSkip(3, 1, 2, merge="add", alpha=True),),
])
def test_backward_returns_exactly_the_parameters(tskips):
    spec = ArchSpec(input_shape=(5,), layers=(LayerSpec("dense", 6), LayerSpec("dense", 6),
                                              LayerSpec("dense", 3, activation="li")),
                    tskips=tskips, T=5, bntt=True)
    net = Network.build(spec, seed=4)
    x = (np.random.default_rng(5).random((5, 4, 5)) < 0.5).astype(np.float64)
    with Tape() as tape:
        result = run_forward(net, x, mode="train", surr=SURR)
        loss = mse(readout_logits(result.outputs), Tensor(np.ones((4, 3))))
    grads = tape.backward(loss)
    assert set(map(id, grads)) == {id(p) for p in net.params.values()}
