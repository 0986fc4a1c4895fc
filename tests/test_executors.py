"""The chunked executor against a plain time-major unroll
(``step_reference``), the chunk size each pass takes, the operations a taped
backward-edge graph records, and which gradients a backward pass returns."""

import contextlib
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from step_reference import run_steps

from tempospike import graph, neuron, trainer
from tempospike.data import Dataset
from tempospike.engine import SurrogateConfig, Tape, Tensor, mse, ops, tensor
from tempospike.graph import (ArchSpec, LayerSpec, Network, TSkip, from_shorthand, run_forward,
                              validate)
from tempospike.trainer import TrainConfig, readout_logits

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


def _assert_same_stats(got: graph.SpikeStats, ref: graph.SpikeStats, tag: str) -> None:
    assert got.samples == ref.samples, tag
    assert list(got.counts) == list(ref.counts), tag
    for l, counts in ref.counts.items():
        assert np.array_equal(got.counts[l], counts), f"{tag}: L{l} counts"


def _traced(execute, net, x, target, training):
    layers = {l: None for l in range(1, net.spec.depth + 1)}
    with Tape() as tape:
        result = execute(net, x, layers, training)
        loss = mse(readout_logits(result.outputs), target)
    return result, layers, tape.backward(loss), tape.grad_norm


def _time_major(net, x, collect, training):
    return run_steps(net, x, mode="train" if training else "eval", surr=SURR, collect=collect)


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
            ref, ref_layers, ref_grads, _ = _traced(_time_major, ref_net, x, target, training)
            got, got_layers, got_grads, _ = _traced(_chunked, net, x, target, training)
            tag = f"trial {trial} ({'train' if training else 'eval'})"
            _assert_same_stats(got.stats, ref.stats, tag)
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
    ref = run_steps(net, x, surr=SURR)
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
            ref = run_steps(ref_net, x, mode="train" if training else "eval", surr=SURR,
                            collect=ref_layers)
            got = run_forward(net, x, mode="train" if training else "eval", surr=SURR,
                              collect=got_layers)
            tag = f"trial {trial} ({'train' if training else 'eval'}, {steps} steps)"
            _assert_same_stats(got.stats, ref.stats, tag)
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


ONE_STEP_SPECS = {
    "add back edge dt=1, BNTT": graph.mlp_spec(
        [5, 6, 6, 3], T=5, tskips=[TSkip(2, 1, 1, merge="add")], bntt=True),
    "blended concat back edge, hard reset": graph.mlp_spec(
        [5, 6, 6, 3], T=5, reset="hard", tskips=[TSkip(2, 1, 2, alpha=True, alpha_init=0.3)]),
    "conv back edge dt=1, BNTT": from_shorthand(
        "2x6x6-3c3s1-3c4s1-3", T=4, tskips=[TSkip(2, 1, 1)], bntt=True),
}
# sha256 of each tape-free one-step pass's outputs, spike counts, collected
# layers 0..depth and BNTT running statistics, recorded from the per-step
# lif_step chain, whose values lif_scan repeats bit for bit
ONE_STEP_DIGESTS = {
    ("add back edge dt=1, BNTT", "eval", "hard", "float64"):
        "4f0aafc6b7658d04a71d853a041f7961ebd8e48925994a14ce5c2dc3a0721b76",
    ("add back edge dt=1, BNTT", "eval", "soft", "float64"):
        "667a9e3d4be66cd6fb01f4337ab34b199049b5170469eaccdbe67101638ac5df",
    ("add back edge dt=1, BNTT", "eval", "hard", "float32"):
        "4310c73f5f5ca09355cc71460b912d32e600382ad30e5819030eeae688e9e2eb",
    ("add back edge dt=1, BNTT", "eval", "soft", "float32"):
        "767fbbb440a032af26f5ecd431d09025d27d7991e101ce7b6b890ae053cfe99e",
    ("add back edge dt=1, BNTT", "train", "hard", "float64"):
        "a21cd29650dcaf28e0ed639de25e16cafd8a43048ec7c58229c23fa286684d8e",
    ("add back edge dt=1, BNTT", "train", "soft", "float64"):
        "3a7611fcd0c45e6a620db3a200373076c3b7680d63b8d60dfaa5e84af4969438",
    ("blended concat back edge, hard reset", "eval", "hard", "float64"):
        "87fc86389984e3a8c42bd2aea80b67f69def1bfe07011a5a086e04e175ac4fc4",
    ("blended concat back edge, hard reset", "eval", "soft", "float64"):
        "0684d3ec2df07b47b9d5c1e56cec2121b2087a12bf77689920b0fcc05758ea6e",
    ("blended concat back edge, hard reset", "eval", "hard", "float32"):
        "fd90b05be1055d6eb204f6c79d98ab29403f117a8198b564b2973b28cc3646a7",
    ("blended concat back edge, hard reset", "eval", "soft", "float32"):
        "032df7da21479a8503970c01d5a9f0c3d3a45143e2bd83b688f6b9ae627d2902",
    ("blended concat back edge, hard reset", "train", "hard", "float64"):
        "5aac2f7be55e3e393e724b05be4353158818c80f747cf36c1e7577c0cc11a1bc",
    ("blended concat back edge, hard reset", "train", "soft", "float64"):
        "f82fb06cfd999162e0d224eac7a6344425bfcd70bf47e61baff6751b4aa8c804",
    ("conv back edge dt=1, BNTT", "eval", "hard", "float64"):
        "a8929f00955478dac3de6b6e97c2d753660432582c089e6cfc38c4aea43c5c69",
    ("conv back edge dt=1, BNTT", "eval", "soft", "float64"):
        "85f42e431ea594a04e22bb475116627795fdd2b81eb55af5be54ad8789172b37",
    ("conv back edge dt=1, BNTT", "eval", "hard", "float32"):
        "a576db37635e79a3290d16dbc7ee9523b24b4487a3d70d678a780929c5abd3f0",
    ("conv back edge dt=1, BNTT", "eval", "soft", "float32"):
        "ffb3e7eb4989caa50b6d04e23719525006890e3ec0435fb53e01cf9a9b52c622",
    ("conv back edge dt=1, BNTT", "train", "hard", "float64"):
        "8861cc4ee2b4678e0348c84f9da5be3510a78a75bb3bb21ec245ed70254dd357",
    ("conv back edge dt=1, BNTT", "train", "soft", "float64"):
        "c48e9b53dc230450906981266ecc88bc66eade2ae16fd79724b0af0b21388761",
}


@pytest.mark.parametrize("case", sorted(ONE_STEP_DIGESTS), ids=" / ".join)
def test_tape_free_one_step_chunks_run_lif_scan_with_the_chain_values(monkeypatch, case):
    # without a tape, one-step chunks carry LIF state through lif_scan's
    # arrays and join their outputs by window, to the bit of the per-step chain
    name, mode, spike_mode, dtype = case
    spec = ONE_STEP_SPECS[name]
    assert graph._chunk_steps(spec) == 1

    def never(*args, **kwargs):
        raise AssertionError("a tape-free pass ran the per-step chain")

    for module, attr in ((graph, "lif_step"), (graph, "stack"), (neuron, "lif_update"),
                         (neuron, "spike"), (ops, "lif_update"), (ops, "normalized_drive"),
                         (ops, "spike")):
        monkeypatch.setattr(module, attr, never)
    net = Network.build(spec, seed=3)
    x = np.random.default_rng(5).random((spec.T, 4) + spec.input_shape) < 0.4
    layers = {l: None for l in range(spec.depth + 1)}
    result = run_forward(net.float32() if dtype == "float32" else net, x, mode=mode,
                         spike_mode=spike_mode, dropout=0.2, rng=np.random.default_rng(7),
                         collect=layers)
    digest = hashlib.sha256()
    for a in ([result.outputs.data] + [result.stats.counts[l] for l in sorted(result.stats.counts)]
              + [layers[l] for l in sorted(layers)] + [net.state[k] for k in sorted(net.state)]):
        digest.update(a.tobytes())
    assert digest.hexdigest() == ONE_STEP_DIGESTS[case]


def test_taped_backward_edges_match_time_major_exactly():
    # one-step chunks record the reference's operations in its order, so
    # outputs, gradients and the whole-sweep norm agree to the bit
    rng = np.random.default_rng(31)
    seen = {k: 0 for k in ("conv_back", "bntt", "blend", "concat", "add", "spikes")}
    for trial in range(16):
        spec = random_spec(rng, backward=True)
        back = [e for e in spec.tskips if not e.is_forward]
        seen["bntt"] += spec.bntt
        seen["blend"] += any(e.alpha for e in back)
        seen["conv_back"] += any(spec.layers[e.dest - 1].kind == "conv2d" for e in back)
        for e in spec.tskips:
            seen[e.merge] += 1
        x = (rng.random((spec.T, 3) + spec.input_shape) < 0.5).astype(np.float64)
        target = Tensor(rng.normal(size=(3, 3)))
        ref_net, net = Network.build(spec, seed=trial), Network.build(spec, seed=trial)
        ref, ref_layers, ref_grads, ref_norm = _traced(_time_major, ref_net, x, target, True)
        got, got_layers, got_grads, norm = _traced(_chunked, net, x, target, True)
        tag = f"trial {trial}"
        _assert_same_stats(got.stats, ref.stats, tag)
        for l in got_layers:
            assert np.array_equal(got_layers[l], ref_layers[l]), f"{tag}: L{l}"
        seen["spikes"] += int(any(got_layers[l].any() for l, layer in
                                  enumerate(spec.layers, start=1) if layer.activation == "lif"))
        assert np.array_equal(got.outputs.data, ref.outputs.data), tag
        for name, p in net.params.items():
            assert np.array_equal(got_grads[p], ref_grads[ref_net.params[name]]), \
                f"{tag}: {name}"
        assert norm == ref_norm, tag
    assert all(n >= 3 for n in seen.values()), seen


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("tskips, tape_free, under_tape", [
    ((), [6], [6]),
    ((TSkip(0, 2, 1),), [6], [6]),
    ((TSkip(3, 1, 4), TSkip(2, 1, 5)), [4, 2], [1] * 6),
    ((TSkip(3, 2, 2, alpha=True),), [1] * 6, [1] * 6),
], ids=["no edge", "forward edge", "backward edges", "blended backward edge"])
def test_chunk_size_is_one_under_a_tape_with_a_backward_edge(monkeypatch, taped, tskips,
                                                             tape_free, under_tape):
    # tape-free, the spec sets C; under a tape, a backward edge makes it 1
    lengths = []
    original = graph._layer_sequence

    def layer_sequence(net, l, prev, history, s, e, *rest):
        if l == 1:
            lengths.append(e - s)
        return original(net, l, prev, history, s, e, *rest)

    monkeypatch.setattr(graph, "_layer_sequence", layer_sequence)
    spec = ArchSpec(input_shape=(5,), layers=(LayerSpec("dense", 4), LayerSpec("dense", 4),
                                              LayerSpec("dense", 3, activation="li")),
                    tskips=tskips, T=6)
    with Tape() if taped else contextlib.nullcontext():
        run_forward(Network.build(spec, seed=0), np.zeros((6, 2, 5)), mode="train")
    assert lengths == (under_tape if taped else tape_free)


def test_taped_backward_edge_records_one_lif_step_per_layer_and_step(monkeypatch):
    # what ``Tape.grad_norm``, and so gradient clipping, sums over: a conv
    # graph with a backward edge, BNTT and dropout records lif_update,
    # normalized_drive and spike once per LIF layer and step, never a
    # lif_scan, and trains to the reference's losses bit for bit
    spec = from_shorthand("2x6x6-3c4s2-3c4s1-3c4s1-3", T=6,
                          tskips=[TSkip(origin=3, dest=2, delta_t=2)], bntt=True, reset="hard")
    rng = np.random.default_rng(8)
    ds = Dataset((rng.random((12, 6, 2, 6, 6)) < 0.3).astype(np.float64),
                 rng.integers(0, 3, size=12))
    cfg = TrainConfig(epochs=2, batch_size=4, lr_init=1e-2, dropout=0.2, bntt=True,
                      loss="cross_entropy", seed=5)
    with Tape() as tape:
        run_forward(Network.build(spec, seed=0), np.moveaxis(ds.inputs[:4], 1, 0),
                    mode="train", dropout=0.2, rng=np.random.default_rng(0))
    kinds = Counter(node.backward.__qualname__.split(".")[0] for node in tape.nodes)
    assert kinds["lif_update"] == kinds["normalized_drive"] == kinds["spike"] == 3 * 6
    assert "lif_scan" not in kinds

    def step_losses(forward):
        losses = []
        original = trainer.loss

        def loss(*args):
            out = original(*args)
            losses.append(out.item())
            return out

        monkeypatch.setattr(trainer, "run_forward", forward)
        monkeypatch.setattr(trainer, "loss", loss)
        trainer.train(spec, ds, cfg)
        monkeypatch.undo()
        return losses

    got, ref = step_losses(run_forward), step_losses(run_steps)
    assert len(got) == 6 and len(set(got)) == 6
    assert got == ref


def _kept_input(ins, out):
    """The input that ``conv2d`` (unpadded) and ``affine`` keep: one byte per
    value when it is spike-valued, every value +0.0 or one finite s > 0."""
    x = ins[0].data
    nonzero = np.unique(x[x.view(np.int64) != 0])
    spike_valued = nonzero.size <= 1 and not np.signbit(x).any() and np.isfinite(x).all()
    return [np.empty(x.shape, dtype=bool) if spike_valued else x]


# The arrays each op kind's backward closure reads, given the node's input
# tensors and output; parameters are left out, since they exist before a
# pass. Dropout reads its boolean mask, one byte per output value, lif_update
# one byte per previous spike (hard spikes, or the zero start), and conv2d
# and affine one byte per input value when the input is spike-valued.
# spike reads the membrane that normalized_drive reads, so it adds nothing.
# The kinds in READS_NO_ARRAY read shapes and indices only.
CLOSURE_READS = {
    "conv2d": _kept_input,
    "bntt_seq": lambda ins, out: [ins[0].data],  # x, to rebuild x-hat
    "lif_update": lambda ins, out: [ins[0].data, np.empty(ins[2].shape, dtype=bool)],
    "normalized_drive": lambda ins, out: [ins[0].data],  # membrane
    "spike": lambda ins, out: [],
    "dropout": lambda ins, out: [np.empty(out.shape, dtype=bool)],
    "affine": _kept_input,
    "li_scan": lambda ins, out: [out.data, ins[2].data],  # potentials, initial state
}
READS_NO_ARRAY = {"concat", "select_channels", "reshape", "stack", "window"}
# room per node for the node, its closure and cells, and per-channel vectors
NODE_SLACK = 2 << 10


def test_taped_conv_backedge_pass_keeps_only_what_backward_closures_read(monkeypatch):
    # one-step chunks, BNTT, dropout, a concat back edge resized by
    # select_channels: after the taped forward pass, the memory still
    # allocated is bounded by the arrays that the recorded backward closures
    # read, each counted once, so no output that nothing reads (a bntt_seq
    # drive, a concat or select_channels payload) is kept
    spec = from_shorthand("2x8x8-3c4s1-3c6s1-3c6s1-3", T=4,
                          tskips=[TSkip(origin=3, dest=2, delta_t=2)], bntt=True, reset="hard")
    net = Network.build(spec, seed=0)
    x = (np.random.default_rng(9).random((4, 32, 2, 8, 8)) < 0.3).astype(np.float64)

    def forward():
        return run_forward(net, x, mode="train", dropout=0.2, rng=np.random.default_rng(0))

    reads: dict[int, np.ndarray] = {}
    original = tensor.record

    def record(inputs, out_data, backward_fn):
        out = original(inputs, out_data, backward_fn)
        kind = backward_fn.__qualname__.split(".", 1)[0]
        for a in [] if kind in READS_NO_ARRAY else CLOSURE_READS[kind](inputs, out):
            owner = a if a.base is None else a.base
            reads[id(owner)] = owner
        return out

    with monkeypatch.context() as m:
        for mod in (tensor, ops):
            m.setattr(mod, "record", record)
        with Tape() as tape:
            forward()
    kinds = Counter(node.backward.__qualname__.split(".", 1)[0] for node in tape.nodes)
    assert {"bntt_seq", "dropout", "select_channels", "concat"} <= set(kinds)
    bound = sum(a.nbytes for a in reads.values()) + len(tape.nodes) * NODE_SLACK
    del reads, tape

    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            result = forward()
            grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == sum(kinds.values()) and result.outputs.requires_grad
    assert grown <= bound, (grown, bound)


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("tskips", [(), (TSkip(0, 2, 1),), (TSkip(2, 1, 1),), (TSkip(3, 1, 2),)])
def test_collect_hands_back_the_input_for_layer_0(tskips, taped):
    # one chunk, several chunks, and one-step chunks under a tape
    spec = ArchSpec(input_shape=(5,), layers=(LayerSpec("dense", 4), LayerSpec("dense", 4),
                                              LayerSpec("dense", 3, activation="li")),
                    tskips=tskips, T=6)
    x = (np.random.default_rng(1).random((6, 2, 5)) < 0.5).astype(np.float64)
    collect = {0: None, 2: None}
    with Tape() if taped else contextlib.nullcontext():
        run_forward(Network.build(spec, seed=0), x, collect=collect)
    assert collect[0] is x
    assert collect[2].shape == (6, 2, 4)


@pytest.mark.parametrize("taped, tskips", [(False, ()), (True, (TSkip(3, 1, 1),))],
                         ids=["chunked", "one-step"])
@pytest.mark.parametrize("layer", [-1, 4, 7])
def test_collect_outside_the_layers_is_rejected(monkeypatch, taped, tskips, layer):
    # tape-free, and under a tape with a back edge, which runs in one-step
    # chunks
    def never(*args):
        raise AssertionError("the executor ran")

    monkeypatch.setattr(graph, "_run_chunked", never)
    net = Network.build(graph.mlp_spec([4, 6, 5, 3], T=3, tskips=tskips), seed=0)
    collect = {1: None, layer: None}
    with Tape() if taped else contextlib.nullcontext():
        with pytest.raises(graph.GraphError, match=rf"\[{layer}\] lie outside \[0, 3\]"):
            run_forward(net, np.zeros((3, 2, 4)), collect=collect)
    assert collect == {1: None, layer: None}


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


@pytest.mark.parametrize("kind", ["one chunk", "tape-free chunks", "taped steps"])
def test_spike_counts_sum_each_neurons_collected_spikes(kind):
    # the record sums, per neuron, exactly the spikes the pass emits, for
    # every chunk size; a layer silenced after build counts no spike at all,
    # while the layer after it still spikes through a skip edge
    edges = (TSkip(1, 3, 2, merge="concat"),)
    if kind != "one chunk":
        edges += (TSkip(3, 2, 3, merge="add"),)
    spec = ArchSpec(input_shape=(2, 6, 6),
                    layers=(LayerSpec("conv2d", 3, kernel=3, stride=1), LayerSpec("dense", 7),
                            LayerSpec("dense", 5), LayerSpec("dense", 3, activation="li")),
                    tskips=edges, T=8, threshold_init=0.3)
    net = Network.build(spec, seed=5)
    net.params["L2.threshold"].data[...] = 1e6
    batch = 4
    x = (np.random.default_rng(9).random((spec.T, batch) + spec.input_shape) < 0.5) * 1.0
    layers = {l: None for l in (1, 2, 3)}
    with Tape() if kind == "taped steps" else contextlib.nullcontext():
        assert graph._chunk_steps(spec) == {"one chunk": 8, "tape-free chunks": 3,
                                            "taped steps": 1}[kind]
        stats = run_forward(net, x, surr=SURR, collect=layers).stats
    assert stats.samples == batch
    assert list(stats.counts) == [1, 2, 3]
    for l, seq in layers.items():
        n = int(np.prod(net.shapes[l]))
        assert stats.counts[l].shape == (n,)
        assert np.array_equal(stats.counts[l], seq.reshape(-1, n).sum(axis=0)), f"L{l}"
    assert stats.counts[1].any() and stats.counts[3].any()
    assert not stats.counts[2].any()
    assert stats.rates()[2] == 0.0
    total = graph.SpikeStats()
    total.accumulate(stats)
    total.accumulate(stats)
    assert total.samples == 2 * batch
    for l, counts in stats.counts.items():
        assert np.array_equal(total.counts[l], 2 * counts), f"L{l}"
