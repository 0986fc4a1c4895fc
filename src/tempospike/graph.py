"""Declarative layer graphs with temporally delayed skip connections, and
their unrolled execution over a spike sequence.

A network is an ordered stack of layers (index 0 is the network input) plus a
set of skip edges. Each edge carries its origin, destination, an explicit
delay in timesteps, a merge operator (channel concatenation or elementwise
addition), and an optional learnable blend between the origin's current and
delayed activations. A sequence runs in chunks of C steps, layer by layer
within a chunk. C is T for a graph with forward edges only, where a delayed
payload is the origin's sequence shifted in time; with a backward edge, C is
its shortest delay (1 with a blend), so a chunk reads a later layer only at
steps of earlier chunks, and neuron state carries from chunk to chunk. While
a tape records, a graph with a backward edge instead unrolls step by step
and serves delayed payloads from per-layer ring buffers. Either way, steps
before the start of the sequence read zeros, and a buffer read from the
future is a hard error, which keeps the graph causal by construction.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    SurrogateConfig,
    Tensor,
    active_tape,
    affine,
    bntt_seq,
    concat,
    conv2d,
    delay,
    li_scan,
    lif_scan,
    relu,
    reshape,
    select_channels,
    sigmoid,
    stack,
)
from .neuron import LifParams, LifState, init_violations, lif_step

LAYER_KINDS = ("dense", "conv2d")
ACTIVATIONS = ("lif", "relu", "li", "linear")
MERGE_OPS = ("concat", "add")

_CONV_TOKEN = re.compile(r"^(\d+)c(\d+)s(\d+)$")


class GraphError(Exception):
    """Structural or runtime failure in a layer graph."""


class SpecValidationError(GraphError):
    def __init__(self, violations: list[str]):
        super().__init__("invalid architecture: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out: int
    kernel: int | None = None
    stride: int | None = None
    activation: str = "lif"


@dataclass(frozen=True)
class TSkip:
    """One delayed skip edge between two distinct layers."""

    origin: int
    dest: int
    delta_t: int
    merge: str = "concat"
    alpha: bool = False
    alpha_init: float = 0.0

    @property
    def is_forward(self) -> bool:
        return self.origin < self.dest


@dataclass(frozen=True)
class ArchSpec:
    """Layer stack, skip edges, and sequence length for one architecture."""

    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    tskips: tuple[TSkip, ...] = ()
    T: int = 1
    bntt: bool = False
    reset: str = "soft"
    leak_init: float = 0.6
    threshold_init: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "tskips", tuple(self.tskips))

    @property
    def depth(self) -> int:
        return len(self.layers)


def parse_layer_token(token: str) -> LayerSpec:
    """Parse a layer shorthand: "288" is a dense layer, "3c80s1" a conv layer
    with kernel 3, 80 channels, stride 1."""
    token = token.strip()
    if token.isdigit():
        return LayerSpec(kind="dense", out=int(token))
    m = _CONV_TOKEN.match(token)
    if m:
        k, c, s = (int(g) for g in m.groups())
        return LayerSpec(kind="conv2d", out=c, kernel=k, stride=s)
    raise GraphError(f"unrecognized layer shorthand {token!r}")


def _parse_input_token(token: str) -> tuple[int, ...]:
    parts = re.split(r"[x×]", token.strip())
    dims = tuple(int(p) for p in parts)
    if len(dims) not in (1, 3):
        raise GraphError(f"input shape must have 1 or 3 dims, got {token!r}")
    return dims


def from_shorthand(text: str, T: int, tskips=(), **kwargs) -> ArchSpec:
    """Build a spec from a dashed shorthand like "700-124-288-144-20" or
    "2x64x64-3c80s1-...-1c32s11". The first token is the input shape; the
    final layer becomes the non-spiking accumulator readout."""
    tokens = [t for t in text.split("-") if t]
    if len(tokens) < 2:
        raise GraphError(f"shorthand needs an input token and at least one layer: {text!r}")
    input_shape = _parse_input_token(tokens[0])
    layers = [parse_layer_token(t) for t in tokens[1:]]
    layers[-1] = replace(layers[-1], activation="li")
    return ArchSpec(input_shape=input_shape, layers=tuple(layers),
                    tskips=tuple(tskips), T=T, **kwargs)


def mlp_spec(sizes, T: int, tskips=(), **kwargs) -> ArchSpec:
    """Dense spiking stack from a size list [in, h1, ..., out]; readout is the
    trailing accumulator layer."""
    sizes = [int(s) for s in sizes]
    return from_shorthand("-".join(str(s) for s in sizes), T, tskips=tskips, **kwargs)


def infer_shapes(spec: ArchSpec) -> list[tuple[int, ...]]:
    """Per-node output shapes (batch excluded); index 0 is the input."""
    shapes: list[tuple[int, ...]] = [spec.input_shape]
    for i, layer in enumerate(spec.layers, start=1):
        prev = shapes[-1]
        if layer.kind == "dense":
            shapes.append((layer.out,))
        elif layer.kind == "conv2d":
            if len(prev) != 3:
                raise GraphError(f"layer {i}: conv2d needs a (c, h, w) input, got {prev}")
            _, h, w = prev
            oh = -(-h // layer.stride)
            ow = -(-w // layer.stride)
            shapes.append((layer.out, oh, ow))
        else:
            raise GraphError(f"layer {i}: unknown kind {layer.kind!r}")
    return shapes


def _feature_count(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape))


def validate(spec: ArchSpec) -> list[str]:
    """All structural invariants; returns a list of violations (empty = ok)."""
    v: list[str] = []
    if spec.T < 1:
        v.append(f"sequence length must be >= 1, got {spec.T}")
    if len(spec.input_shape) not in (1, 3) or any(d < 1 for d in spec.input_shape):
        v.append(f"bad input shape {spec.input_shape}")
    if not spec.layers:
        v.append("network has no layers")
    if spec.reset not in ("soft", "hard"):
        v.append(f"unknown reset mode {spec.reset!r}")
    v += init_violations(spec.leak_init, spec.threshold_init)

    for i, layer in enumerate(spec.layers, start=1):
        if layer.kind not in LAYER_KINDS:
            v.append(f"layer {i}: unknown kind {layer.kind!r}")
            continue
        if layer.activation not in ACTIVATIONS:
            v.append(f"layer {i}: unknown activation {layer.activation!r}")
        if layer.out < 1:
            v.append(f"layer {i}: output size must be positive")
        if layer.kind == "conv2d" and (not layer.kernel or layer.kernel < 1
                                       or not layer.stride or layer.stride < 1):
            v.append(f"layer {i}: conv2d needs kernel >= 1 and stride >= 1")
    if v:
        return v

    try:
        shapes = infer_shapes(spec)
    except GraphError as err:
        return [str(err)]

    depth = spec.depth
    concat_dests: set[int] = set()
    for e in spec.tskips:
        tag = f"edge {e.origin}->{e.dest} (dt={e.delta_t})"
        if not 0 <= e.origin <= depth:
            v.append(f"{tag}: origin outside [0, {depth}]")
            continue
        if not 1 <= e.dest <= depth:
            v.append(f"{tag}: destination outside [1, {depth}]")
            continue
        if e.origin == e.dest:
            v.append(f"{tag}: connection within the same layer")
            continue
        if e.delta_t < 0:
            v.append(f"{tag}: negative delay")
        if not math.isfinite(e.alpha_init):
            v.append(f"{tag}: alpha_init must be finite, got {e.alpha_init}")
        if e.origin > e.dest and e.delta_t == 0:
            v.append(f"{tag}: same-step cycle (backward edge needs delay >= 1)")
        if e.delta_t >= spec.T:
            v.append(f"{tag}: delay exceeds sequence length (delta_t must be < T={spec.T})")
        if e.merge not in MERGE_OPS:
            v.append(f"{tag}: unknown merge {e.merge!r}")
        # an add payload has the feed-forward width, which an earlier concat
        # into the same layer has already widened
        if e.merge == "add" and e.dest in concat_dests:
            v.append(f"{tag}: add edge listed after a concat edge into the same layer")
        if e.merge == "concat":
            concat_dests.add(e.dest)
        dest_layer = spec.layers[e.dest - 1]
        payload, ff_in = shapes[e.origin], shapes[e.dest - 1]
        if dest_layer.kind == "conv2d":
            if len(payload) != 3:
                v.append(f"{tag}: payload has no spatial dims for conv destination")
            elif payload[1:] != ff_in[1:]:
                v.append(f"{tag}: spatial mismatch {payload[1:]} vs {ff_in[1:]}")
    return v


@dataclass(frozen=True)
class ParamSpec:
    """One array of a built network. ``init`` is its constant initial value,
    or None for a weight drawn He-uniform from the build's RNG; entries that
    are not ``trainable`` are running statistics kept in ``Network.state``."""

    name: str
    shape: tuple[int, ...]
    init: float | None = None
    trainable: bool = True


def weight_fan_in(shape: tuple[int, ...]) -> int:
    """Inputs per output unit of a dense [fan_in, out] or conv [out, c_in, k, k] weight."""
    return shape[0] if len(shape) == 2 else int(np.prod(shape[1:]))


def param_table(spec: ArchSpec) -> list[ParamSpec]:
    """Every parameter and running statistic of ``spec``'s network, in the
    order ``Network.build`` initializes them: per layer the weight, bias,
    neuron scalars and per-timestep normalization, then per-edge blends. Each
    concat edge into a layer widens its input by one feed-forward width."""
    shapes = infer_shapes(spec)
    table: list[ParamSpec] = []
    for i, layer in enumerate(spec.layers, start=1):
        widen = 1 + sum(1 for e in spec.tskips if e.dest == i and e.merge == "concat")
        if layer.kind == "dense":
            table += [ParamSpec(f"L{i}.w", (_feature_count(shapes[i - 1]) * widen, layer.out)),
                      ParamSpec(f"L{i}.b", (layer.out,), 0.0)]
        else:
            k = layer.kernel
            table += [ParamSpec(f"L{i}.w", (layer.out, shapes[i - 1][0] * widen, k, k)),
                      ParamSpec(f"L{i}.b", (layer.out, 1, 1), 0.0)]
        if layer.activation in ("lif", "li"):
            table.append(ParamSpec(f"L{i}.leak", (), spec.leak_init))
        if layer.activation == "lif":
            table.append(ParamSpec(f"L{i}.threshold", (), spec.threshold_init))
            if spec.bntt:
                for t in range(spec.T):
                    table += [ParamSpec(f"L{i}.bntt_g{t}", (layer.out,), 1.0),
                              ParamSpec(f"L{i}.bntt_b{t}", (layer.out,), 0.0)]
                table += [ParamSpec(f"L{i}.bntt_mean", (spec.T, layer.out), 0.0, False),
                          ParamSpec(f"L{i}.bntt_var", (spec.T, layer.out), 1.0, False)]
    table += [ParamSpec(f"E{j}.alpha_raw", (), e.alpha_init)
              for j, e in enumerate(spec.tskips) if e.alpha]
    return table


def param_count(spec: ArchSpec) -> int:
    """Exact trainable parameter count: weights, biases, neuron scalars,
    per-timestep normalization affines, and per-edge blend factors."""
    return sum(int(np.prod(p.shape)) for p in param_table(spec) if p.trainable)


@dataclass(frozen=True)
class ShortcutMatrix:
    """Fixed random channel selection mapping a payload onto a target width.

    Generated once at construction and never trained; the identity selection
    is used whenever source and target widths already agree.
    """

    source_channels: int
    target_channels: int
    selection: tuple[int, ...]
    seed: int

    @classmethod
    def build(cls, source_channels: int, target_channels: int, seed: int) -> "ShortcutMatrix":
        if source_channels == target_channels:
            selection = tuple(range(source_channels))
        else:
            rng = np.random.default_rng(seed)
            selection = tuple(int(i) for i in rng.integers(0, source_channels,
                                                           size=target_channels))
        return cls(source_channels, target_channels, selection, seed)


def shortcut_apply(ws: ShortcutMatrix, x: Tensor) -> Tensor:
    if x.shape[1] != ws.source_channels:
        raise GraphError(
            f"shortcut expects {ws.source_channels} channels, got {x.shape[1]}"
        )
    if ws.selection == tuple(range(ws.source_channels)):
        return x  # the identity selection would only copy
    return select_channels(x, ws.selection, axis=1)


class DelayBuffer:
    """Ring buffer over the last ``capacity`` outputs of one layer.

    Reads before the sequence start return a zero tensor; reads of steps that
    were never written (the future) or that have been overwritten are errors.
    """

    def __init__(self, capacity: int, zero_shape: tuple[int, ...]):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._slots: list[Tensor | None] = [None] * capacity
        self._written = -1
        self._zero = Tensor(np.zeros(zero_shape))

    def write(self, t: int, value: Tensor) -> None:
        if t != self._written + 1:
            raise GraphError(f"buffer writes must be sequential, got t={t} after {self._written}")
        self._slots[t % self.capacity] = value
        self._written = t

    def read(self, t: int) -> Tensor:
        if t < 0:
            return self._zero
        if t > self._written:
            raise GraphError(f"buffer read from the future: t={t}, last written {self._written}")
        if t <= self._written - self.capacity:
            raise GraphError(f"buffer read expired: t={t} older than capacity {self.capacity}")
        return self._slots[t % self.capacity]


@dataclass
class SpikeStats:
    """Spike counts per spiking layer, accumulated over forward passes."""

    neurons: dict[int, int] = field(default_factory=dict)
    spikes: dict[int, float] = field(default_factory=dict)
    samples: int = 0
    T: int = 0

    def track(self, layer: int, neuron_count: int) -> None:
        self.neurons.setdefault(layer, neuron_count)
        self.spikes.setdefault(layer, 0.0)

    def add(self, layer: int, count: float) -> None:
        self.spikes[layer] += count

    def accumulate(self, other: "SpikeStats") -> None:
        for layer, n in other.neurons.items():
            self.track(layer, n)
            self.spikes[layer] += other.spikes[layer]
        self.samples += other.samples
        self.T = other.T

    def rates(self) -> dict[int, float]:
        """Average spikes per neuron per sample over the full window."""
        if self.samples == 0:
            return {l: 0.0 for l in self.neurons}
        return {l: self.spikes[l] / (self.neurons[l] * self.samples) for l in self.neurons}

    def overall_rate(self) -> float:
        total_n = sum(self.neurons.values())
        if self.samples == 0 or total_n == 0:
            return 0.0
        return sum(self.spikes.values()) / (total_n * self.samples)


@dataclass
class ForwardResult:
    """``outputs`` is the final layer's whole sequence, [T, batch, ...];
    ``outputs[t]`` is step t."""

    outputs: Tensor
    stats: SpikeStats


class Network:
    """An architecture bound to concrete parameters and fixed shortcuts."""

    def __init__(self, spec: ArchSpec, params: dict[str, Tensor],
                 state: dict[str, np.ndarray], shortcuts: list[ShortcutMatrix], seed: int):
        self.spec = spec
        self.params = params
        self.state = state
        self.shortcuts = shortcuts
        self.seed = seed
        self.shapes = infer_shapes(spec)

    @classmethod
    def build(cls, spec: ArchSpec, seed: int = 0) -> "Network":
        violations = validate(spec)
        if violations:
            raise SpecValidationError(violations)
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        state: dict[str, np.ndarray] = {}
        for p in param_table(spec):
            if p.init is None:
                bound = np.sqrt(6.0 / weight_fan_in(p.shape))
                value = rng.uniform(-bound, bound, p.shape)
            else:
                value = np.full(p.shape, p.init)
            if p.trainable:
                params[p.name] = Tensor(value, requires_grad=True, name=p.name)
            else:
                state[p.name] = value

        shapes = infer_shapes(spec)
        shortcuts: list[ShortcutMatrix] = []
        for edge in spec.tskips:
            dest_layer = spec.layers[edge.dest - 1]
            if dest_layer.kind == "conv2d":
                source = shapes[edge.origin][0]
                target = shapes[edge.dest - 1][0]
            else:
                source = _feature_count(shapes[edge.origin])
                target = _feature_count(shapes[edge.dest - 1])
            shortcuts.append(ShortcutMatrix.build(source, target,
                                                  seed=int(rng.integers(0, 2**31 - 1))))
        return cls(spec, params, state, shortcuts, seed)

    def lif_params(self, layer_index: int) -> LifParams:
        return LifParams(
            leak=self.params[f"L{layer_index}.leak"],
            threshold=self.params[f"L{layer_index}.threshold"],
            reset_mode=self.spec.reset,
        )


def run_forward(net: Network, x: np.ndarray, mode: str = "eval",
                spike_mode: str = "hard", surr: SurrogateConfig | None = None,
                dropout: float = 0.0, rng: np.random.Generator | None = None,
                collect: dict[int, np.ndarray | None] | None = None) -> ForwardResult:
    """Run the network over the full sequence.

    ``x`` has shape [T, batch, ...input]. The sequence runs in chunks of C
    steps, each chunk one layer at a time over all of its steps. C is T for a
    graph without backward edges, where a delayed skip is its origin's
    sequence shifted by ``delta_t`` steps, and otherwise the shortest delay
    of a backward edge, 1 for one with a blend. While a tape records, a graph
    with a backward edge instead unrolls time-major, one step of every layer
    at a time, because the state carried from one chunk to the next has no
    backward pass. All paths give the same result up to the rounding of
    batched matrix products; dropout draws one mask per layer per chunk, or
    per step when time-major. ``collect`` maps layer indices to slots that
    receive that layer's raw output sequence as a [T, batch, ...] array;
    layer 0 receives ``x`` itself, whichever path runs.
    """
    spec = net.spec
    if x.shape[0] != spec.T:
        raise GraphError(f"input time dim {x.shape[0]} != spec.T {spec.T}")
    if tuple(x.shape[2:]) != spec.input_shape:
        raise GraphError(f"input feature shape {x.shape[2:]} != {spec.input_shape}")
    if not np.isfinite(x).all():
        raise GraphError("input holds non-finite values")
    if dropout and not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    training = mode == "train"
    if training and dropout > 0.0 and rng is None:
        raise ValueError("training with dropout needs an rng")
    backward = any(not e.is_forward for e in spec.tskips)
    execute = _run_time_major if backward and active_tape() is not None else _run_chunked
    result = execute(net, x, training, spike_mode, surr or SurrogateConfig(),
                     dropout if training else 0.0, rng, collect)
    if collect is not None and 0 in collect:
        collect[0] = x
    return result


def _chunk_steps(spec: ArchSpec) -> int:
    """Steps per chunk, from the spec alone: T without a backward edge, else
    the shortest delay of a backward edge, counting an edge with a blend as 1
    because its "now" term reads the step before. A chunk then reads a
    backward edge's origin only at steps of earlier chunks."""
    return min((1 if e.alpha else e.delta_t for e in spec.tskips if not e.is_forward),
               default=spec.T)


def _spike_stats(net: Network, batch: int) -> SpikeStats:
    stats = SpikeStats(samples=batch, T=net.spec.T)
    for i, layer in enumerate(net.spec.layers, start=1):
        if layer.activation == "lif":
            stats.track(i, _feature_count(net.shapes[i]))
    return stats


def _flatten_for(layer: LayerSpec, x: Tensor) -> Tensor:
    return reshape(x, (x.shape[0], -1)) if layer.kind == "dense" and x.ndim > 2 else x


def _resize(net: Network, j: int, edge: TSkip, payload: Tensor, ff: Tensor) -> Tensor:
    """Map one skip payload onto the destination's feed-forward input ``ff``
    through the edge's fixed channel selection."""
    layer = net.spec.layers[edge.dest - 1]
    payload = _flatten_for(layer, payload)
    if layer.kind == "conv2d" and payload.shape[2:] != ff.shape[2:]:
        raise GraphError(
            f"edge {edge.origin}->{edge.dest} (dt={edge.delta_t}): spatial "
            f"mismatch {payload.shape[2:]} vs {ff.shape[2:]}")
    return shortcut_apply(net.shortcuts[j], payload)


def _merge(edge: TSkip, merged: Tensor, resized: Tensor) -> Tensor:
    return concat(merged, resized, axis=1) if edge.merge == "concat" else merged + resized


def _blend(net: Network, j: int, now: Tensor, delayed: Tensor) -> Tensor:
    a = sigmoid(net.params[f"E{j}.alpha_raw"])
    return a * now + (1.0 - a) * delayed


def _drive(net: Network, l: int, merged: Tensor, dropout: float,
           rng: np.random.Generator | None) -> Tensor:
    """Dropout on the merged input, then the layer's weights and bias."""
    layer = net.spec.layers[l - 1]
    if dropout:
        keep = (rng.random(merged.shape) >= dropout) / (1.0 - dropout)
        merged = merged * Tensor(keep)
    if layer.kind == "dense":
        return affine(merged, net.params[f"L{l}.w"], net.params[f"L{l}.b"])
    return conv2d(merged, net.params[f"L{l}.w"], net.params[f"L{l}.b"], layer.stride)


def _bntt(net: Network, l: int, drive: Tensor, start: int, stop: int,
          training: bool) -> Tensor:
    """Layer ``l``'s per-timestep normalization of steps [start, stop)."""
    steps = range(start, stop)
    return bntt_seq(drive, [net.params[f"L{l}.bntt_g{t}"] for t in steps],
                    [net.params[f"L{l}.bntt_b{t}"] for t in steps],
                    net.state[f"L{l}.bntt_mean"][start:stop],
                    net.state[f"L{l}.bntt_var"][start:stop], training)


def _steps(seq: np.ndarray, lo: int, hi: int, batch: int) -> np.ndarray:
    """Steps [lo, hi) of a [T * batch, ...] sequence, zeros before step 0."""
    if lo >= 0:
        return seq[lo * batch:hi * batch]
    head = min(-lo, hi - lo)
    out = np.zeros(((hi - lo) * batch,) + seq.shape[1:])
    out[head * batch:] = seq[:(hi - lo - head) * batch]
    return out


def _run_chunked(net: Network, x: np.ndarray, training: bool, spike_mode: str,
                 surr: SurrogateConfig, dropout: float, rng: np.random.Generator | None,
                 collect: dict[int, np.ndarray | None] | None) -> ForwardResult:
    """Chunks of ``_chunk_steps`` steps, each layer-major: a layer processes
    all steps of the chunk at once, as [steps * batch, ...] arrays of timestep
    blocks. One chunk keeps its sequences as tape tensors. With several, the
    outputs that skip payloads, ``collect`` and the result read are copied
    into one [T * batch, ...] array per layer, and each LIF and accumulator
    layer carries its state into the next chunk; nothing of that is
    differentiable, so it runs without a tape only."""
    spec = net.spec
    T, batch = x.shape[:2]
    steps = _chunk_steps(spec)
    stats = _spike_stats(net, batch)
    last_use = {i: i + 1 for i in range(spec.depth)}
    for e in spec.tskips:
        if e.is_forward:
            last_use[e.origin] = max(last_use[e.origin], e.dest)
    history = None
    if steps < T:
        kept = {e.origin for e in spec.tskips} | set(collect or ()) | {spec.depth}
        history = {l: np.empty((T * batch,) + net.shapes[l]) for l in kept - {0}}
        if 0 in kept:
            history[0] = x.reshape((T * batch,) + x.shape[2:])
    carry: dict[int, object] = {}  # per layer, the state at the end of the last chunk
    for s in range(0, T, steps):
        e = min(s + steps, T)
        seqs: list[Tensor | None] = [Tensor(x[s:e].reshape(((e - s) * batch,) + x.shape[2:]))]
        for l, layer in enumerate(spec.layers, start=1):
            h = _layer_sequence(net, l, seqs, history, s, e, batch, carry,
                                training, spike_mode, surr, dropout, rng)
            if layer.activation == "lif":
                stats.add(l, float(h.data.sum()))
            seqs.append(h)
            if history is not None and l in history:
                history[l][s * batch:e * batch] = h.data
            elif collect is not None and l in collect:
                collect[l] = h.data.reshape((T, batch) + net.shapes[l])
            for i, last in last_use.items():
                if last == l:
                    seqs[i] = None  # without a tape, this frees the sequence
    if history is None:
        out = seqs[-1]
        return ForwardResult(outputs=reshape(out, (T, batch) + out.shape[1:]), stats=stats)
    for l in collect or ():
        collect[l] = history[l].reshape((T, batch) + net.shapes[l])
    out = history[spec.depth]
    return ForwardResult(outputs=Tensor(out.reshape((T, batch) + out.shape[1:])), stats=stats)


def _layer_sequence(net: Network, l: int, seqs: list[Tensor | None],
                    history: dict[int, np.ndarray] | None, s: int, e: int, batch: int,
                    carry: dict[int, object], training: bool, spike_mode: str,
                    surr: SurrogateConfig, dropout: float,
                    rng: np.random.Generator | None) -> Tensor:
    """Layer ``l``'s output over steps [s, e), from the outputs of earlier
    layers and, through ``carry``, its own state after step s - 1."""
    spec = net.spec
    layer = spec.layers[l - 1]
    # the merged input stays unnamed: without a tape it is freed before the scan
    drive = _drive(net, l, _sequence_input(net, l, seqs, history, s, e, batch), dropout, rng)
    if spec.bntt and layer.activation == "lif":
        drive = _bntt(net, l, drive, s, e, training)
    if layer.activation == "lif":
        p = net.lif_params(l)
        h, carry[l] = lif_scan(drive, p.leak, p.threshold, e - s, p.reset_mode, surr,
                               spike_mode, carry.get(l))
        return h
    if layer.activation == "li":
        init = carry.get(l, Tensor(np.zeros((batch,) + net.shapes[l])))
        h = li_scan(drive, net.params[f"L{l}.leak"], init)
        carry[l] = Tensor(h.data[-batch:].copy())
        return h
    if layer.activation == "relu":
        return relu(drive)
    return drive


def _sequence_input(net: Network, l: int, seqs: list[Tensor | None],
                    history: dict[int, np.ndarray] | None, s: int, e: int,
                    batch: int) -> Tensor:
    """Layer ``l``'s feed-forward input over steps [s, e) merged with its skip
    payloads. A payload is steps [s - delta_t, e - delta_t) of its origin's
    output, zeros before step 0; a blend's "now" term is steps [s, e), or
    [s - 1, e - 1) over a backward edge."""
    ff = _flatten_for(net.spec.layers[l - 1], seqs[l - 1])
    merged = ff
    for j, edge in enumerate(net.spec.tskips):
        if edge.dest != l:
            continue
        if history is None:
            # one chunk: the payload is the origin's sequence shifted, and
            # selecting channels first keeps the shifted copy narrow; both
            # only move values, so the order does not change the result
            now = _resize(net, j, edge, seqs[edge.origin], ff)
            payload = delay(now, edge.delta_t * batch) if edge.delta_t else now
        else:
            origin = history[edge.origin]
            dt = edge.delta_t
            payload = _resize(net, j, edge, Tensor(_steps(origin, s - dt, e - dt, batch)), ff)
            if edge.alpha:
                lag = 0 if edge.is_forward else 1
                now = _resize(net, j, edge, Tensor(_steps(origin, s - lag, e - lag, batch)), ff)
        if edge.alpha:
            payload = _blend(net, j, now, payload)
        merged = _merge(edge, merged, payload)
    return merged


def _run_time_major(net: Network, x: np.ndarray, training: bool, spike_mode: str,
                    surr: SurrogateConfig, dropout: float, rng: np.random.Generator | None,
                    collect: dict[int, np.ndarray | None] | None) -> ForwardResult:
    """Unroll step by step over ring buffers. Every layer consumes its
    predecessor's current output merged with any delayed skip payloads;
    buffers are written as soon as a layer's step completes, so within one
    step the layer order stays the plain feed-forward order and backward
    edges only ever see the past."""
    spec = net.spec
    batch = x.shape[1]
    depth = spec.depth

    edges_into: dict[int, list[tuple[int, TSkip]]] = {l: [] for l in range(1, depth + 1)}
    max_delay: dict[int, int] = {}
    for j, e in enumerate(spec.tskips):
        edges_into[e.dest].append((j, e))
        need = max(e.delta_t, 1 if (e.alpha and not e.is_forward) else 0)
        max_delay[e.origin] = max(max_delay.get(e.origin, 0), need)
    buffers = {
        origin: DelayBuffer(d + 1, (batch,) + net.shapes[origin])
        for origin, d in max_delay.items()
    }

    lif_states: dict[int, LifState] = {}
    li_potentials: dict[int, Tensor] = {}
    stats = _spike_stats(net, batch)
    for i, layer in enumerate(spec.layers, start=1):
        shape = (batch,) + net.shapes[i]
        if layer.activation == "lif":
            lif_states[i] = LifState.zeros(shape)
        elif layer.activation == "li":
            li_potentials[i] = Tensor(np.zeros(shape))

    if collect is not None:
        for l in set(collect) - {0}:
            collect[l] = np.empty((spec.T, batch) + net.shapes[l])
    outputs: list[Tensor] = []
    for t in range(spec.T):
        current: list[Tensor | None] = [None] * (depth + 1)
        current[0] = Tensor(x[t])
        if 0 in buffers:
            buffers[0].write(t, current[0])
        for l in range(1, depth + 1):
            layer = spec.layers[l - 1]
            merged = _flatten_for(layer, current[l - 1])
            for j, edge in edges_into[l]:
                delayed = buffers[edge.origin].read(t - edge.delta_t)
                if edge.alpha:
                    # backward edges cannot see the origin's same-step output,
                    # so their "current" term is the freshest buffered step
                    now = current[edge.origin] if edge.is_forward \
                        else buffers[edge.origin].read(t - 1)
                    delayed = _blend(net, j, now, delayed)
                merged = _merge(edge, merged, _resize(net, j, edge, delayed, merged))
            drive = _drive(net, l, merged, dropout, rng)
            if spec.bntt and layer.activation == "lif":
                drive = _bntt(net, l, drive, t, t + 1, training)
            if layer.activation == "lif":
                spikes, lif_states[l] = lif_step(lif_states[l], drive, net.lif_params(l),
                                                 surr, spike_mode=spike_mode)
                stats.add(l, float(spikes.data.sum()))
                h = spikes
            elif layer.activation == "li":
                li_potentials[l] = li_scan(drive, net.params[f"L{l}.leak"], li_potentials[l])
                h = li_potentials[l]
            elif layer.activation == "relu":
                h = relu(drive)
            else:
                h = drive
            current[l] = h
            if collect is not None and l in collect:
                collect[l][t] = h.data
            if l in buffers:
                buffers[l].write(t, h)
        outputs.append(current[depth])
    return ForwardResult(outputs=stack(outputs), stats=stats)


# ---------------------------------------------------------------------------
# serialization

def spec_to_dict(spec: ArchSpec) -> dict:
    return {
        "T": spec.T,
        "input": list(spec.input_shape),
        "layers": [
            {k: v for k, v in
             (("kind", l.kind), ("out", l.out), ("kernel", l.kernel),
              ("stride", l.stride), ("activation", l.activation))
             if v is not None}
            for l in spec.layers
        ],
        "tskips": [
            {"origin": e.origin, "dest": e.dest, "delta_t": e.delta_t,
             "merge": e.merge, "alpha": e.alpha, "alpha_init": e.alpha_init}
            for e in spec.tskips
        ],
        "bntt": spec.bntt,
        "reset": spec.reset,
        "leak_init": spec.leak_init,
        "threshold_init": spec.threshold_init,
    }


_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               bool: ((bool,), "true or false")}


def typed(value, kind: type, field: str):
    """``value`` if JSON gave it type ``kind``, else ``TypeError``. A bool is
    neither an int nor a number, and an int counts as a number; nothing is
    coerced, so a mistyped file cannot load as a different network or dataset."""
    types, name = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise TypeError(f"{field} must be {name}, got {value!r}")
    return float(value) if kind is float else value


def _layer_from_entry(entry) -> LayerSpec:
    if isinstance(entry, LayerSpec):
        return entry
    if isinstance(entry, int) and not isinstance(entry, bool):
        return LayerSpec(kind="dense", out=entry)
    if isinstance(entry, str):
        return parse_layer_token(entry)
    if isinstance(entry, dict):
        kernel, stride = entry.get("kernel"), entry.get("stride")
        return LayerSpec(kind=entry["kind"], out=typed(entry["out"], int, "layer out"),
                         kernel=None if kernel is None else typed(kernel, int, "layer kernel"),
                         stride=None if stride is None else typed(stride, int, "layer stride"),
                         activation=entry.get("activation", "lif"))
    raise GraphError(f"cannot interpret layer entry {entry!r}")


def spec_from_dict(d: dict) -> ArchSpec:
    """The spec a JSON dict describes; integer fields must be JSON integers,
    flags JSON booleans and initial values JSON numbers, else ``GraphError``."""
    try:
        layers = tuple(_layer_from_entry(e) for e in d["layers"])
        tskips = tuple(
            TSkip(origin=typed(e["origin"], int, "edge origin"),
                  dest=typed(e["dest"], int, "edge dest"),
                  delta_t=typed(e["delta_t"], int, "edge delta_t"),
                  merge=e.get("merge", "concat"),
                  alpha=typed(e.get("alpha", False), bool, "edge alpha"),
                  alpha_init=typed(e.get("alpha_init", 0.0), float, "edge alpha_init"))
            for e in d.get("tskips", ())
        )
        return ArchSpec(
            input_shape=tuple(typed(v, int, "input size") for v in d["input"]),
            layers=layers,
            tskips=tskips,
            T=typed(d["T"], int, "T"),
            bntt=typed(d.get("bntt", False), bool, "bntt"),
            reset=d.get("reset", "soft"),
            leak_init=typed(d.get("leak_init", 0.6), float, "leak_init"),
            threshold_init=typed(d.get("threshold_init", 1.0), float, "threshold_init"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise GraphError(f"malformed spec: {err!r}") from None


def dumps_spec(spec: ArchSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2) + "\n"


def loads_spec(text: str) -> ArchSpec:
    try:
        d = json.loads(text)
    except ValueError as err:
        raise GraphError(f"spec is not valid JSON: {err}") from None
    return spec_from_dict(d)


def save_spec(spec: ArchSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_spec(spec))


def load_spec(path) -> ArchSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise GraphError(f"cannot read spec: {err}") from None
    return loads_spec(text)
