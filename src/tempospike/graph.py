"""Declarative layer graphs with temporally delayed skip connections, and
their unrolled execution over a spike sequence.

A network is an ordered stack of layers (index 0 is the network input) plus a
set of skip edges. Each edge carries its origin, destination, an explicit
delay in timesteps, a merge operator (channel concatenation or elementwise
addition), and an optional learnable blend between the origin's current and
delayed activations. A sequence runs in chunks of C steps, layer by layer
within a chunk. C is T for a graph with forward edges only. With a backward
edge, C is its shortest delay (1 with a blend), or 1 while a tape records, so
a chunk reads a later layer only at steps of earlier chunks. Each layer that a
payload reads keeps its chunk outputs, a delayed payload is a window of them,
and neuron state carries from chunk to chunk: as tape tensors through
``lif_step`` when a tape records one-step chunks, and otherwise as the arrays
``lif_scan`` returns, whatever C is. Steps before the start of the sequence
read zeros, which keeps the graph causal by construction.
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
    dropout as apply_dropout,
    li_scan,
    lif_scan,
    relu,
    reshape,
    select_channels,
    sigmoid,
    stack,
    window,
)
from .neuron import RESET_MODES, LifParams, LifState, init_violations, lif_step

LAYER_KINDS = ("dense", "conv2d")
ACTIVATIONS = ("lif", "relu", "li", "linear")
MERGE_OPS = ("concat", "add")

_CONV_TOKEN = re.compile(r"^(\d+)c(\d+)s(\d+)$")

# The most bytes that a spec's parameters, a dataset's dense [samples, T,
# ...] float64 tensor or a search probe may take, 8 GiB; a larger one is
# refused before it is allocated.
MAX_DATASET_BYTES = 2**33


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
    return checked_param_table(spec)[0]


def checked_param_table(spec: ArchSpec) -> tuple[list[str], list[ParamSpec]]:
    """``validate``'s violations and the parameter table its size check read,
    so that a caller needing both builds the table once. The table is empty
    when a violation ends the checks before the size check."""
    v: list[str] = []
    if spec.T < 1:
        v.append(f"sequence length must be >= 1, got {spec.T}")
    if len(spec.input_shape) not in (1, 3) or any(d < 1 for d in spec.input_shape):
        v.append(f"bad input shape {spec.input_shape}")
    if not spec.layers:
        v.append("network has no layers")
    if spec.reset not in RESET_MODES:
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
        return v, []

    try:
        shapes = infer_shapes(spec)
    except GraphError as err:
        return [str(err)], []

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
    table = param_table(spec)
    size = 8 * sum(math.prod(p.shape) for p in table)
    if size > MAX_DATASET_BYTES:
        v.append(f"parameters need {size} bytes, above the limit of {MAX_DATASET_BYTES}")
    return v, table


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
                table += [ParamSpec(f"L{i}.bntt_gamma", (spec.T, layer.out), 1.0),
                          ParamSpec(f"L{i}.bntt_beta", (spec.T, layer.out), 0.0),
                          ParamSpec(f"L{i}.bntt_mean", (spec.T, layer.out), 0.0, False),
                          ParamSpec(f"L{i}.bntt_var", (spec.T, layer.out), 1.0, False)]
    table += [ParamSpec(f"E{j}.alpha_raw", (), e.alpha_init)
              for j, e in enumerate(spec.tskips) if e.alpha]
    return table


def param_count(spec: ArchSpec) -> int:
    """Exact trainable parameter count: weights, biases, neuron scalars,
    per-timestep normalization affines, and per-edge blend factors."""
    return trainable_count(param_table(spec))


def trainable_count(table: list[ParamSpec]) -> int:
    """``param_count`` of an already built parameter table."""
    return sum(int(np.prod(p.shape)) for p in table if p.trainable)


@dataclass
class SpikeStats:
    """Per LIF layer, one count per neuron: its spikes summed over the steps
    and samples of every pass accumulated so far. Rates derive from it; a
    layer's neuron count is its array's size."""

    counts: dict[int, np.ndarray] = field(default_factory=dict)
    samples: int = 0

    def accumulate(self, other: "SpikeStats") -> None:
        for layer, c in other.counts.items():
            self.counts[layer] = self.counts.get(layer, 0) + c
        self.samples += other.samples

    def rates(self) -> dict[int, float]:
        """Average spikes per neuron per sample over the full window."""
        if self.samples == 0:
            return {l: 0.0 for l in self.counts}
        return {l: float(c.sum()) / (c.size * self.samples) for l, c in self.counts.items()}

    def overall_rate(self) -> float:
        total_n = sum(c.size for c in self.counts.values())
        if self.samples == 0 or total_n == 0:
            return 0.0
        return sum(float(c.sum()) for c in self.counts.values()) / (total_n * self.samples)


@dataclass
class ForwardResult:
    """``outputs`` is the final layer's whole sequence, [T, batch, ...];
    ``outputs[t]`` is step t."""

    outputs: Tensor
    stats: SpikeStats


class Network:
    """An architecture bound to concrete parameters and fixed shortcuts:
    ``shortcuts[j]`` is edge ``j``'s channel selection, the payload channel
    for each destination channel (feature, into a dense layer). It is drawn
    at build time, never trained, and the identity when the widths agree."""

    def __init__(self, spec: ArchSpec, params: dict[str, Tensor],
                 state: dict[str, np.ndarray], shortcuts: list[tuple[int, ...]], seed: int):
        self.spec = spec
        self.params = params
        self.state = state
        self.shortcuts = shortcuts
        self.seed = seed
        self.shapes = infer_shapes(spec)

    @classmethod
    def build(cls, spec: ArchSpec, seed: int = 0) -> "Network":
        violations, table = checked_param_table(spec)
        if violations:
            raise SpecValidationError(violations)
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        state: dict[str, np.ndarray] = {}
        for p in table:
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
        shortcuts: list[tuple[int, ...]] = []
        for edge in spec.tskips:
            # one seed per edge, drawn whether or not the edge uses it, so
            # that each selection and every saved checkpoint stays the same
            edge_seed = int(rng.integers(0, 2**31 - 1))
            if spec.layers[edge.dest - 1].kind == "conv2d":
                source, target = shapes[edge.origin][0], shapes[edge.dest - 1][0]
            else:
                source = _feature_count(shapes[edge.origin])
                target = _feature_count(shapes[edge.dest - 1])
            if source == target:
                shortcuts.append(tuple(range(source)))
            else:
                drawn = np.random.default_rng(edge_seed).integers(0, source, size=target)
                shortcuts.append(tuple(drawn.tolist()))
        return cls(spec, params, state, shortcuts, seed)

    def float32(self) -> "Network":
        """A copy with float32 parameters and running statistics, which
        ``run_forward`` runs only in eval mode without a tape; nothing trains
        or saves it."""
        params = {k: Tensor(p.data.astype(np.float32), name=k) for k, p in self.params.items()}
        state = {k: v.astype(np.float32) for k, v in self.state.items()}
        return Network(self.spec, params, state, self.shortcuts, self.seed)

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
    sequence shifted by ``delta_t`` steps. With a backward edge, C is the
    shortest delay of a backward edge (1 for one with a blend), or 1 while a
    tape records: one-step chunks under a tape carry their state into the
    next as tape tensors, while every chunk of a tape-free pass, whatever its
    length, carries ``lif_scan``'s arrays, which no backward pass reaches.
    Every C gives the same result up to the rounding of batched matrix
    products; dropout draws one mask per layer per chunk. ``collect``
    maps layer indices in [0, depth] to slots that receive that layer's raw
    output sequence as a [T, batch, ...] array; layer 0 receives ``x`` cast
    to the pass's dtype.

    The pass runs in the dtype of the network's parameters, and ``x`` is
    cast to it once: float64 for a network that ``Network.build`` or a
    checkpoint makes, float32 for one from ``Network.float32``, which runs
    only in eval mode without a tape, so that no gradient, checkpoint or
    running statistic ever sees float32.
    """
    spec = net.spec
    if mode not in ("train", "eval"):
        raise GraphError(f"mode must be 'train' or 'eval', got {mode!r}")
    dtype = next(iter(net.params.values())).data.dtype
    if dtype == np.float32:
        if mode != "eval":
            raise GraphError(f"a float32 network runs in eval mode only, got mode {mode!r}: "
                             "training would update its cast running statistics")
        if active_tape() is not None:
            raise GraphError("a float32 network runs without a tape only: its gradients "
                             "would not reach the float64 parameters")
    if x.shape[0] != spec.T:
        raise GraphError(f"input time dim {x.shape[0]} != spec.T {spec.T}")
    if tuple(x.shape[2:]) != spec.input_shape:
        raise GraphError(f"input feature shape {x.shape[2:]} != {spec.input_shape}")
    x = cast_input(x, dtype)
    if dropout and not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
    outside = [l for l in collect or () if l not in range(spec.depth + 1)]
    if outside:
        raise GraphError(f"collect layers {outside} lie outside [0, {spec.depth}]")
    training = mode == "train"
    if training and dropout > 0.0 and rng is None:
        raise ValueError("training with dropout needs an rng")
    result = _run_chunked(net, x, training, spike_mode, surr or SurrogateConfig(),
                          dropout if training else 0.0, rng, collect)
    if collect is not None and 0 in collect:
        collect[0] = x
    return result


def cast_input(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``x`` as a C-contiguous array of ``dtype``, copied only if it is not
    one already; this is the one place a batch of spikes becomes float.
    ``GraphError`` if a value is not finite in ``dtype``: a finite float64
    value beyond float32's range would become an infinite float32 one. A
    bool or integer ``x`` holds only values that float32 holds finitely, so
    only other sources are scanned."""
    with np.errstate(over="ignore"):
        cast = np.asarray(x, dtype, order="C")
    if x.dtype.kind not in "biu" and not np.isfinite(cast).all():
        where = (f" in float32, whose range is ±{np.finfo(np.float32).max:.7g}"
                 if cast.dtype == np.float32 else "")
        raise GraphError(f"input holds non-finite values{where}")
    return cast


def _chunk_steps(spec: ArchSpec) -> int:
    """Steps per chunk: T without a backward edge. With one, 1 while a tape
    records, so that the state carried between chunks is made of tape
    tensors, and otherwise the shortest delay of a backward edge, counting an
    edge with a blend as 1 because its "now" term reads the step before. A
    chunk then reads a backward edge's origin only at steps of earlier
    chunks."""
    delays = [1 if e.alpha else e.delta_t for e in spec.tskips if not e.is_forward]
    if not delays:
        return spec.T
    return 1 if active_tape() is not None else min(delays)


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
    selection = net.shortcuts[j]
    if selection == tuple(range(payload.shape[1])):
        return payload  # the identity selection would only copy
    return select_channels(payload, selection, axis=1)


def _merge(edge: TSkip, merged: Tensor, resized: Tensor) -> Tensor:
    return concat(merged, resized, axis=1) if edge.merge == "concat" else merged + resized


def _blend(net: Network, j: int, now: Tensor, delayed: Tensor) -> Tensor:
    a = sigmoid(net.params[f"E{j}.alpha_raw"])
    one = Tensor(np.ones((), a.data.dtype))  # a bare 1.0 would widen a float32 pass
    return a * now + (one - a) * delayed


def _drive(net: Network, l: int, merged: Tensor, dropout: float,
           rng: np.random.Generator | None) -> Tensor:
    """Dropout on the merged input, then the layer's weights and bias."""
    layer = net.spec.layers[l - 1]
    if dropout:
        merged = apply_dropout(merged, rng.random(merged.shape) >= dropout, dropout)
    if layer.kind == "dense":
        return affine(merged, net.params[f"L{l}.w"], net.params[f"L{l}.b"])
    return conv2d(merged, net.params[f"L{l}.w"], net.params[f"L{l}.b"], layer.stride)


def _bntt(net: Network, l: int, drive: Tensor, start: int, stop: int,
          training: bool) -> Tensor:
    """Layer ``l``'s per-timestep normalization of steps [start, stop)."""
    return bntt_seq(drive, net.params[f"L{l}.bntt_gamma"], net.params[f"L{l}.bntt_beta"],
                    net.state[f"L{l}.bntt_mean"], net.state[f"L{l}.bntt_var"], start, stop,
                    training)


def _run_chunked(net: Network, x: np.ndarray, training: bool, spike_mode: str,
                 surr: SurrogateConfig, dropout: float, rng: np.random.Generator | None,
                 collect: dict[int, np.ndarray | None] | None) -> ForwardResult:
    """Chunks of ``_chunk_steps`` steps, each layer-major: a layer processes
    all steps of the chunk at once, as [steps * batch, ...] arrays of timestep
    blocks. Each layer that a skip payload, ``collect`` or the result reads
    keeps the list of its chunk outputs; without a tape, any other layer's
    output is freed once the next layer has read it. Each LIF and accumulator
    layer carries its state into the next chunk. Under a tape, several
    one-step chunks carry it as tape tensors, through ``lif_step``'s
    ``LifState`` and the accumulator's own output, and their outputs are
    stacked; without a tape, every chunk, one step long or longer, carries
    ``lif_scan``'s arrays, which no backward pass reaches, and the outputs are
    joined by ``window``."""
    spec = net.spec
    T, batch = x.shape[:2]
    steps = _chunk_steps(spec)
    stats = SpikeStats({l: np.zeros(_feature_count(net.shapes[l]))
                        for l, layer in enumerate(spec.layers, start=1)
                        if layer.activation == "lif"}, batch)
    kept = {e.origin for e in spec.tskips} | (set(collect or ()) - {0}) | {spec.depth}
    history: dict[int, list[Tensor]] = {l: [] for l in kept}
    carry: dict[int, object] = {}  # per layer, the state at the end of the last chunk
    taped_steps = active_tape() is not None and 1 == steps < T
    if taped_steps:
        carry = {l: LifState.zeros((batch,) + net.shapes[l])
                 for l, layer in enumerate(spec.layers, start=1) if layer.activation == "lif"}
    for s in range(0, T, steps):
        e = min(s + steps, T)
        h = Tensor(x[s:e].reshape(((e - s) * batch,) + x.shape[2:]))
        if 0 in history:
            history[0].append(h)
        for l in range(1, spec.depth + 1):
            h = _layer_sequence(net, l, h, history, s, e, batch, carry, training, spike_mode,
                                surr, dropout, rng)
            if l in stats.counts:
                # a float64 sum, exact for any count up to 2**53
                stats.counts[l] += h.data.reshape(-1, stats.counts[l].size).sum(
                    axis=0, dtype=np.float64)
            if l in history:
                history[l].append(h)

    for l in set(collect or ()) - {0}:
        chunks = history[l]
        rows = chunks[0].data if len(chunks) == 1 else np.concatenate([c.data for c in chunks])
        collect[l] = rows.reshape((T, batch) + net.shapes[l])
    out = history[spec.depth]
    # stacking the taped one-step outputs keeps their gradients
    outputs = (stack(out) if taped_steps else
               reshape(window(out, 0, T * batch), (T, batch) + net.shapes[spec.depth]))
    return ForwardResult(outputs=outputs, stats=stats)


def _layer_sequence(net: Network, l: int, prev: Tensor, history: dict[int, list[Tensor]],
                    s: int, e: int, batch: int, carry: dict[int, object], training: bool,
                    spike_mode: str, surr: SurrogateConfig, dropout: float,
                    rng: np.random.Generator | None) -> Tensor:
    """Layer ``l``'s output over steps [s, e), from ``prev``, the previous
    layer's output over the same steps, the chunk outputs in ``history`` and,
    through ``carry``, its own state after step s - 1."""
    spec = net.spec
    layer = spec.layers[l - 1]
    # the merged input stays unnamed: without a tape it is freed before the scan
    drive = _drive(net, l, _sequence_input(net, l, prev, history, s, e, batch), dropout, rng)
    if spec.bntt and layer.activation == "lif":
        drive = _bntt(net, l, drive, s, e, training)
    if layer.activation == "lif":
        state = carry.get(l)
        if isinstance(state, LifState):
            h, carry[l] = lif_step(state, drive, net.lif_params(l), surr, spike_mode)
            return h
        p = net.lif_params(l)
        h, carry[l] = lif_scan(drive, p.leak, p.threshold, e - s, p.reset_mode, surr,
                               spike_mode, state)
        return h
    if layer.activation == "li":
        init = carry.get(l, Tensor(np.zeros((batch,) + net.shapes[l], drive.data.dtype)))
        h = li_scan(drive, net.params[f"L{l}.leak"], init)
        # a one-step output is the next step's initial state as it is
        carry[l] = h if e - s == 1 else Tensor(h.data[-batch:].copy())
        return h
    if layer.activation == "relu":
        return relu(drive)
    return drive


def _sequence_input(net: Network, l: int, prev: Tensor, history: dict[int, list[Tensor]],
                    s: int, e: int, batch: int) -> Tensor:
    """Layer ``l``'s feed-forward input ``prev`` over steps [s, e) merged with
    its skip payloads. A payload is steps [s - delta_t, e - delta_t) of its
    origin's output, zeros before step 0; a blend's "now" term is steps
    [s, e), or [s - 1, e - 1) over a backward edge."""
    ff = _flatten_for(net.spec.layers[l - 1], prev)
    merged = ff
    for j, edge in enumerate(net.spec.tskips):
        if edge.dest != l:
            continue
        chunks, dt = history[edge.origin], edge.delta_t
        payload = _payload(net, j, edge, chunks, s - dt, e - dt, batch, ff)
        if edge.alpha:
            lag = 0 if edge.is_forward else 1
            now = _payload(net, j, edge, chunks, s - lag, e - lag, batch, ff)
            payload = _blend(net, j, now, payload)
        merged = _merge(edge, merged, payload)
    return merged


def _payload(net: Network, j: int, edge: TSkip, chunks: list[Tensor], lo: int, hi: int,
             batch: int, ff: Tensor) -> Tensor:
    """Steps [lo, hi) of edge ``j``'s origin output, zeros before step 0,
    mapped onto ``ff``: each chunk output that the steps cover is resized,
    which keeps the copy narrow, and ``window`` cuts the steps from them.
    Every chunk but the last has the first one's length."""
    if hi <= 0:
        return Tensor(np.zeros(ff.shape, ff.data.dtype))
    steps = chunks[0].shape[0] // batch
    first = max(lo, 0) // steps
    blocks = [_resize(net, j, edge, c, ff) for c in chunks[first:(hi - 1) // steps + 1]]
    return window(blocks, (lo - first * steps) * batch, (hi - lo) * batch)


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
               bool: ((bool,), "true or false"), str: ((str,), "a string"),
               list: ((list,), "a list"), dict: ((dict,), "an object")}


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
    except (ValueError, RecursionError) as err:
        raise GraphError(f"spec is not valid JSON: {err}") from None
    return spec_from_dict(d)


def save_spec(spec: ArchSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_spec(spec))


def load_spec(path) -> ArchSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise GraphError(f"cannot read spec: {err}") from None
    return loads_spec(text)
