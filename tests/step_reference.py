"""A plain per-step executor, the reference for ``graph.run_forward``.

It unrolls time-major, one step of every layer at a time, and keeps each
layer's list of step outputs, so a delayed payload is a list lookup and a
step before the start of the sequence reads zeros. It shares the graph's
merge, blend, drive and normalization helpers and advances LIF layers with
``neuron.lif_step``, so each of its steps records the operations of a
one-step chunk, in the same order.
"""

import numpy as np

from tempospike import graph
from tempospike.engine import SurrogateConfig, Tensor, li_scan, relu, stack
from tempospike.neuron import LifState, lif_step


def run_steps(net: graph.Network, x: np.ndarray, mode: str = "eval",
              spike_mode: str = "hard", surr: SurrogateConfig | None = None,
              dropout: float = 0.0, rng: np.random.Generator | None = None,
              collect: dict[int, np.ndarray | None] | None = None) -> graph.ForwardResult:
    """``run_forward``'s result for the same arguments; ``collect`` receives
    layers 1..depth."""
    spec = net.spec
    T, batch = x.shape[:2]
    training = mode == "train"
    surr = surr or SurrogateConfig()
    dropout = dropout if training else 0.0
    outs: list[list[Tensor]] = [[Tensor(x[t]) for t in range(T)]]
    outs += [[] for _ in spec.layers]

    def step(l: int, t: int) -> Tensor:
        return outs[l][t] if t >= 0 else Tensor(np.zeros((batch,) + net.shapes[l]))

    states = {l: LifState.zeros((batch,) + net.shapes[l])
              for l, layer in enumerate(spec.layers, start=1) if layer.activation == "lif"}
    stats = graph.SpikeStats({l: np.zeros(graph._feature_count(net.shapes[l])) for l in states},
                             batch)
    for t in range(T):
        for l, layer in enumerate(spec.layers, start=1):
            ff = merged = graph._flatten_for(layer, outs[l - 1][t])
            for j, edge in enumerate(spec.tskips):
                if edge.dest != l:
                    continue
                payload = graph._resize(net, j, edge, step(edge.origin, t - edge.delta_t), ff)
                if edge.alpha:
                    lag = 0 if edge.is_forward else 1
                    now = graph._resize(net, j, edge, step(edge.origin, t - lag), ff)
                    payload = graph._blend(net, j, now, payload)
                merged = graph._merge(edge, merged, payload)
            drive = graph._drive(net, l, merged, dropout, rng)
            if spec.bntt and layer.activation == "lif":
                drive = graph._bntt(net, l, drive, t, t + 1, training)
            if layer.activation == "lif":
                h, states[l] = lif_step(states[l], drive, net.lif_params(l), surr, spike_mode)
                stats.counts[l] += h.data.reshape(batch, -1).sum(axis=0)
            elif layer.activation == "li":
                h = li_scan(drive, net.params[f"L{l}.leak"], step(l, t - 1))
            elif layer.activation == "relu":
                h = relu(drive)
            else:
                h = drive
            outs[l].append(h)
    for l in collect or ():
        collect[l] = np.stack([h.data for h in outs[l]])
    return graph.ForwardResult(outputs=stack(outs[-1]), stats=stats)
