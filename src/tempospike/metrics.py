"""Task metrics and the synaptic-operation energy model.

Energy follows the 45nm accounting: spiking layers pay one accumulate per
synaptic event (ops = T * N * C * M with M the layer's average spike rate over
the window), conventional layers pay one multiply-accumulate per connection
(ops = N * C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import ArchSpec, SpikeStats, infer_shapes, param_table, weight_fan_in

E_AC_JOULES = 0.9e-12
E_MAC_JOULES = 4.6e-12


@dataclass(frozen=True)
class EnergyModel:
    e_ac: float = E_AC_JOULES
    e_mac: float = E_MAC_JOULES

    def __post_init__(self):
        if self.e_ac <= 0 or self.e_mac <= 0:
            raise ValueError("per-operation energies must be positive")


@dataclass(frozen=True)
class LayerOpsProfile:
    """Per-layer operation counts: N neurons, C synaptic connections per
    neuron, M average spike rate over the window (spiking layers only)."""

    name: str
    kind: str  # "snn" | "ann"
    neurons: int
    fan_in: int
    spike_rate: float = 0.0
    T: int = 1

    def ops(self) -> float:
        if self.kind == "snn":
            return self.T * self.neurons * self.fan_in * self.spike_rate
        return float(self.neurons * self.fan_in)


@dataclass
class EnergyReport:
    rows: list[dict] = field(default_factory=list)

    @property
    def total_ops(self) -> float:
        return sum(r["ops"] for r in self.rows)

    @property
    def total_joules(self) -> float:
        return sum(r["energy_j"] for r in self.rows)

    def to_csv(self) -> str:
        lines = ["layer,kind,neurons,fan_in,spike_rate,ops,energy_j"]
        for r in self.rows:
            lines.append(f"{r['layer']},{r['kind']},{r['neurons']},{r['fan_in']},"
                         f"{r['spike_rate']:.6g},{r['ops']:.6g},{r['energy_j']:.6g}")
        lines.append(f"total,,,,,{self.total_ops:.6g},{self.total_joules:.6g}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = f"{'layer':>8} {'kind':>5} {'#OPS':>12} {'rate (M)':>10} {'rate %/T':>9} {'E (mJ)':>10}"
        lines = [head, "-" * len(head)]
        for r in self.rows:
            pct = 100.0 * r["spike_rate"] / r["T"] if r["T"] else 0.0
            lines.append(f"{r['layer']:>8} {r['kind']:>5} {r['ops']:>12.4g} "
                         f"{r['spike_rate']:>10.4g} {pct:>9.3g} {r['energy_j'] * 1e3:>10.4g}")
        lines.append(f"{'total':>8} {'':>5} {self.total_ops:>12.4g} {'':>10} {'':>9} "
                     f"{self.total_joules * 1e3:>10.4g}")
        return "\n".join(lines) + "\n"


def energy_total(profiles: list[LayerOpsProfile], model: EnergyModel | None = None) -> EnergyReport:
    model = model or EnergyModel()
    report = EnergyReport()
    for p in profiles:
        ops = p.ops()
        per_op = model.e_ac if p.kind == "snn" else model.e_mac
        report.rows.append({
            "layer": p.name, "kind": p.kind, "neurons": p.neurons, "fan_in": p.fan_in,
            "spike_rate": p.spike_rate, "T": p.T, "ops": ops, "energy_j": ops * per_op,
        })
    return report


def energy_from_ops(ops_snn: float = 0.0, ops_ann: float = 0.0,
                    model: EnergyModel | None = None) -> float:
    """Total joules given raw operation counts; the direct arithmetic check."""
    model = model or EnergyModel()
    return ops_snn * model.e_ac + ops_ann * model.e_mac


def profile_network(spec: ArchSpec, stats: SpikeStats) -> list[LayerOpsProfile]:
    """Build per-layer profiles from a spec and measured spike statistics.

    Spiking layers (including the non-spiking accumulator readout, whose
    emitted rate is zero) count as event-driven; relu/linear layers count as
    dense multiply-accumulate consumers.
    """
    shapes = infer_shapes(spec)
    weights = {p.name: p.shape for p in param_table(spec)}
    rates = stats.rates()
    profiles = []
    for i, layer in enumerate(spec.layers, start=1):
        kind = "snn" if layer.activation in ("lif", "li") else "ann"
        profiles.append(LayerOpsProfile(
            name=f"L{i}", kind=kind, neurons=int(np.prod(shapes[i])),
            fan_in=weight_fan_in(weights[f"L{i}.w"]), spike_rate=rates.get(i, 0.0), T=spec.T))
    return profiles


def aee(pred_flow: np.ndarray, gt_flow: np.ndarray) -> float:
    """Average endpoint error: mean Euclidean distance between flow vectors."""
    pred = np.asarray(pred_flow, dtype=np.float64)
    gt = np.asarray(gt_flow, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ValueError(f"expected matching (n, 2) flow fields, got {pred.shape} vs {gt.shape}")
    if pred.shape[0] == 0:
        raise ValueError("aee needs at least one flow vector")
    return float(np.linalg.norm(pred - gt, axis=1).mean())


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax matches; ties break to the lowest class index."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError(f"batch mismatch: {logits.shape[0]} logits vs {labels.shape[0]} labels")
    if labels.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())
