"""Training-free architecture search over delayed-skip configurations.

Candidates are drawn uniformly from a constrained space (depth, widths, skip
placement, delays) and rejected until they fit the parameter budget. Each
candidate is scored at initialization from one probe batch: per spiking layer,
flatten each sample's spike train over the window, count pairwise agreements
restricted to the positions that were active for at least one probe sample
(so shared silence earns nothing), normalize by the active-position count,
sum the resulting layer kernels, and take the log-determinant. Networks whose
probes produce diverse spike patterns get well-conditioned kernels and high
scores; networks that collapse probes onto identical patterns are rank
deficient and score near the regularization floor.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import (LAYER_KINDS, MERGE_OPS, ArchSpec, LayerSpec, Network, TSkip, cast_input,
                    checked_param_table, run_forward, trainable_count)
from .neuron import RESET_MODES, init_violations

KERNEL_EPS = 1e-6


class SearchError(Exception):
    pass


def _whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _whole_tuple(value, floor: int) -> bool:
    """Whether ``value`` is a non-empty tuple of integers >= ``floor``."""
    return (isinstance(value, tuple) and len(value) > 0
            and all(_whole(v) and v >= floor for v in value))


@dataclass(frozen=True)
class SearchSpace:
    """Sampling ranges for one family of architectures (all bounds inclusive)."""

    input_shape: tuple[int, ...]
    out_units: int
    T: int
    depth_range: tuple[int, int] = (3, 5)
    width_range: tuple[int, int] = (32, 256)
    kind: str = "dense"  # "dense" | "conv2d"
    kernel_choices: tuple[int, ...] = (3, 5)
    stride_choices: tuple[int, ...] = (1, 2)
    tskip_count_range: tuple[int, int] = (1, 2)
    delta_t_range: tuple[int, int] = (1, 1)
    merge_choices: tuple[str, ...] = ("concat",)
    alpha: bool = False
    param_budget: int | None = None
    reset: str = "soft"
    leak_init: float = 0.6
    threshold_init: float = 1.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise SearchError(f"kind must be one of {LAYER_KINDS}, got {self.kind!r}")
        if self.reset not in RESET_MODES:
            raise SearchError(f"reset must be one of {RESET_MODES}, got {self.reset!r}")
        if not _whole(self.T):
            raise SearchError(f"T must be an integer, got {self.T!r}")
        if not (_whole(self.out_units) and self.out_units >= 1):
            raise SearchError(f"out_units must be a positive integer, got {self.out_units!r}")
        dims = (3,) if self.kind == "conv2d" else (1, 3)
        if not (_whole_tuple(self.input_shape, 1) and len(self.input_shape) in dims):
            raise SearchError(f"input_shape must be {' or '.join(map(str, dims))} positive "
                              f"integers for kind {self.kind!r}, got {self.input_shape!r}")
        for name, floor in (("depth_range", 1), ("width_range", 1), ("tskip_count_range", 0),
                            ("delta_t_range", 1)):
            lo_hi = getattr(self, name)
            if not (_whole_tuple(lo_hi, floor) and len(lo_hi) == 2 and lo_hi[0] <= lo_hi[1]):
                raise SearchError(f"{name} must be two integers lo <= hi, both >= {floor}, "
                                  f"got {lo_hi!r}")
        for name in ("kernel_choices", "stride_choices"):
            if not _whole_tuple(getattr(self, name), 1):
                raise SearchError(f"{name} must be a non-empty list of positive integers, "
                                  f"got {getattr(self, name)!r}")
        if not (isinstance(self.merge_choices, tuple) and self.merge_choices
                and all(m in MERGE_OPS for m in self.merge_choices)):
            raise SearchError(f"merge_choices must be a non-empty list drawn from {MERGE_OPS}, "
                              f"got {self.merge_choices!r}")
        if not isinstance(self.alpha, bool):
            raise SearchError(f"alpha must be true or false, got {self.alpha!r}")
        if self.delta_t_range[1] > self.T - 1:
            raise SearchError(
                f"delta_t range {self.delta_t_range} must lie within [1, T-1={self.T - 1}]")
        budget = self.param_budget
        if budget is not None and (isinstance(budget, bool) or not 0 < budget < math.inf):
            raise SearchError(f"param_budget must be finite and positive, got {budget}")
        violations = init_violations(self.leak_init, self.threshold_init)
        if violations:
            raise SearchError("; ".join(violations))


@dataclass(frozen=True)
class CandidateScore:
    spec: ArchSpec
    score: float
    seed: int
    degenerate: bool = False


def _draw_spec(space: SearchSpace, rng: np.random.Generator) -> ArchSpec:
    depth = int(rng.integers(space.depth_range[0], space.depth_range[1] + 1))
    layers = []
    for i in range(depth - 1):
        width = int(rng.integers(space.width_range[0], space.width_range[1] + 1))
        if space.kind == "dense":
            layers.append(LayerSpec(kind="dense", out=width))
        else:
            k = int(rng.choice(space.kernel_choices))
            s = int(rng.choice(space.stride_choices))
            layers.append(LayerSpec(kind="conv2d", out=width, kernel=k, stride=s))
    layers.append(LayerSpec(kind="dense", out=space.out_units, activation="li"))

    n_skips = int(rng.integers(space.tskip_count_range[0], space.tskip_count_range[1] + 1))
    pairs = [(o, d) for o in range(depth + 1) for d in range(1, depth + 1) if o != d]
    edges = []
    if n_skips > len(pairs):
        n_skips = len(pairs)
    chosen = rng.choice(len(pairs), size=n_skips, replace=False) if n_skips else []
    for c in chosen:
        origin, dest = pairs[int(c)]
        dt = int(rng.integers(space.delta_t_range[0], space.delta_t_range[1] + 1))
        merge = str(rng.choice(space.merge_choices))
        edges.append(TSkip(origin=origin, dest=dest, delta_t=dt, merge=merge,
                           alpha=space.alpha))
    return ArchSpec(input_shape=space.input_shape, layers=tuple(layers),
                    tskips=tuple(edges), T=space.T, reset=space.reset,
                    leak_init=space.leak_init, threshold_init=space.threshold_init)


def sample(space: SearchSpace, rng: np.random.Generator,
           max_attempts: int = 1000) -> ArchSpec:
    """Uniform draw per dimension, rejection-resampled until the candidate is
    valid and fits the parameter budget."""
    for _ in range(max_attempts):
        spec = _draw_spec(space, rng)
        violations, table = checked_param_table(spec)
        if violations:
            continue
        if space.param_budget is not None and trainable_count(table) > space.param_budget:
            continue
        return spec
    raise SearchError(f"no admissible architecture found in {max_attempts} attempts; "
                      "the budget may be infeasible")


def _binarize(seq: np.ndarray) -> np.ndarray:
    """Flatten a layer's [T, B, ...] output sequence into (B, T * features)
    bits, step-major within each row."""
    return np.moveaxis(seq > 0, 0, 1).reshape(seq.shape[1], -1).astype(np.float64)


def sahd_kernel(layer_trains: list[np.ndarray]) -> tuple[np.ndarray, bool]:
    """Pairwise agreement kernel over active positions, summed across layers.

    For each layer: restrict to columns where any sample spiked, count
    matching bits per sample pair, and divide by the active-column count.
    Returns the kernel and a degeneracy flag (True if every layer was silent).
    """
    b = layer_trains[0].shape[0]
    kernel = np.zeros((b, b))
    any_active = False
    for bits in layer_trains:
        active = bits.any(axis=0)
        n_active = int(active.sum())
        if n_active == 0:
            continue
        any_active = True
        sub = bits[:, active]
        agree = sub @ sub.T + (1.0 - sub) @ (1.0 - sub).T
        kernel += agree / max(1, n_active)
    return kernel, not any_active


def sahd_score(spec: ArchSpec, probe_batch: np.ndarray, seed: int = 0) -> CandidateScore:
    """Score an untrained architecture by the diversity of the spike patterns
    its initialization produces on a probe batch. The forward pass runs in
    float32: the score reads only which neurons cross threshold, and the
    kernel and its log-determinant stay float64."""
    if probe_batch.shape[1] < 2:
        raise SearchError("probe batch must contain at least 2 samples")
    net = Network.build(spec, seed=seed)
    lif_layers = [i for i, l in enumerate(spec.layers, start=1) if l.activation == "lif"]
    if not lif_layers:
        raise SearchError("architecture has no spiking layers to score")
    per_layer: dict[int, np.ndarray | None] = {i: None for i in lif_layers}
    run_forward(net, probe_batch, mode="eval", collect=per_layer, dtype=np.float32)
    trains = [_binarize(per_layer.pop(l)) for l in sorted(per_layer)]
    kernel, degenerate = sahd_kernel(trains)
    b = kernel.shape[0]
    sign, logdet = np.linalg.slogdet(kernel + KERNEL_EPS * np.eye(b))
    score = float(logdet) if sign > 0 else float("-inf")
    if not math.isfinite(score):
        score = b * math.log(KERNEL_EPS)
        degenerate = True
    return CandidateScore(spec=spec, score=score, seed=seed, degenerate=degenerate)


def random_search(space: SearchSpace, n_candidates: int, probe_batch: np.ndarray,
                  k: int, master_seed: int = 0,
                  parallel: int | None = None) -> list[CandidateScore]:
    """Sample and score n candidates, return the k best.

    Rankings are a pure function of (space, master_seed, probe_batch): every
    candidate gets its own pre-split seed, so serial and parallel execution
    agree exactly. ``parallel`` threads score the candidates, but never more
    threads than candidates or than the machine has cores. The probe is cast
    to float32 once, for every candidate's forward pass.
    """
    if not 1 <= k <= n_candidates:
        raise SearchError(f"need 1 <= k <= n_candidates, got k={k}, n_candidates={n_candidates}")
    probe_batch = cast_input(probe_batch, np.float32)
    seeds = np.random.SeedSequence(master_seed).spawn(n_candidates)
    specs = []
    for ss in seeds:
        sample_ss, weight_ss = ss.spawn(2)
        rng = np.random.default_rng(sample_ss)
        weight_seed = int(np.random.default_rng(weight_ss).integers(2**31 - 1))
        specs.append((sample(space, rng), weight_seed))

    def score_one(item):
        spec, seed = item
        return sahd_score(spec, probe_batch, seed=seed)

    workers = min(parallel or 1, n_candidates, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(score_one, specs))
    else:
        scored = [score_one(item) for item in specs]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].score, i))
    return [scored[i] for i in order[:k]]


def kendall_tau(a, b) -> float:
    """Kendall rank correlation with tie correction (tau-b) of two rankings
    of finite values."""
    a, b = np.asarray(list(a)), np.asarray(list(b))
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("tau undefined: a ranking holds a non-finite value")
    i, j = np.triu_indices(n, 1)
    # each pair's order from comparisons, which cannot overflow as a difference can
    sa, sb = ((x[i] > x[j]).astype(np.int64) - (x[i] < x[j]) for x in (a, b))
    denom = math.sqrt(np.count_nonzero(sa) * np.count_nonzero(sb))
    if denom == 0:
        raise ValueError("tau undefined: one ranking is constant")
    return int(sa @ sb) / denom


def count_tskip_space(n_layers: int, n_delay_values: int) -> tuple[int, int, int]:
    """Size of the raw skip-configuration space for a stack of n_layers
    (plus the input node): ordered origin/destination pairs, pairs annotated
    with one of n_delay_values delays, and the power set of annotated slots."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if n_delay_values < 1:
        raise ValueError("need at least one delay value")
    nodes = n_layers + 1
    edge_slots = nodes * (nodes - 1)
    annotated = edge_slots * n_delay_values
    return edge_slots, annotated, 2 ** annotated


# Constraint presets: sequence length, admissible delays, and parameter budget
# per task family.
PRESETS: dict[str, dict] = {
    "flow": {"T": 10, "delta_t_range": (2, 6), "param_budget": None, "kind": "conv2d",
             "input_shape": (2, 16, 16), "out_units": 2, "reset": "hard"},
    "dvs": {"T": 30, "delta_t_range": (5, 14), "param_budget": 600_000, "kind": "conv2d",
            "input_shape": (2, 64, 64), "out_units": 11, "reset": "soft"},
    "shd": {"T": 99, "delta_t_range": (10, 45), "param_budget": 300_000, "kind": "dense",
            "input_shape": (700,), "out_units": 20, "reset": "soft"},
    "ssc": {"T": 99, "delta_t_range": (10, 45), "param_budget": 300_000, "kind": "dense",
            "input_shape": (700,), "out_units": 35, "reset": "soft"},
}


def preset_space(name: str, **overrides) -> SearchSpace:
    if name not in PRESETS:
        raise SearchError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = dict(PRESETS[name])
    cfg.update(overrides)
    cfg["input_shape"] = tuple(cfg["input_shape"])
    return SearchSpace(**cfg)
