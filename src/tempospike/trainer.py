"""Backpropagation-through-time training: Adam, learning-rate schedules,
losses, the epoch loop, and checkpoints.

Classification readout: the final layer is a non-spiking leaky accumulator
whose potential is summed over the whole window and fed to the loss, which
keeps the output differentiable without decoding heuristics.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    SurrogateConfig,
    Tape,
    Tensor,
    cross_entropy,
    mse,
    spatial_mean,
    sum_steps,
)
from .graph import (
    ArchSpec,
    Network,
    SpecValidationError,
    SpikeStats,
    run_forward,
    spec_from_dict,
    spec_to_dict,
    typed,
    validate,
)
from .neuron import clamp_leak, clamp_params
from .data import Dataset


class TrainError(Exception):
    pass


class DivergenceError(TrainError):
    """Training produced non-finite values; aborted with a diagnostic."""


class ConfigError(ValueError):
    """A training setting lies outside its range."""


def split_seed(master: int, label: str) -> np.random.Generator:
    """Named, order-independent child stream of one master seed."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    child = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence((int(master), child)))


@dataclass(frozen=True)
class CosineSchedule:
    """Anneals from lr_init to lr_min over total_steps, advancing the cosine
    phase once every ``update_every`` iterations."""

    lr_init: float = 1e-3
    lr_min: float = 5e-6
    total_steps: int = 1
    update_every: int = 10

    def lr_at(self, iteration: int) -> float:
        total_updates = max(1, self.total_steps // self.update_every)
        k = min(iteration // self.update_every, total_updates)
        return self.lr_min + 0.5 * (self.lr_init - self.lr_min) * (
            1.0 + math.cos(math.pi * k / total_updates))


@dataclass(frozen=True)
class MultiStepSchedule:
    """Scales lr_init by gamma once every ``every`` epochs."""

    lr_init: float = 1e-3
    gamma: float = 0.7
    every: int = 10

    def lr_at(self, epoch: int) -> float:
        return self.lr_init * self.gamma ** (epoch // self.every)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(params: dict[str, Tensor], grads: dict[Tensor, np.ndarray],
              state: AdamState, lr: float) -> AdamState:
    """Standard Adam update with bias correction; parameters without a
    gradient on this step are left untouched, and a non-finite gradient, or
    one whose update overflows, raises ``DivergenceError``."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        g = np.asarray(g, dtype=np.float64).reshape(p.data.shape)
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p.data)
        try:
            with np.errstate(over="raise", invalid="raise"):
                m *= state.beta1
                m += (1.0 - state.beta1) * g
                v *= state.beta2
                v += (1.0 - state.beta2) * g * g
                p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        except FloatingPointError as err:
            raise DivergenceError(f"non-finite update for parameter {name!r}: {err}") from None
    return state


def clip_grads(grads: dict[Tensor, np.ndarray], max_norm: float,
               norm: float | None = None) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm. ``norm``
    defaults to the norm of ``grads``; training passes the norm of its whole
    backward sweep (``Tape.grad_norm``)."""
    if norm is None:
        norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if norm > max_norm > 0:
        scale = max_norm / norm
        for t in list(grads):
            grads[t] = grads[t] * scale
    return norm


def loss(readout: Tensor, target, kind: str) -> Tensor:
    """``mse`` on matching tensors (integer labels are one-hot encoded), or
    softmax ``cross_entropy`` over class logits."""
    if kind == "cross_entropy":
        return cross_entropy(readout, target)
    if kind == "mse":
        if not isinstance(target, Tensor):
            arr = np.asarray(target)
            if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
                onehot = np.zeros(readout.shape)
                onehot[np.arange(arr.shape[0]), arr] = 1.0
                arr = onehot
            target = Tensor(arr)
        return mse(readout, target)
    raise ValueError(f"unknown loss kind {kind!r}")


SCHEDULERS = ("cosine", "multistep")
LOSSES = ("cross_entropy", "mse")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    lr_init: float = 1e-3
    scheduler: str = "cosine"  # one of SCHEDULERS
    lr_min: float = 5e-6
    gamma: float = 0.7
    step_every: int = 10
    loss: str = "cross_entropy"  # one of LOSSES
    dropout: float = 0.0
    seed: int = 0
    bntt: bool | None = None  # None = leave the spec as written
    grad_clip: float = 10.0
    surrogate_alpha: float = 2.0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "step_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lr_init < math.inf:
            raise ConfigError(f"lr_init must be finite and positive, got {self.lr_init}")
        if not 0.0 <= self.lr_min < math.inf:
            raise ConfigError(f"lr_min must be finite and >= 0, got {self.lr_min}")
        if not 0.0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be finite and positive, got {self.gamma}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not self.grad_clip >= 0.0:  # 0 turns clipping off
            raise ConfigError(f"grad_clip must be >= 0, got {self.grad_clip}")
        if not 0.0 < self.surrogate_alpha < math.inf:
            raise ConfigError(f"surrogate_alpha must be finite and positive, "
                              f"got {self.surrogate_alpha}")
        for name, kinds in (("scheduler", SCHEDULERS), ("loss", LOSSES)):
            if getattr(self, name) not in kinds:
                raise ConfigError(f"{name} must be one of {', '.join(kinds)}, "
                                  f"got {getattr(self, name)!r}")


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    accuracy: float
    spike_rate: float
    lr: float

    def csv_row(self) -> str:
        return (f"{self.epoch},{self.split},{self.loss:.10g},{self.accuracy:.10g},"
                f"{self.spike_rate:.10g},{self.lr:.10g}")


METRICS_HEADER = "epoch,split,loss,accuracy,spike_rate,lr"


def readout_logits(outputs: Tensor) -> Tensor:
    """Sum the final layer's [T, batch, ...] potentials over the window;
    spatial dims, if any, are averaged away."""
    return spatial_mean(sum_steps(outputs))


def _batches(n: int, batch_size: int, rng: np.random.Generator | None):
    order = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _check_labels(ds: Dataset, spec: ArchSpec) -> None:
    """Labels must index the readout's units; a negative one would silently
    pick a logit from the end."""
    classes = spec.layers[-1].out
    if len(ds) and not (0 <= ds.labels.min() and ds.labels.max() < classes):
        raise TrainError(f"labels must lie in [0, {classes}) for this readout, got "
                         f"[{ds.labels.min()}, {ds.labels.max()}]")


def evaluate(net: Network, ds: Dataset, cfg: TrainConfig) -> tuple[float, float, SpikeStats]:
    """Loss, accuracy, and aggregated spike statistics on a dataset, in
    batches of ``cfg.batch_size``."""
    _check_labels(ds, net.spec)
    total_loss = 0.0
    hits = 0
    agg = SpikeStats()
    for idx in _batches(len(ds), cfg.batch_size, rng=None):
        xb = np.transpose(ds.inputs[idx], (1, 0) + tuple(range(2, ds.inputs.ndim)))
        yb = ds.labels[idx]
        result = run_forward(net, xb, mode="eval")
        logits = readout_logits(result.outputs)
        lval = loss(logits, yb, cfg.loss)
        total_loss += lval.item() * len(idx)
        hits += int((logits.data.argmax(axis=1) == yb).sum())
        agg.accumulate(result.stats)
    n = max(1, len(ds))
    return total_loss / n, hits / n, agg


def train(spec: ArchSpec, train_ds: Dataset, cfg: TrainConfig,
          val_ds: Dataset | None = None, log_path=None,
          progress=None) -> tuple[Network, list[EpochRecord]]:
    """Run the full training loop; returns the trained network and the
    per-epoch metrics log. Deterministic given (spec, dataset, cfg.seed)."""
    violations = validate(spec)
    if violations:
        raise SpecValidationError(violations)
    if len(train_ds) == 0:
        raise TrainError("training dataset is empty")
    _check_labels(train_ds, spec)
    if val_ds is not None:
        _check_labels(val_ds, spec)
    if cfg.bntt is not None and cfg.bntt != spec.bntt:
        spec = replace(spec, bntt=cfg.bntt)
    if spec.bntt and any(layer.activation == "lif" for layer in spec.layers) and (
            cfg.batch_size == 1 or len(train_ds) % cfg.batch_size == 1):
        raise TrainError(f"BNTT needs at least 2 samples in every training batch; "
                         f"{len(train_ds)} samples in batches of {cfg.batch_size} "
                         f"leave a batch of 1")

    net = Network.build(spec, seed=int(split_seed(cfg.seed, "init").integers(2**31 - 1)))
    shuffle_rng = split_seed(cfg.seed, "shuffle")
    dropout_rng = split_seed(cfg.seed, "dropout")
    surr = SurrogateConfig(cfg.surrogate_alpha)
    steps_per_epoch = max(1, -(-len(train_ds) // cfg.batch_size))
    if cfg.scheduler == "cosine":
        sched = CosineSchedule(cfg.lr_init, cfg.lr_min,
                               total_steps=cfg.epochs * steps_per_epoch,
                               update_every=cfg.step_every)
    else:
        sched = MultiStepSchedule(cfg.lr_init, cfg.gamma, cfg.step_every)

    adam = AdamState()
    records: list[EpochRecord] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    if log_fh:
        log_fh.write(METRICS_HEADER + "\n")

    iteration = 0
    lr = cfg.lr_init
    try:
        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            epoch_hits = 0
            epoch_stats = SpikeStats()
            for idx in _batches(len(train_ds), cfg.batch_size, shuffle_rng):
                lr = sched.lr_at(iteration if cfg.scheduler == "cosine" else epoch)
                xb = np.transpose(train_ds.inputs[idx],
                                  (1, 0) + tuple(range(2, train_ds.inputs.ndim)))
                yb = train_ds.labels[idx]
                with Tape() as tape:
                    result = run_forward(net, xb, mode="train", surr=surr,
                                         dropout=cfg.dropout, rng=dropout_rng)
                    logits = readout_logits(result.outputs)
                    batch_loss = loss(logits, yb, cfg.loss)
                if not math.isfinite(batch_loss.item()):
                    raise DivergenceError(f"loss is {batch_loss.item()}")
                grads = tape.backward(batch_loss)
                clip_grads(grads, cfg.grad_clip, tape.grad_norm)
                adam_step(net.params, grads, adam, lr)
                for i, layer in enumerate(spec.layers, start=1):
                    if layer.activation == "lif":
                        clamp_params(net.lif_params(i))
                    elif layer.activation == "li":
                        clamp_leak(net.params[f"L{i}.leak"])
                epoch_loss += batch_loss.item() * len(idx)
                epoch_hits += int((logits.data.argmax(axis=1) == yb).sum())
                epoch_stats.accumulate(result.stats)
                iteration += 1

            rec = EpochRecord(epoch, "train", epoch_loss / len(train_ds),
                              epoch_hits / len(train_ds), epoch_stats.overall_rate(), lr)
            records.append(rec)
            if log_fh:
                log_fh.write(rec.csv_row() + "\n")
            if val_ds is not None:
                vloss, vacc, vstats = evaluate(net, val_ds, cfg)
                if not math.isfinite(vloss):
                    raise DivergenceError(f"validation loss is {vloss}")
                vrec = EpochRecord(epoch, "val", vloss, vacc, vstats.overall_rate(), lr)
                records.append(vrec)
                if log_fh:
                    log_fh.write(vrec.csv_row() + "\n")
            if log_fh:
                log_fh.flush()
            if progress is not None and progress(epoch, records):
                break
    except DivergenceError as err:
        raise DivergenceError(f"training diverged at epoch {epoch}, iteration {iteration}: "
                              f"{err}") from err
    finally:
        if log_fh:
            log_fh.close()
    return net, records


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path, net: Network, extra: dict | None = None) -> None:
    """Parameter blob plus the architecture, under a versioned header."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "spec": spec_to_dict(net.spec),
        "seed": net.seed,
        "extra": extra or {},
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for name, p in net.params.items():
        arrays[f"p::{name}"] = p.data
    for name, arr in net.state.items():
        arrays[f"s::{name}"] = arr
    for j, selection in enumerate(net.shortcuts):
        arrays[f"sel::{j}"] = np.asarray(selection, dtype=np.int64)
    np.savez_compressed(path, **arrays)


def _read_npz(path) -> dict[str, np.ndarray]:
    """Every array of an npz archive; a path that cannot be read as one
    raises ``TrainError``."""
    try:
        with open(path, "rb") as fh:
            blob = np.load(fh, allow_pickle=False)
            if not isinstance(blob, np.lib.npyio.NpzFile):
                raise TrainError(f"checkpoint {path} is a single array, not an npz archive")
            with blob:
                return {key: blob[key] for key in blob.files}
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as err:
        raise TrainError(f"cannot read checkpoint {path}: {err}") from err


def load_checkpoint(path) -> tuple[Network, dict]:
    """Rebuild the network from the stored spec and seed, then load its
    parameters and running statistics. Every ``p::``/``s::`` array must be
    present, finite and of the rebuilt shape; the rebuilt shortcut selections
    are the ones used, and the stored ``sel::`` arrays must agree with them. A
    file that is not an npz archive with a JSON ``meta`` object, holding a
    ``spec`` and an integer ``seed`` >= 0, raises ``TrainError``."""
    arrays = _read_npz(path)
    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (KeyError, ValueError, RecursionError) as err:
        raise TrainError(f"checkpoint {path} has no readable 'meta' record") from err
    if not isinstance(meta, dict):
        raise TrainError(f"checkpoint {path} meta must be a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise TrainError(f"unsupported checkpoint version {meta.get('version')}")
    if "spec" not in meta:
        raise TrainError(f"checkpoint {path} meta has no 'spec'")
    try:
        seed = typed(meta.get("seed"), int, "checkpoint seed")
    except TypeError as err:
        raise TrainError(str(err)) from None
    if seed < 0:
        raise TrainError(f"checkpoint seed must be >= 0, got {seed}")
    net = Network.build(spec_from_dict(meta["spec"]), seed=seed)
    targets = {f"p::{name}": p.data for name, p in net.params.items()}
    targets.update((f"s::{name}", arr) for name, arr in net.state.items())
    for key, target in targets.items():
        if key not in arrays:
            raise TrainError(f"checkpoint lacks array {key!r}")
        if arrays[key].shape != target.shape:
            raise TrainError(f"checkpoint array {key!r} has shape {arrays[key].shape}, "
                             f"the network needs {target.shape}")
        if arrays[key].dtype.kind not in "biuf" or not np.isfinite(arrays[key]).all():
            raise TrainError(f"checkpoint array {key!r} must hold finite numbers")
        target[...] = arrays[key]
    for j, selection in enumerate(net.shortcuts):
        key = f"sel::{j}"
        if key not in arrays or tuple(arrays[key].tolist()) != selection:
            raise TrainError(f"checkpoint shortcut selection {key!r} differs from the "
                             f"one its spec and seed rebuild")
    return net, meta.get("extra", {})
