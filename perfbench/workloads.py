"""The benchmark's workloads: input generators, set-up, one timed job, and the
fixed-seed reference run each output check compares against.

Every input file is written from the run's seed before timing starts; the
timed code only ever sees those files. Audio-style inputs are generated and
written with the program's own ``gen_delayed_recall`` and ``save_dataset``, so
a change to either changes the inputs, and ``reference.json`` must then be
regenerated. Each workload is a closed loop: one job runs to completion
before the next starts.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Program functions are called through their modules, so that the tracer's
# wrappers, which replace module attributes, see these calls too.
from tempospike import data, nas, trainer
from tempospike.data import BinningConfig, Dataset
from tempospike.graph import TSkip, from_shorthand, mlp_spec, spec_to_dict
from tempospike.trainer import TrainConfig

REFERENCE_SEED = 20241

# The criterion-5 training recipe of the acceptance suite.
RECIPE = dict(batch_size=125, lr_init=1e-2, scheduler="cosine", lr_min=5e-6,
              loss="cross_entropy", bntt=False, surrogate_alpha=4.0)


@dataclass
class JobResult:
    """What one job did: outputs that must repeat exactly, and its timings."""

    outputs: tuple
    item_seconds: list[float]
    work_units: int  # training samples or candidates
    work_seconds: float
    eval_calls: list[tuple[int, float]]  # (samples, seconds) per tape-free forward

    @property
    def items_per_second(self) -> float:
        return self.work_units / self.work_seconds


@contextlib.contextmanager
def clocked(owner, attr: str, on_return):
    """Call ``on_return(start, end, result)`` after each call of ``owner.attr``.

    Costs two clock reads per call, so untraced runs use it to time steps and
    candidates; the previous binding is put back on exit.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        on_return(start, time.perf_counter(), result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# input generators

def write_visual_set(out_dir: Path, n: int, seed: int, T: int, window_us: int,
                     events: int = 600, side: int = 16) -> Path:
    """Per-sample ``x,y,t_us,p`` CSVs; half of each sample's events fall in a
    4x4 block chosen by its class. The manifest lists files and labels."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 10)
    samples = []
    for i in range(n):
        ts = np.sort(rng.integers(0, window_us, size=events))
        xs = rng.integers(0, side, size=events)
        ys = rng.integers(0, side, size=events)
        half = events // 2
        bx, by = divmod(int(labels[i]), 4)
        xs[:half] = 4 * bx + rng.integers(0, 4, size=half)
        ys[:half] = 4 * by + rng.integers(0, 4, size=half)
        ps = rng.integers(0, 2, size=events)
        name = f"v{i:05d}.csv"
        rows = "".join(f"{x},{y},{t},{p}\n" for x, y, t, p in zip(xs, ys, ts, ps))
        (out_dir / name).write_text("x,y,t_us,p\n" + rows, encoding="utf-8")
        samples.append({"file": name, "label": int(labels[i])})
    path = out_dir / "manifest.json"
    path.write_text(json.dumps({"T": T, "window_us": window_us, "side": side,
                                "samples": samples}), encoding="utf-8")
    return path


def load_visual_set(manifest: Path) -> Dataset:
    meta = json.loads(manifest.read_text(encoding="utf-8"))
    cfg = BinningConfig(T=meta["T"], window=float(meta["window_us"]))
    side = meta["side"]
    inputs = []
    for entry in meta["samples"]:
        text = (manifest.parent / entry["file"]).read_text(encoding="utf-8")
        inputs.append(data.bin_events(data.parse_events(text, sensor_size=(side, side)), cfg))
    labels = np.asarray([e["label"] for e in meta["samples"]], dtype=np.int64)
    return Dataset(np.stack(inputs), labels)


# ---------------------------------------------------------------------------
# workloads

def phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class TrainWorkload:
    """Train one epoch from scratch, then evaluate. Subclasses give the
    ``spec``, the ``config`` for a model seed, and how to ``write`` and
    ``read`` their input files."""

    item = "step"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.datasets = None

    def write_inputs(self) -> None:
        self.manifests = self.write(self.workdir / "inputs", self.n_train, self.n_val, self.seed)

    def load(self) -> int:
        # drop the previous load first, so repeated set-ups do not stack up
        # two copies in the peak memory
        self.datasets = None
        self.datasets = tuple(self.read(m) for m in self.manifests)
        return sum(len(d) for d in self.datasets)

    def run_once(self, train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig, tracer=None):
        stamps, losses, evals = [], [], []
        with clocked(trainer, "adam_step", lambda s, e, r: stamps.append(e)), \
                clocked(trainer, "loss", lambda s, e, r: losses.append(float(r.data))):
            start = time.perf_counter()
            with phase(tracer, "bench.train"):
                net, records = trainer.train(self.spec(), train_ds, cfg)
            end = time.perf_counter()
        with phase(tracer, "bench.eval"), clocked(trainer, "run_forward", lambda s, e, r: evals.append(
                (r.stats.samples, e - s))):
            val_loss, val_acc, _ = trainer.evaluate(net, val_ds, cfg)
        steps = np.diff([start] + stamps).tolist()
        outputs = (tuple(losses), tuple(r.loss for r in records), val_loss, val_acc)
        return JobResult(outputs, steps, len(train_ds), end - start, evals)

    def job(self, tracer=None) -> JobResult:
        train_ds, val_ds = self.datasets
        return self.run_once(train_ds, val_ds, self.config(self.seed), tracer)

    def reference_values(self, cfg_seed: int = REFERENCE_SEED) -> dict:
        manifests = self.write(self.workdir / "reference", self.n_ref, self.n_ref_val,
                               REFERENCE_SEED)
        train_ds, val_ds = (self.read(m) for m in manifests)
        result = self.run_once(train_ds, val_ds, self.config(cfg_seed))
        losses, epoch_losses, val_loss, val_acc = result.outputs
        # the last step's loss follows every update but the last, so it
        # depends on the backward pass; the epoch loss includes the first,
        # untrained step
        return {"train_loss": epoch_losses[-1], "last_step_loss": losses[-1],
                "val_loss": val_loss, "val_accuracy": val_acc}


class RecallTrain(TrainWorkload):
    """Criterion-5 model on delayed recall (D=16, T=99): dense, forward skip
    edge only, batch 125; the backward pass dominates a step."""

    n_train, n_val = 1000, 500
    n_ref, n_ref_val = 250, 125

    def spec(self):
        return mlp_spec([11, 64, 64, 64, 10], T=99,
                        tskips=[TSkip(origin=0, dest=1, delta_t=16, merge="concat")])

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=1, seed=seed, **RECIPE)

    def write(self, out_dir, n_train, n_val, seed):
        ds = data.gen_delayed_recall(16, 99, n_train + n_val, seed=seed)
        return (data.save_dataset(Dataset(ds.inputs[:n_train], ds.labels[:n_train]), out_dir / "train"),
                data.save_dataset(Dataset(ds.inputs[n_train:], ds.labels[n_train:]), out_dir / "val"))

    def read(self, manifest):
        return data.load_dataset(manifest)


class ConvBackedgeTrain(TrainWorkload):
    """Conv stack with a backward concat edge 3->2 (dt=4), BNTT, dropout 0.2
    and hard reset on binned visual events; the back edge keeps it time-major."""

    n_train, n_val = 192, 32
    # a whole job's six steps: fewer updates leave the val set at chance
    n_ref, n_ref_val = 192, 64
    T, window_us = 20, 20_000

    def spec(self):
        return from_shorthand("2x16x16-3c16s2-3c32s1-3c32s1-10", T=self.T,
                              tskips=[TSkip(origin=3, dest=2, delta_t=4, merge="concat")],
                              bntt=True, reset="hard")

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=1, batch_size=32, lr_init=1e-3, dropout=0.2, bntt=True,
                           loss="cross_entropy", seed=seed)

    def write(self, out_dir, n_train, n_val, seed):
        return (write_visual_set(out_dir / "train", n_train, seed, self.T, self.window_us),
                write_visual_set(out_dir / "val", n_val, seed + 1, self.T, self.window_us))

    def read(self, manifest):
        return load_visual_set(manifest)


class ShdSearch:
    """Serial ``random_search`` on the ``shd`` preset, scored on a 16-sample
    probe loaded from audio CSV.

    The candidates come from one fixed master seed, so every run times the
    same 20 architectures, whose costs differ by more than 10x; only the
    probe changes with the run's seed.
    """

    item = "candidate"
    probe_batch = 16
    n_candidates = 20
    top_k = 3
    density = 0.1
    master_seed = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def write_probe(self, out_dir: Path, seed: int) -> Path:
        space = nas.preset_space("shd")
        rng = np.random.default_rng(seed)
        spikes = rng.random((self.probe_batch, space.T) + space.input_shape) < self.density
        probe = Dataset(spikes.astype(np.float64), np.zeros(self.probe_batch, dtype=np.int64))
        return data.save_dataset(probe, out_dir)

    def write_inputs(self) -> None:
        self.manifest = self.write_probe(self.workdir / "probe", self.seed)

    @staticmethod
    def read(manifest: Path):
        ds = data.load_dataset(manifest)
        return nas.preset_space("shd"), np.ascontiguousarray(ds.inputs.transpose(1, 0, 2))

    def load(self) -> int:
        self.space = self.probe = None  # as in TrainWorkload.load
        self.space, self.probe = self.read(self.manifest)
        return self.probe.shape[1]

    def search(self, space, probe, n: int, k: int, master_seed: int, tracer=None):
        scored, forwards = [], []
        with contextlib.ExitStack() as stack:
            stack.enter_context(clocked(nas, "sahd_score", lambda s, e, r: scored.append(e - s)))
            stack.enter_context(clocked(nas, "run_forward", lambda s, e, r: forwards.append(
                (r.stats.samples, e - s))))
            start = time.perf_counter()
            with phase(tracer, "bench.search"):
                ranked = nas.random_search(space, n, probe, k, master_seed=master_seed)
            end = time.perf_counter()
        outputs = tuple((json.dumps(spec_to_dict(c.spec), sort_keys=True), c.score, c.seed)
                        for c in ranked)
        return JobResult(outputs, scored, len(scored), end - start, forwards)

    def job(self, tracer=None) -> JobResult:
        return self.search(self.space, self.probe, self.n_candidates, self.top_k,
                           self.master_seed, tracer)

    def reference_values(self, probe_seed: int = REFERENCE_SEED) -> dict:
        space, probe = self.read(self.write_probe(self.workdir / "reference", probe_seed))
        result = self.search(space, probe, 6, self.top_k, REFERENCE_SEED)
        return {"top": [[json.loads(spec), score] for spec, score, _ in result.outputs]}


WORKLOADS = {
    "recall_train": RecallTrain,
    "shd_search": ShdSearch,
    "conv_backedge_train": ConvBackedgeTrain,
}


def check_reference(name: str, values: dict, reference: dict) -> list[str]:
    """Mismatches between a reference run and the committed reference.

    Scalars must agree within the committed tolerance, which is their spread
    across seeds; search rankings must name the same specs in the same order.
    """
    ref = reference[name]
    problems = []
    tolerance = ref["tolerance"]
    if name == "shd_search":
        got_specs = [spec for spec, _ in values["top"]]
        want_specs = [spec for spec, _ in ref["top"]]
        if got_specs != want_specs:
            problems.append("top-k specs differ from the reference")
        for (_, got), (_, want) in zip(values["top"], ref["top"]):
            if not abs(got - want) <= tolerance["score"]:
                problems.append(f"score {got!r} vs reference {want!r}")
        return problems
    for key, tol in tolerance.items():
        if not abs(values[key] - ref[key]) <= tol:
            problems.append(f"{key} {values[key]!r} vs reference {ref[key]!r} (tol {tol})")
    return problems
