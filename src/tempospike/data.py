"""Event-stream ingestion and synthetic sequence tasks.

Visual event streams arrive as CSV rows ``x,y,t_us,p`` (pixel coordinates,
microsecond timestamp, polarity); audio spike streams as ``x,t_us`` (unit
index, timestamp). Binning collapses a stream onto a [time, ...] tensor with
binary cells by default: a cell is 1 if at least one event fell into it.

The delayed-recall generator is the desk-scale stand-in for long-range
temporal tasks: a one-hot class cue appears at a random step, a trigger marks
the step exactly ``delay`` later, and decoy cues litter the other steps, so
only a model that can bridge ``delay`` steps can tell the real cue from the
decoys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
from pathlib import Path

import numpy as np

SpikeTensor = np.ndarray  # [time, ...feature dims], values in {0, 1}


class DataError(Exception):
    pass


@dataclass
class EventStream:
    """Visual events (x, y, t_us, polarity) with non-decreasing timestamps."""

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray
    sensor_size: tuple[int, int]

    def __len__(self) -> int:
        return len(self.ts)


@dataclass
class AudioSpikeStream:
    """Audio spikes (unit index, t_us)."""

    units: np.ndarray
    ts: np.ndarray
    num_units: int

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class BinningConfig:
    T: int
    window: float | None = None  # microseconds; None = span of the stream
    polarity_channels: bool = True
    counts: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise DataError(f"T must be >= 1, got {self.T}")
        if self.window is not None and not 0 < self.window < math.inf:
            raise DataError(f"window must be finite and positive, got {self.window}")


def _iter_rows(text: str, n_fields: int, what: str):
    lines = text.splitlines()
    start = 0
    if lines and not lines[0].split(",")[0].strip().lstrip("-").isdigit():
        start = 1  # optional header
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_fields:
            raise DataError(f"line {lineno + 1}: expected {n_fields} {what} fields, "
                            f"got {len(parts)}")
        try:
            yield lineno + 1, [int(p) for p in parts]
        except ValueError:
            raise DataError(f"line {lineno + 1}: non-integer field in {line!r}") from None


def parse_events(text: str | bytes, sensor_size: tuple[int, int] | None = None) -> EventStream:
    """Parse visual AER CSV rows ``x,y,t_us,p``; header line optional."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    xs, ys, ts, ps = [], [], [], []
    prev_t = None
    for lineno, (x, y, t, p) in _iter_rows(text, 4, "event"):
        if p not in (0, 1):
            raise DataError(f"line {lineno}: polarity must be 0 or 1, got {p}")
        if t < 0:
            raise DataError(f"line {lineno}: negative timestamp {t}")
        if prev_t is not None and t < prev_t:
            raise DataError(f"line {lineno}: timestamps must be non-decreasing")
        if x < 0 or y < 0:
            raise DataError(f"line {lineno}: negative coordinate")
        prev_t = t
        xs.append(x)
        ys.append(y)
        ts.append(t)
        ps.append(p)
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    ts, ps = np.asarray(ts, dtype=np.int64), np.asarray(ps, dtype=np.int64)
    if sensor_size is None:
        w = int(xs.max()) + 1 if len(xs) else 1
        h = int(ys.max()) + 1 if len(ys) else 1
        sensor_size = (w, h)
    else:
        if len(xs) and (xs.max() >= sensor_size[0] or ys.max() >= sensor_size[1]):
            raise DataError(f"event coordinates exceed sensor size {sensor_size}")
    return EventStream(xs, ys, ts, ps, sensor_size)


def parse_audio_events(text: str, num_units: int | None = None) -> AudioSpikeStream:
    """Parse audio spike CSV rows ``x,t_us``."""
    units, ts = [], []
    prev_t = None
    for lineno, (x, t) in _iter_rows(text, 2, "spike"):
        if x < 0:
            raise DataError(f"line {lineno}: negative unit index")
        if t < 0:
            raise DataError(f"line {lineno}: negative timestamp {t}")
        if prev_t is not None and t < prev_t:
            raise DataError(f"line {lineno}: timestamps must be non-decreasing")
        prev_t = t
        units.append(x)
        ts.append(t)
    units = np.asarray(units, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    if num_units is None:
        num_units = int(units.max()) + 1 if len(units) else 1
    elif len(units) and units.max() >= num_units:
        raise DataError(f"unit index exceeds num_units={num_units}")
    return AudioSpikeStream(units, ts, num_units)


def _time_bins(ts: np.ndarray, window: float, T: int) -> np.ndarray:
    if len(ts) and ts.max() > window:
        raise DataError(f"window {window} does not cover stream (max t = {ts.max()})")
    # t*T is an exact integer, so an event on a bin boundary is not rounded
    # into the bin before it, as t / (window/T) can be
    bins = np.floor(ts * T / window).astype(np.int64)
    return np.minimum(bins, T - 1)


def bin_events(stream: EventStream | AudioSpikeStream, cfg: BinningConfig) -> SpikeTensor:
    """Bin a stream onto [T, 2, H, W] (visual) or [T, units] (audio)."""
    window = cfg.window
    if window is None:
        window = float(stream.ts.max()) + 1.0 if len(stream) else 1.0
    if isinstance(stream, EventStream):
        w, h = stream.sensor_size
        channels = 2 if cfg.polarity_channels else 1
        out = np.zeros((cfg.T, channels, h, w))
        if len(stream):
            b = _time_bins(stream.ts, window, cfg.T)
            c = stream.ps if cfg.polarity_channels else np.zeros(len(stream), dtype=np.int64)
            np.add.at(out, (b, c, stream.ys, stream.xs), 1.0)
    else:
        out = np.zeros((cfg.T, stream.num_units))
        if len(stream):
            b = _time_bins(stream.ts, window, cfg.T)
            np.add.at(out, (b, stream.units), 1.0)
    if not cfg.counts:
        out = (out > 0).astype(np.float64)
    return out


@dataclass
class Dataset:
    """Samples as [N, T, ...] spike tensors with integer labels."""

    inputs: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def T(self) -> int:
        return self.inputs.shape[1]


def gen_delayed_recall(delay: int, length: int, n: int, classes: int = 10,
                       noise: float = 0.9, seed: int = 0) -> Dataset:
    """Delayed-recall task: classify the cue that precedes the trigger by
    exactly ``delay`` steps.

    Channels 0..classes-1 carry one-hot cues; the last channel carries the
    single trigger. The true cue sits at a random step t0, the trigger at
    t0 + delay, and every other step independently hosts a decoy one-hot cue
    with probability ``noise``. Labels are exactly class-balanced and the
    whole dataset is a pure function of the seed.
    """
    if not 0 <= delay < length:
        raise DataError(f"need 0 <= delay < length, got delay={delay}, length={length}")
    if classes < 2:
        raise DataError("need at least 2 classes")
    if not 0.0 <= noise <= 1.0:
        raise DataError(f"noise must lie in [0, 1], got {noise}")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
    x = np.zeros((n, length, classes + 1))
    cue_steps = rng.integers(0, length - delay, size=n)
    for i in range(n):
        t0 = int(cue_steps[i])
        decoy_steps = rng.random(length) < noise
        decoy_steps[t0] = False
        decoy_class = rng.integers(0, classes, size=length)
        x[i, decoy_steps, decoy_class[decoy_steps]] = 1.0
        x[i, t0, labels[i]] = 1.0
        x[i, t0 + delay, classes] = 1.0
    return Dataset(inputs=x, labels=labels,
                   meta={"task": "delayed-recall", "delay": delay, "T": length,
                         "classes": classes, "noise": noise, "seed": seed,
                         "cue_steps": cue_steps})


def inject_noise(x: SpikeTensor, rate: float, seed: int = 0) -> SpikeTensor:
    """Flip each zero cell to 1 with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise DataError(f"rate must lie in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    flips = rng.random(x.shape) < rate
    return np.where((x == 0) & flips, 1.0, x)


# ---------------------------------------------------------------------------
# on-disk format: per-sample audio-style CSV plus a JSON manifest

def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write one CSV per sample (unit,t rows) and a manifest listing labels."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if ds.inputs.ndim != 3:
        raise DataError("only [N, T, units] datasets serialize to audio CSV")
    n, T, units = ds.inputs.shape
    entries = []
    for i in range(n):
        name = f"sample_{i:05d}.csv"
        steps, chans = np.nonzero(ds.inputs[i])
        order = np.lexsort((chans, steps))
        lines = [f"{chans[j]},{steps[j]}" for j in order]
        (out / name).write_text("\n".join(lines) + ("\n" if lines else ""),
                                encoding="utf-8")
        entries.append({"file": name, "label": int(ds.labels[i])})
    manifest = {
        "format": "audio-csv",
        "num_units": units,
        "T": T,
        "window_us": T,
        "samples": entries,
        "meta": {k: v for k, v in ds.meta.items() if k != "cue_steps"},
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def load_dataset(manifest_path) -> Dataset:
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if manifest.get("format") != "audio-csv":
            raise DataError(f"unsupported dataset format {manifest.get('format')!r}")
        T = int(manifest["T"])
        units = int(manifest["num_units"])
        window = float(manifest.get("window_us", T))
        cfg = BinningConfig(T=T, window=window)
        inputs, labels = [], []
        for entry in manifest["samples"]:
            text = (path.parent / entry["file"]).read_text(encoding="utf-8")
            stream = parse_audio_events(text, num_units=units)
            inputs.append(bin_events(stream, cfg))
            labels.append(int(entry["label"]))
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"cannot load dataset {path}: {err!r}") from None
    return Dataset(inputs=np.stack(inputs) if inputs else np.zeros((0, T, units)),
                   labels=np.asarray(labels, dtype=np.int64),
                   meta=manifest.get("meta", {}))
