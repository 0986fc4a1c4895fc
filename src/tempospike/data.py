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
import warnings

import numpy as np

from .graph import MAX_DATASET_BYTES, typed

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
    counts: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise DataError(f"T must be >= 1, got {self.T}")
        if self.window is not None and not 0 < self.window < math.inf:
            raise DataError(f"window must be finite and positive, got {self.window}")


def _row_error(line: str, width: int, what: str) -> str | None:
    """Why ``line`` is not ``width`` int64 fields, or None if it is."""
    parts = line.split(",")
    if len(parts) != width:
        return f"expected {width} {what} fields, got {len(parts)}"
    try:
        np.array([int(p) for p in parts], dtype=np.int64)
    except ValueError:
        return f"non-integer field in {line!r}"
    except OverflowError:
        return f"field beyond int64 in {line!r}"


def _is_int(field: str) -> bool:
    try:
        int(field)
    except ValueError:
        return False
    return True


def _numbered(body: list[str], start: int) -> list[tuple[int, str]]:
    """The non-blank lines of ``body``, stripped, with their line numbers in
    a file whose first ``start`` lines came before ``body``."""
    return [(n, line) for n, line in enumerate(map(str.strip, body), start + 1) if line]


def _c_table(text: str, body: list[str], width: int) -> np.ndarray | None:
    """``body`` as an (n, ``width``) int64 table read by numpy's C reader, or
    None where that reader might read it differently from ``int()``. On ASCII
    text it accepts a subset of what ``int()`` accepts, with the same values,
    except that it strips U+001F as whitespace; on other text it reads some
    letters as digits. Text holding either is left to ``int()``, and so is a
    body without data (where the reader warns) and one that the reader
    rejects, warns about or reads into another number of columns; a blank
    line inside the body is a row it rejects."""
    if not text.isascii() or "\x1f" in text or not any(map(str.strip, body)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(body, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return table if table.shape[1] == width else None


def _read_table(text: str, fields: tuple[str, ...], what: str, checks) -> tuple[np.ndarray, ...]:
    """The int64 columns of ``text``'s CSV lines, each field read as ``int()``
    reads it. Blank lines are skipped, and so is a first line whose first
    field ``int()`` rejects (a header). ``checks`` are ``(test, message)``
    pairs, ``test`` mapping the columns by field name to a mask of bad rows;
    the first bad line, and on it the first failed check, raises
    ``DataError``."""
    lines = text.splitlines()
    start = 1 if lines and not _is_int(lines[0].split(",")[0]) else 0
    body = lines[start:]
    width = len(fields)
    table = _c_table(text, body, width)
    if table is None:
        rows = _numbered(body, start)
        try:
            if any(line.count(",") != width - 1 for _, line in rows):
                raise ValueError
            values = (field for _, line in rows for field in line.split(","))
            table = np.fromiter(map(int, values), np.int64, len(rows) * width).reshape(-1, width)
        except (ValueError, OverflowError):
            lineno, error = next((n, error) for n, line in rows
                                 if (error := _row_error(line, width, what)))
            # the well-formed lines before it may fail a check first
            _read_table("\n".join(lines[:lineno - 1]), fields, what, checks)
            raise DataError(f"line {lineno}: {error}") from None
    columns = dict(zip(fields, table.T))
    bad = np.array([test(columns) for test, _ in checks])
    if bad.any():
        row, check = divmod(int(bad.T.argmax()), len(checks))
        raise DataError(f"line {_numbered(body, start)[row][0]}: "
                        + checks[check][1].format(**dict(zip(fields, table[row]))))
    return tuple(table.T)


# a decrease is first seen where t drops below the running maximum
_TIME_CHECKS = ((lambda c: c["t"] < 0, "negative timestamp {t}"),
                (lambda c: c["t"] < np.maximum.accumulate(c["t"]),
                 "timestamps must be non-decreasing"))


def parse_events(text: str | bytes, sensor_size: tuple[int, int] | None = None) -> EventStream:
    """Parse visual AER CSV rows ``x,y,t_us,p``; header line optional."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    xs, ys, ts, ps = _read_table(text, ("x", "y", "t", "p"), "event", (
        (lambda c: (c["p"] != 0) & (c["p"] != 1), "polarity must be 0 or 1, got {p}"),
        *_TIME_CHECKS,
        (lambda c: (c["x"] < 0) | (c["y"] < 0), "negative coordinate"),
    ))
    if sensor_size is None:
        sensor_size = (int(xs.max()) + 1, int(ys.max()) + 1) if len(xs) else (1, 1)
    elif len(xs) and (xs.max() >= sensor_size[0] or ys.max() >= sensor_size[1]):
        raise DataError(f"event coordinates exceed sensor size {sensor_size}")
    return EventStream(xs, ys, ts, ps, sensor_size)


def parse_audio_events(text: str, num_units: int | None = None) -> AudioSpikeStream:
    """Parse audio spike CSV rows ``x,t_us``."""
    units, ts = _read_table(text, ("x", "t"), "spike", (
        (lambda c: c["x"] < 0, "negative unit index"),
        *_TIME_CHECKS,
    ))
    if num_units is None:
        num_units = int(units.max()) + 1 if len(units) else 1
    elif len(units) and units.max() >= num_units:
        raise DataError(f"unit index exceeds num_units={num_units}")
    return AudioSpikeStream(units, ts, num_units)


def _time_bins(ts: np.ndarray, window: float, T: int) -> np.ndarray:
    t_max = int(ts.max()) if len(ts) else 0
    if t_max > window:
        raise DataError(f"window {window} does not cover stream (max t = {t_max})")
    # t*T is an exact integer, in int64 and float64 alike below 2**53, so an
    # event on a bin boundary is not rounded into the bin before it, as
    # t / (window/T) can be
    if t_max * T > 2**53:
        raise DataError(f"timestamps up to {t_max} are too large to bin into {T} steps")
    bins = np.floor(ts * T / window).astype(np.int64)
    return np.minimum(bins, T - 1)


def bin_events(stream: EventStream | AudioSpikeStream, cfg: BinningConfig) -> SpikeTensor:
    """Bin a stream onto [T, 2, H, W] (visual) or [T, units] (audio)."""
    window = cfg.window
    if window is None:
        window = float(stream.ts.max()) + 1.0 if len(stream) else 1.0
    if isinstance(stream, EventStream):
        w, h = stream.sensor_size
        shape, cells = (cfg.T, 2, h, w), (stream.ps, stream.ys, stream.xs)
    else:
        shape, cells = (cfg.T, stream.num_units), (stream.units,)
    out = np.zeros(shape)
    np.add.at(out, (_time_bins(stream.ts, window, cfg.T), *cells), 1.0)
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
        T = typed(manifest["T"], int, "T")
        units = typed(manifest["num_units"], int, "num_units")
        if units < 1:
            raise DataError(f"num_units must be >= 1, got {units}")
        window = typed(manifest.get("window_us", T), float, "window_us")
        cfg = BinningConfig(T=T, window=window)
        samples = manifest["samples"]
        size = len(samples) * T * units * 8
        if size > MAX_DATASET_BYTES:
            raise DataError(f"{len(samples)} samples of T={T} x {units} units need {size} "
                            f"bytes, above the limit of {MAX_DATASET_BYTES}")
        inputs, labels = [], []
        for entry in samples:
            text = (path.parent / entry["file"]).read_text(encoding="utf-8")
            stream = parse_audio_events(text, num_units=units)
            inputs.append(bin_events(stream, cfg))
            labels.append(typed(entry["label"], int, "label"))
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"cannot load dataset {path}: {err!r}") from None
    return Dataset(inputs=np.stack(inputs) if inputs else np.zeros((0, T, units)),
                   labels=np.asarray(labels, dtype=np.int64),
                   meta=manifest.get("meta", {}))
