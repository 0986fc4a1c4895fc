"""Event-stream ingestion and synthetic sequence tasks.

Visual event streams arrive as CSV rows ``x,y,t_us,p`` (pixel coordinates,
microsecond timestamp, polarity); audio spike streams as ``x,t_us`` (unit
index, timestamp). Binning collapses a stream onto a [time, ...] boolean
tensor: a cell is True if at least one event fell into it.

The delayed-recall generator is the desk-scale stand-in for long-range
temporal tasks: a one-hot class cue appears at a random step, a trigger marks
the step exactly ``delay`` later, and decoy cues litter the other steps, so
only a model that can bridge ``delay`` steps can tell the real cue from the
decoys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
import json
import math
from pathlib import Path
import warnings

import numpy as np

from .graph import MAX_DATASET_BYTES, typed

SpikeTensor = np.ndarray  # [time, ...feature dims], bool


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


def _body(text: str) -> tuple[list[str], int]:
    """The lines of ``text`` (``str.splitlines``) after its header, and the
    number of header lines: 1 if ``int()`` rejects the first field of the
    first line, else 0."""
    lines = text.splitlines()
    start = 1 if lines and not _is_int(lines[0].split(",")[0]) else 0
    del lines[:start]
    return lines, start


def _numbered(body: list[str], start: int) -> list[tuple[int, str]]:
    """The non-blank lines of ``body``, stripped, with their line numbers in
    a file whose first ``start`` lines came before ``body``."""
    return [(n, line) for n, line in enumerate(map(str.strip, body), start + 1) if line]


def _c_table(lines, width: int) -> np.ndarray | None:
    """``lines`` (an iterable of lines) as an (n, ``width``) int64 table read
    by numpy's C reader, or None where it rejects them, warns (as on input
    without data) or reads another number of columns. The reader
    skips empty lines and rejects a line of whitespace. On ASCII text it
    accepts a subset of what ``int()`` accepts, with the same values, except
    that it strips U+001F as whitespace; on other text it reads some letters
    as digits."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return table if table.shape[1] == width else None


def _int_table(lines: list[str], width: int) -> np.ndarray:
    """``lines`` as an (n, ``width``) int64 table, each field read by
    ``int()``; ``ValueError`` or ``OverflowError`` if a line is not ``width``
    such fields."""
    if any(line.count(",") != width - 1 for line in lines):
        raise ValueError
    values = (field for line in lines for field in line.split(","))
    return np.fromiter(map(int, values), np.int64, len(lines) * width).reshape(-1, width)


def _text_table(text: str, screened: bool, width: int, what: str):
    """``text`` read on its own: its table, and the ``line N:`` error of its
    first line that is not ``width`` integers (then the table holds the
    lines before it), else None. The C reader reads the body of a
    ``screened`` text; ``int()`` reads any other body, and one that the
    reader rejects."""
    body, start = _body(text)
    table = _c_table(body, width) if screened else None
    if table is not None:
        return table, None
    rows = _numbered(body, start)
    kept = [line for _, line in rows]
    try:
        return _int_table(kept, width), None
    except (ValueError, OverflowError):
        i, error = next((i, error) for i, line in enumerate(kept)
                        if (error := _row_error(line, width, what)))
        return _int_table(kept[:i], width), f"line {rows[i][0]}: {error}"


def _read_tables(texts: list[str], fields: tuple[str, ...], what: str, checks):
    """The int64 columns of the CSV lines of ``texts``, joined in text order,
    and each text's number of rows. Each field is read as ``int()`` reads
    it. Blank lines are skipped, and so is a first line whose first field
    ``int()`` rejects (a header, ``_body``). ``checks`` are ``(test,
    message)`` pairs, ``test`` mapping the columns by field name, and
    ``"opens"`` to the indices of the rows that open a text, to a mask of bad
    rows.

    When every text is ASCII without U+001F, their bodies go through one
    call to numpy's C reader, chained one text at a time. Otherwise, or if
    that call fails, each text is read on its own (``_text_table``). The
    first bad line in text order (a line that is not ``len(fields)``
    integers, or a row failing a check, and on it the first failed check)
    ends the read: the columns and counts then cover the texts before it,
    and the third result is its ``line N:`` message, else None."""
    width = len(fields)
    screened = [text.isascii() and "\x1f" not in text for text in texts]
    table, error = None, None
    if all(screened):
        counts = []  # rows of each text; the reader skips empty lines

        def joint_body(text):
            body = _body(text)[0]
            counts.append(len(body) - body.count(""))
            return body

        table = _c_table(chain.from_iterable(map(joint_body, texts)), width)
    if table is None:
        tables = []
        for text, passed in zip(texts, screened):
            piece, error = _text_table(text, passed, width, what)
            tables.append(piece)
            if error:
                break
        table = np.concatenate([np.empty((0, width), np.int64), *tables])
        counts = [len(t) for t in tables]
    counts = np.array(counts, dtype=np.int64)
    ends = counts.cumsum()
    columns = dict(zip(fields, table.T), opens=(ends - counts)[counts > 0])
    bad = np.array([test(columns) for test, _ in checks])
    if bad.any():
        row, check = divmod(int(bad.T.argmax()), len(checks))
        k = int(np.searchsorted(ends, row, side="right"))
        lineno = _numbered(*_body(texts[k]))[row - int(ends[k] - counts[k])][0]
        error = f"line {lineno}: " + checks[check][1].format(**dict(zip(fields, table[row])))
    else:
        k = len(counts) - (error is not None)
    end = int(ends[k - 1]) if k else 0
    return tuple(table[:end].T), counts[:k], error


def _drops(columns) -> np.ndarray:
    """The rows whose ``t`` is below that of the row before them in the same
    text; the first is the first row whose ``t`` is below the largest before
    it in its text."""
    t = columns["t"]
    drops = np.zeros(len(t), dtype=bool)
    np.less(t[1:], t[:-1], out=drops[1:])
    drops[columns["opens"]] = False
    return drops


_TIME_CHECKS = ((lambda c: c["t"] < 0, "negative timestamp {t}"),
                (_drops, "timestamps must be non-decreasing"))
_SPIKE_CHECKS = ((lambda c: c["x"] < 0, "negative unit index"), *_TIME_CHECKS)


def parse_events(text: str | bytes, sensor_size: tuple[int, int] | None = None) -> EventStream:
    """Parse visual AER CSV rows ``x,y,t_us,p``; header line optional."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    (xs, ys, ts, ps), _, error = _read_tables([text], ("x", "y", "t", "p"), "event", (
        (lambda c: (c["p"] != 0) & (c["p"] != 1), "polarity must be 0 or 1, got {p}"),
        *_TIME_CHECKS,
        (lambda c: (c["x"] < 0) | (c["y"] < 0), "negative coordinate"),
    ))
    if error:
        raise DataError(error)
    if sensor_size is None:
        sensor_size = (int(xs.max()) + 1, int(ys.max()) + 1) if len(xs) else (1, 1)
    elif len(xs) and (xs.max() >= sensor_size[0] or ys.max() >= sensor_size[1]):
        raise DataError(f"event coordinates exceed sensor size {sensor_size}")
    return EventStream(xs, ys, ts, ps, sensor_size)


def parse_audio_events(text: str, num_units: int | None = None) -> AudioSpikeStream:
    """Parse audio spike CSV rows ``x,t_us``."""
    (units, ts), _, error = _read_tables([text], ("x", "t"), "spike", _SPIKE_CHECKS)
    if error:
        raise DataError(error)
    if num_units is None:
        num_units = int(units.max()) + 1 if len(units) else 1
    elif len(units) and units.max() >= num_units:
        raise DataError(f"unit index exceeds num_units={num_units}")
    return AudioSpikeStream(units, ts, num_units)


def _cover_error(t_max: int, window: float, T: int) -> str | None:
    """Why a stream whose latest timestamp is ``t_max`` cannot be binned into
    ``T`` steps of ``window``, or None."""
    if t_max > window:
        return f"window {window} does not cover stream (max t = {t_max})"
    # t*T is an exact integer, in int64 and float64 alike below 2**53, so an
    # event on a bin boundary is not rounded into the bin before it, as
    # t / (window/T) can be
    if t_max * T > 2**53:
        return f"timestamps up to {t_max} are too large to bin into {T} steps"
    return None


def _time_bins(ts: np.ndarray, window: float, T: int) -> np.ndarray:
    """The steps of ``ts``, which ``_cover_error`` has passed."""
    return np.minimum(np.floor(ts * T / window).astype(np.int64), T - 1)


def bin_events(stream: EventStream | AudioSpikeStream, cfg: BinningConfig) -> SpikeTensor:
    """Bin a stream onto bool [T, 2, H, W] (visual) or [T, units] (audio)."""
    window = cfg.window
    if window is None:
        window = float(stream.ts.max()) + 1.0 if len(stream) else 1.0
    error = _cover_error(int(stream.ts.max()) if len(stream) else 0, window, cfg.T)
    if error:
        raise DataError(error)
    if isinstance(stream, EventStream):
        w, h = stream.sensor_size
        shape, cells = (cfg.T, 2, h, w), (stream.ps, stream.ys, stream.xs)
    else:
        shape, cells = (cfg.T, stream.num_units), (stream.units,)
    out = np.zeros(shape, dtype=bool)
    out[(_time_bins(stream.ts, window, cfg.T), *cells)] = True
    return out


@dataclass
class Dataset:
    """Samples as [N, T, ...] spike tensors with integer labels.

    The loaders here build ``inputs`` as a bool array, one byte per value;
    any real-valued array works as well. A batch of it becomes float only in
    ``graph.cast_input``, once per forward pass."""

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
    with probability ``noise``. The inputs are bool. Labels are exactly
    class-balanced and the whole dataset is a pure function of the seed.
    """
    if not 0 <= delay < length:
        raise DataError(f"need 0 <= delay < length, got delay={delay}, length={length}")
    if classes < 2:
        raise DataError("need at least 2 classes")
    if not 0.0 <= noise <= 1.0:
        raise DataError(f"noise must lie in [0, 1], got {noise}")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
    x = np.zeros((n, length, classes + 1), dtype=bool)
    cue_steps = rng.integers(0, length - delay, size=n)
    for i in range(n):
        t0 = int(cue_steps[i])
        decoy_steps = rng.random(length) < noise
        decoy_steps[t0] = False
        decoy_class = rng.integers(0, classes, size=length)
        x[i, decoy_steps, decoy_class[decoy_steps]] = True
        x[i, t0, labels[i]] = True
        x[i, t0 + delay, classes] = True
    return Dataset(inputs=x, labels=labels,
                   meta={"task": "delayed-recall", "delay": delay, "T": length,
                         "classes": classes, "noise": noise, "seed": seed,
                         "cue_steps": cue_steps})


def inject_noise(x: SpikeTensor, rate: float, seed: int = 0) -> SpikeTensor:
    """Flip each zero cell to 1 with probability ``rate``; the result keeps
    ``x``'s dtype, so a boolean spike tensor stays boolean."""
    if not 0.0 <= rate <= 1.0:
        raise DataError(f"rate must lie in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    flips = rng.random(x.shape) < rate
    return np.where((x == 0) & flips, x.dtype.type(1), x)


# ---------------------------------------------------------------------------
# on-disk format: per-sample audio-style CSV plus a JSON manifest

def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write one CSV per sample (unit,t rows) and a manifest listing labels."""
    if ds.inputs.ndim != 3:
        raise DataError("only [N, T, units] datasets serialize to audio CSV")
    # one sample at a time, so that no mask the size of the dataset exists
    if any(((x != 0) & (x != 1)).any() for x in ds.inputs):
        raise DataError("only inputs of 0 and 1 serialize to audio CSV")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _read_sample(folder: Path, name) -> str:
    """The text of sample file ``name``, or a ``DataError`` that names it."""
    try:
        return (folder / name).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"sample {name!r}, cannot read: {err}") from None


def _sample_entry(i: int, entry) -> tuple[str, int]:
    """The file name and label of the manifest's sample entry ``i``, or a
    ``DataError`` that names the entry and the field."""
    if not isinstance(entry, dict):
        raise DataError(f"samples[{i}] must be an object, got {entry!r}")
    try:
        return typed(entry["file"], str, "file"), typed(entry["label"], int, "label")
    except KeyError as err:
        raise DataError(f"samples[{i}] has no field {err}") from None
    except TypeError as err:
        raise DataError(f"samples[{i}] {err}") from None


def load_dataset(manifest_path) -> Dataset:
    """Read a manifest and all its sample files into one bool [N, T, units]
    tensor. An error in a sample names its file as the manifest gives it."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = typed(json.loads(path.read_text(encoding="utf-8")), dict, "the manifest")
        if manifest.get("format") != "audio-csv":
            raise DataError(f"unsupported dataset format {manifest.get('format')!r}")
        T = typed(manifest["T"], int, "T")
        units = typed(manifest["num_units"], int, "num_units")
        if units < 1:
            raise DataError(f"num_units must be >= 1, got {units}")
        window = typed(manifest.get("window_us", T), float, "window_us")
        BinningConfig(T=T, window=window)  # checks T and the window
        samples = typed(manifest["samples"], list, "samples")
        meta = typed(manifest.get("meta", {}), dict, "meta")
        size = len(samples) * T * units * 8
        if size > MAX_DATASET_BYTES:
            raise DataError(f"{len(samples)} samples of T={T} x {units} units need {size} "
                            f"bytes, above the limit of {MAX_DATASET_BYTES}")
        entries = [_sample_entry(i, entry) for i, entry in enumerate(samples)]
        files = [name for name, _ in entries]
        labels = np.array([label for _, label in entries], dtype=np.int64)
        inputs = np.zeros((len(files), T, units), dtype=bool)
        (unit_of, ts), counts, error = _read_tables(
            [_read_sample(path.parent, name) for name in files], ("x", "t"), "spike",
            _SPIKE_CHECKS)
    except (OSError, AttributeError, KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as err:
        raise DataError(f"cannot load dataset {path}: {err!r}") from None
    # each sample's own checks, in file order, over the files read before a
    # bad line; ``np.maximum.reduceat`` would read an empty file as one row
    ends = counts.cumsum()
    nonempty = counts > 0
    top_unit = np.full(len(counts), -1)
    top_unit[nonempty] = np.maximum.reduceat(unit_of, (ends - counts)[nonempty])
    last_t = np.zeros(len(counts), dtype=np.int64)
    last_t[nonempty] = ts[ends[nonempty] - 1]  # a file's timestamps do not decrease
    for name, top, t_max in zip(files, top_unit.tolist(), last_t.tolist()):
        failure = (f"unit index exceeds num_units={units}" if top >= units
                   else _cover_error(t_max, window, T))
        if failure:
            raise DataError(f"sample {name!r}, {failure}")
    if error:
        raise DataError(f"sample {files[len(counts)]!r}, {error}")
    inputs[np.repeat(np.arange(len(counts)), counts), _time_bins(ts, window, T), unit_of] = True
    return Dataset(inputs=inputs, labels=labels, meta=meta)
