"""The per-row CSV event parser that ``tempospike.data`` used before its
table reader, kept unchanged as the reference the reader is tested against."""

import numpy as np

from tempospike.data import AudioSpikeStream, DataError, EventStream


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

