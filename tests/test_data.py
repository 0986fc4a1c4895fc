import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_parser_oracle as oracle

from tempospike.data import (
    AudioSpikeStream,
    BinningConfig,
    DataError,
    bin_events,
    gen_delayed_recall,
    inject_noise,
    load_dataset,
    parse_audio_events,
    parse_events,
    save_dataset,
)


# fields the per-row parser reads as integers, or rejects, in its own ways
ODD_FIELDS = ["", " ", "a", "1.5", "0x1", "+5", "1_000", "\u0663", "\uff15", "\u00b2", "-0",
              " 7 ", "\t3", "\u20039", "-", "1,", "5\x0c", str(2**63 - 1), str(-2**63),
              "1.0", "1e3", "nan", "inf", "#1", "5#", '"5"', "1 0", "0b1", " 5",
              # numpy's C reader takes these letters for digits
              "\u01fe", "1\u01fe", "-\u04ff"]
ODD_VALUES = [-1, -7, 0, 2, 3, 10**19, -10**19, 2**63, -2**63 - 1]
BEYOND_INT64 = {str(v) for v in ODD_VALUES if not -2**63 <= v < 2**63}


@st.composite
def event_csv(draw):
    """A visual (4 fields) or audio (2 fields) CSV, valid or corrupted, and
    whether a data line holds an integer beyond int64."""
    width = draw(st.sampled_from([2, 4]))
    ts = sorted(draw(st.lists(st.integers(0, 60), max_size=10)))
    rows = [[str(v) for v in ([draw(st.integers(0, 5)), draw(st.integers(0, 5)), t,
                                draw(st.integers(0, 1))] if width == 4
                               else [draw(st.integers(0, 9)), t])] for t in ts]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["count", "field", "value"]))
        if kind == "count":
            row[:] = row[:-1] if len(row) > 1 and draw(st.booleans()) else row + ["1"]
            continue
        j = draw(st.integers(0, len(row) - 1))
        if kind == "field":
            row[j] = draw(st.sampled_from(ODD_FIELDS))
        else:
            row[j] = str(draw(st.sampled_from(ODD_VALUES)))
    lines = [draw(st.sampled_from([",", " , ", ", "])).join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    header = draw(st.sampled_from([None, "x,y,t,p", "x,t", "-", "+1,2", " t ", "-x,1", ""]))
    if header is not None:
        lines.insert(0, header)
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = sep.join(lines) + (sep if draw(st.booleans()) else "")
    size = draw(st.none() | (st.tuples(st.integers(1, 7), st.integers(1, 7)) if width == 4
                             else st.integers(1, 12)))
    return width, text, size, any(f in BEYOND_INT64 for row in rows for f in row)


def _outcome(parse, text, size):
    try:
        stream = parse(text, size)
    except DataError as err:
        return "error", str(err)
    arrays = [getattr(stream, name) for name in ("xs", "ys", "ts", "ps", "units")
              if hasattr(stream, name)]
    assert all(a.dtype == np.int64 for a in arrays)
    size = stream.sensor_size if hasattr(stream, "sensor_size") else stream.num_units
    return "ok", [a.tolist() for a in arrays], size


class TestParse:
    def test_single_event(self):
        s = parse_events("3,4,1000,1")
        assert (s.xs[0], s.ys[0], s.ts[0], s.ps[0]) == (3, 4, 1000, 1)

    def test_empty_file(self):
        assert len(parse_events("")) == 0

    def test_header_skipped(self):
        s = parse_events("x,y,t,p\n1,2,10,0\n")
        assert len(s) == 1

    @pytest.mark.parametrize("text", ["+5,100\n6,200", "1_000,100\n1001,200"])
    def test_first_line_int_accepts_is_data(self, text):
        assert len(parse_audio_events(text)) == 2

    def test_bad_polarity_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_events("1,1,5,0\n1,1,6,2\n")

    def test_decreasing_time_rejected(self):
        with pytest.raises(DataError, match="non-decreasing"):
            parse_events("1,1,5,0\n1,1,4,0\n")

    def test_wrong_field_count(self):
        with pytest.raises(DataError, match="expected 4"):
            parse_events("1,2,3\n")

    def test_coordinates_checked_against_sensor(self):
        with pytest.raises(DataError, match="sensor"):
            parse_events("9,0,1,1", sensor_size=(4, 4))

    def test_audio_rows(self):
        s = parse_audio_events("5,100\n7,200\n", num_units=700)
        assert list(s.units) == [5, 7] and s.num_units == 700

    @pytest.mark.parametrize("t", [-1, -5])
    def test_negative_timestamp_rejected(self, t):
        # -1 used to bin silently into the last (future) step, -5 to raise a
        # raw IndexError from the binner
        with pytest.raises(DataError, match="line 1: negative timestamp"):
            parse_events(f"0,0,{t},1")
        with pytest.raises(DataError, match="line 1: negative timestamp"):
            parse_audio_events(f"0,{t}")

    @given(event_csv())
    @settings(max_examples=1500, deadline=None)
    def test_table_reader_matches_row_parser(self, case):
        width, text, size, beyond_int64 = case
        parse, reference = ((parse_events, oracle.parse_events) if width == 4
                            else (parse_audio_events, oracle.parse_audio_events))
        try:
            expected = _outcome(reference, text, size)
        except OverflowError:
            expected = None
        actual = _outcome(parse, text, size)
        if actual != expected:
            # the row parser let a value beyond int64 through its checks and
            # then failed converting it; the table reader names its line
            assert beyond_int64 and actual[0] == "error" and "beyond int64" in actual[1]

    @pytest.mark.parametrize("text", ["x,y,t,p", "x,t\r\n", "x,t\n\n \n", "\n", " \n\t\n",
                                      "\r\n  \r\n"])
    def test_header_or_blank_only_body_is_empty(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(parse_events(text)) == 0 and len(parse_audio_events(text)) == 0

    @pytest.mark.parametrize("text", ["0,1\n5\x1f,2", "0,1\n1,\x1f5", "0,1\n\u01fe,2"])
    def test_field_int_rejects_names_its_line(self, text):
        # numpy's C reader strips U+001F as whitespace and reads U+01FE as a
        # digit; int() rejects both. (The row parser strips every field with
        # str.strip, which removes U+001F, so it is no reference here.)
        with pytest.raises(DataError, match="^line 2: non-integer field"):
            parse_audio_events(text)

    @pytest.mark.parametrize("text", ["0,9223372036854775808", "0,1\n-9223372036854775809,2"])
    def test_field_beyond_int64_names_its_line(self, text):
        lineno = text.count("\n") + 1
        with pytest.raises(DataError, match=f"^line {lineno}: field beyond int64"):
            parse_audio_events(text)

    def test_check_on_an_earlier_line_comes_first(self):
        with pytest.raises(DataError, match="^line 2: polarity"):
            parse_events("x,y,t,p\n0,0,1,3\n0,0,2\n")


class TestBinning:
    def test_midpoint_event_lands_in_middle_bin(self):
        s = parse_events("0,0,500,1", sensor_size=(1, 1))
        out = bin_events(s, BinningConfig(T=10, window=1000))
        assert out[5, 1, 0, 0] == 1.0
        assert out.sum() == 1.0

    def test_binary_cells(self):
        s = parse_events("0,0,10,1\n0,0,11,1\n0,0,12,1", sensor_size=(1, 1))
        out = bin_events(s, BinningConfig(T=2, window=100))
        assert out.max() == 1.0 and out.sum() == 1.0

    def test_count_mode_flag(self):
        s = parse_events("0,0,10,1\n0,0,11,1", sensor_size=(1, 1))
        out = bin_events(s, BinningConfig(T=2, window=100, counts=True))
        assert out.max() == 2.0

    def test_active_cells_bounded_by_events(self):
        rng = np.random.default_rng(0)
        n = 300
        ts = np.sort(rng.integers(0, 10_000, n))
        lines = "\n".join(f"{rng.integers(0, 8)},{rng.integers(0, 8)},{t},{rng.integers(0, 2)}"
                          for t in ts)
        out = bin_events(parse_events(lines, sensor_size=(8, 8)),
                         BinningConfig(T=20, window=10_000))
        assert out.sum() <= n

    def test_order_within_bin_irrelevant(self):
        a = parse_events("1,1,10,1\n2,2,11,0", sensor_size=(4, 4))
        b = parse_events("2,2,10,0\n1,1,11,1", sensor_size=(4, 4))
        cfg = BinningConfig(T=1, window=100)
        assert np.array_equal(bin_events(a, cfg), bin_events(b, cfg))

    def test_audio_shape(self):
        s = parse_audio_events("0,0\n699,999", num_units=700)
        out = bin_events(s, BinningConfig(T=10, window=1000))
        assert out.shape == (10, 700)

    def test_window_must_cover_stream(self):
        s = parse_audio_events("0,5000", num_units=10)
        with pytest.raises(DataError, match="cover"):
            bin_events(s, BinningConfig(T=4, window=1000))

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), 0.0, -5.0])
    def test_window_must_be_finite_and_positive(self, window):
        with pytest.raises(DataError, match="window"):
            BinningConfig(T=4, window=window)

    def test_event_on_a_bin_boundary_opens_that_bin(self):
        # 3 us is exactly 59 bins of 6/118 us; t / (window / T) gave 58
        out = bin_events(parse_audio_events("0,3", num_units=1),
                         BinningConfig(T=118, window=6))
        assert np.flatnonzero(out[:, 0]).tolist() == [59]

    @given(window=st.integers(1, 10**6), T=st.integers(1, 500), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_event_bin_is_scaled_floor(self, window, T, data):
        ts = sorted(data.draw(st.lists(st.integers(0, window), min_size=1, max_size=20)))
        stream = AudioSpikeStream(np.arange(len(ts)), np.asarray(ts, dtype=np.int64), len(ts))
        out = bin_events(stream, BinningConfig(T=T, window=float(window)))
        bins = [np.flatnonzero(out[:, i]).tolist() for i in range(len(ts))]
        assert bins == [[min(t * T // window, T - 1)] for t in ts]

    def test_timestamps_too_large_to_bin_exactly_rejected(self):
        # t*T overflowed int64 and put the second event in bin 13, not 98
        s = parse_audio_events("1,50000000000000000\n0,100000000000000000")
        with pytest.raises(DataError, match="too large"):
            bin_events(s, BinningConfig(T=99, window=1e17))

    def test_values_are_binary(self):
        s = parse_audio_events("\n".join(f"{i % 5},{i * 3}" for i in range(50)), num_units=5)
        out = bin_events(s, BinningConfig(T=7, window=200))
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestDelayedRecall:
    def test_delay_must_be_shorter_than_sequence(self):
        with pytest.raises(DataError):
            gen_delayed_recall(10, 10, 5)

    def test_shapes_and_channels(self):
        ds = gen_delayed_recall(4, 20, 32, classes=6, seed=0)
        assert ds.inputs.shape == (32, 20, 7)
        assert set(np.unique(ds.inputs)) <= {0.0, 1.0}

    def test_label_distribution_uniform(self):
        ds = gen_delayed_recall(16, 99, 10_000, classes=10, seed=3)
        freqs = np.bincount(ds.labels, minlength=10) / 10_000
        assert np.all(np.abs(freqs - 0.1) <= 0.02)

    def test_cue_step_oracle_is_perfect(self):
        ds = gen_delayed_recall(8, 40, 200, classes=5, noise=0.9, seed=1)
        cue_steps = ds.meta["cue_steps"]
        preds = np.array([ds.inputs[i, cue_steps[i], :5].argmax() for i in range(200)])
        assert np.array_equal(preds, ds.labels)

    def test_final_step_reader_is_chance(self):
        ds = gen_delayed_recall(8, 40, 2000, classes=5, noise=0.9, seed=2)
        preds = ds.inputs[:, -1, :5].argmax(axis=1)
        acc = (preds == ds.labels).mean()
        assert acc <= 0.30  # chance is 0.2

    def test_noise_free_memoryless_readout_is_perfect(self):
        # without decoys the cue is the only activity, so summing each cue
        # channel over time and taking the argmax recovers every label
        ds = gen_delayed_recall(8, 40, 300, classes=5, noise=0.0, seed=4)
        preds = ds.inputs[:, :, :5].sum(axis=1).argmax(axis=1)
        assert np.array_equal(preds, ds.labels)

    def test_degenerate_zero_delay_is_instantaneous(self):
        # the trigger coincides with the cue, so the triggered frame alone
        # classifies every sample
        ds = gen_delayed_recall(0, 20, 150, classes=4, noise=0.5, seed=5)
        cue_steps = ds.meta["cue_steps"]
        preds = np.array([ds.inputs[i, cue_steps[i], :4].argmax() for i in range(150)])
        assert np.array_equal(preds, ds.labels)

    def test_trigger_marks_cue_plus_delay(self):
        ds = gen_delayed_recall(6, 30, 100, classes=3, noise=0.7, seed=6)
        for i in range(100):
            t0 = ds.meta["cue_steps"][i]
            trig = np.nonzero(ds.inputs[i, :, 3])[0]
            assert list(trig) == [t0 + 6]

    def test_deterministic(self):
        a = gen_delayed_recall(4, 20, 50, seed=7)
        b = gen_delayed_recall(4, 20, 50, seed=7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)


class TestInjectNoise:
    def test_rate_zero_identity(self):
        x = (np.random.default_rng(0).random((5, 8)) < 0.3).astype(float)
        assert np.array_equal(inject_noise(x, 0.0, seed=1), x)

    def test_rate_one_all_ones(self):
        x = np.zeros((4, 6))
        assert inject_noise(x, 1.0, seed=2).min() == 1.0

    def test_ones_stay_ones(self):
        x = np.ones((3, 3))
        assert np.array_equal(inject_noise(x, 0.5, seed=3), x)

    def test_flip_count_within_3_sigma(self):
        x = np.zeros((100, 100))
        rate = 0.2
        flipped = inject_noise(x, rate, seed=4).sum()
        n = x.size
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(flipped - n * rate) <= 3 * sigma

    @given(rate=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_output_stays_binary(self, rate):
        x = (np.random.default_rng(5).random((6, 6)) < 0.4).astype(float)
        out = inject_noise(x, rate, seed=6)
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = gen_delayed_recall(4, 20, 12, classes=3, seed=8)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)

    def test_save_is_reproducible_bytes(self, tmp_path):
        ds = gen_delayed_recall(4, 20, 5, classes=3, seed=9)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("manifest.json", "sample_00000.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
