import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tempospike.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from tempospike.data import load_dataset
from tempospike.graph import (ArchSpec, LayerSpec, Network, load_spec, mlp_spec, save_spec,
                              spec_to_dict, TSkip)
from tempospike.trainer import TrainConfig, TrainError, load_checkpoint, save_checkpoint


@pytest.fixture
def tiny_data(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--task", "delayed-recall", "--D", "2", "--T", "6",
                 "--n", "40", "--n-test", "12", "--classes", "3", "--noise", "0.5",
                 "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    return out


@pytest.fixture
def tiny_spec(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(mlp_spec([4, 8, 3], T=6), path)
    return path


class TestSynth:
    def test_writes_manifest_and_samples(self, tiny_data):
        ds = load_dataset(tiny_data / "train")
        assert len(ds) == 40
        assert (tiny_data / "run.json").exists()
        assert (tiny_data / "test" / "manifest.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["synth", "--D", "3", "--T", "8", "--n", "10", "--n-test", "0",
                "--classes", "4", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("train/manifest.json", "train/sample_00003.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_delay_not_below_sequence_is_usage_error(self, tmp_path):
        code = main(["synth", "--D", "6", "--T", "6", "--n", "5",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


class TestTrain:
    def test_smoke_and_outputs(self, tmp_path, tiny_data, tiny_spec):
        out = tmp_path / "run"
        code = main(["train", "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                     "--val-data", str(tiny_data / "test"), "--epochs", "2",
                     "--batch", "16", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "checkpoint.npz").exists()
        text = (out / "metrics.csv").read_text()
        assert text.startswith("epoch,split,loss,accuracy,spike_rate,lr")
        assert ",val," in text

    def test_seed_determinism(self, tmp_path, tiny_data, tiny_spec):
        args = ["train", "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                "--epochs", "2", "--batch", "16", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "r2")]) == EXIT_OK
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() \
            == (tmp_path / "r2" / "metrics.csv").read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path, tiny_data):
        bad = tmp_path / "bad.json"
        save_spec(mlp_spec([4, 8, 3], T=6, tskips=[TSkip(2, 1, 0)]), bad)
        code = main(["train", "--spec", str(bad), "--data", str(tiny_data / "train"),
                     "--epochs", "1", "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION

    def test_negative_timestamp_in_data_exits_2(self, tmp_path, tiny_data, tiny_spec):
        sample = tiny_data / "train" / "sample_00000.csv"
        sample.write_text("0,-1\n" + sample.read_text())
        code = main(["train", "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                     "--epochs", "1", "--out", str(tmp_path / "r")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("batch, code", [("1", EXIT_VALIDATION), ("2", EXIT_VALIDATION),
                                             ("4", EXIT_VALIDATION), ("3", EXIT_OK)])
    def test_bntt_batch_of_one_exits_2_before_training(self, tmp_path, capsys, batch, code):
        # 5 samples leave a last batch of 1 at --batch 2 and 4, where BNTT
        # has no batch statistics; at --batch 3 the last batch holds 2
        data = tmp_path / "data"
        assert main(["synth", "--D", "2", "--T", "4", "--n", "5", "--n-test", "0",
                     "--classes", "3", "--out", str(data)]) == EXIT_OK
        spec = tmp_path / "spec.json"
        save_spec(mlp_spec([4, 8, 3], T=4, bntt=True), spec)
        out = tmp_path / "run"
        assert main(["train", "--spec", str(spec), "--data", str(data / "train"),
                     "--epochs", "1", "--batch", batch, "--out", str(out)]) == code
        if code == EXIT_VALIDATION:
            err = capsys.readouterr().err
            assert f"5 samples in batches of {batch}" in err, err
            assert not (out / "metrics.csv").exists()

    def test_default_flags_are_classification_recipe(self):
        # Adam + cosine 1e-3 -> 5e-6 over 100 epochs is the out-of-the-box recipe
        from tempospike.cli import build_parser

        args = build_parser().parse_args(["train", "--spec", "s", "--data", "d",
                                          "--out", "o"])
        assert (args.epochs, args.lr, args.scheduler, args.lr_min) \
            == (100, 1e-3, "cosine", 5e-6)
        assert args.loss == "cross_entropy"

    def test_flow_recipe_flags(self, tmp_path, tiny_data, tiny_spec):
        out = tmp_path / "flow"
        code = main(["train", "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                     "--scheduler", "multistep", "--gamma", "0.7", "--every", "10",
                     "--epochs", "2", "--loss", "mse", "--batch", "16",
                     "--out", str(out)])
        assert code == EXIT_OK
        run = json.loads((out / "run.json").read_text())
        assert run["scheduler"] == "multistep" and run["loss"] == "mse"

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_run_record_holds_the_train_config(self, tmp_path, tiny_data, tiny_spec, command):
        out = tmp_path / "run"
        flags = ["--data", str(tiny_data / "train"), "--epochs", "1", "--batch", "16",
                 "--lr", "0.002", "--dropout", "0.1", "--seed", "4", "--out", str(out)]
        head = ["train", "--spec", str(tiny_spec)] if command == "train" else \
            ["ablate", "--axis", "depth", "--grid", "2", "--spec", str(tiny_spec)]
        assert main(head + flags) == EXIT_OK
        cfg = TrainConfig(epochs=1, batch_size=16, lr_init=0.002, dropout=0.1, seed=4)
        run = json.loads((out / "run.json").read_text())
        assert TrainConfig(**run["train_config"]) == cfg
        if command == "train":
            _, extra = load_checkpoint(out / "checkpoint.npz")
            assert extra == {"train_config": run["train_config"]}


class TestSearch:
    def _space_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "input_shape": [6], "out_units": 3, "T": 6,
            "depth_range": [2, 3], "width_range": [4, 8],
            "tskip_count_range": [1, 1], "delta_t_range": [1, 4],
            "param_budget": 2000,
        }))
        return path

    def test_space_file_smoke(self, tmp_path):
        out = tmp_path / "search"
        code = main(["search", "--space", str(self._space_file(tmp_path)),
                     "--n", "4", "--k", "2", "--probe-batch", "6",
                     "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "rank,score,params,depth,tskips,spec_path"
        assert len(report) == 3
        spec = load_spec(out / "spec_rank1.json")
        assert spec.T == 6

    def test_parallel_equals_serial(self, tmp_path):
        space = self._space_file(tmp_path)
        base = ["search", "--space", str(space), "--n", "6", "--k", "3",
                "--probe-batch", "6", "--seed", "9"]
        assert main(base + ["--out", str(tmp_path / "s1")]) == EXIT_OK
        assert main(base + ["--parallel", "4", "--out", str(tmp_path / "s2")]) == EXIT_OK
        assert (tmp_path / "s1" / "report.csv").read_bytes() \
            == (tmp_path / "s2" / "report.csv").read_bytes()

    def test_preset_constraints_applied(self, tmp_path):
        out = tmp_path / "shd"
        code = main(["search", "--preset", "shd", "--n", "2", "--k", "1",
                     "--probe-batch", "3", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        spec = load_spec(out / "spec_rank1.json")
        from tempospike.graph import param_count

        assert param_count(spec) <= 300_000
        for e in spec.tskips:
            assert 10 <= e.delta_t <= 45

    def test_needs_preset_or_space(self, tmp_path):
        assert main(["search", "--n", "2", "--k", "1",
                     "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_n_one_returns_single_candidate(self, tmp_path):
        out = tmp_path / "one"
        code = main(["search", "--space", str(self._space_file(tmp_path)),
                     "--n", "1", "--k", "1", "--probe-batch", "4",
                     "--seed", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "spec_rank1.json").exists()


class TestAblate:
    def test_delta_t_sweep_with_invalid_point(self, tmp_path, tiny_data):
        spec_path = tmp_path / "spec.json"
        save_spec(mlp_spec([4, 8, 3], T=6, tskips=[TSkip(0, 1, 2)]), spec_path)
        out = tmp_path / "sweep"
        code = main(["ablate", "--axis", "delta_t", "--grid", "1,3,6",
                     "--spec", str(spec_path), "--data", str(tiny_data / "train"),
                     "--epochs", "1", "--batch", "16", "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert "invalid" in rows[3]  # delta_t=6 equals T

    def test_position_sweep_row_count(self, tmp_path, tiny_data):
        spec_path = tmp_path / "spec.json"
        save_spec(mlp_spec([4, 8, 8, 3], T=6, tskips=[TSkip(0, 1, 2)]), spec_path)
        out = tmp_path / "pos"
        code = main(["ablate", "--axis", "position", "--grid", "1,2,3",
                     "--spec", str(spec_path), "--data", str(tiny_data / "train"),
                     "--epochs", "1", "--batch", "16", "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 4

    def test_empty_grid_is_usage_error(self, tmp_path, tiny_data, tiny_spec):
        code = main(["ablate", "--axis", "delta_t", "--grid", ",",
                     "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


class TestEnergy:
    def test_report_totals_match_rows(self, tmp_path, tiny_data, tiny_spec):
        run = tmp_path / "run"
        assert main(["train", "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                     "--epochs", "1", "--batch", "16", "--out", str(run)]) == EXIT_OK
        out = tmp_path / "energy"
        code = main(["energy", "--checkpoint", str(run / "checkpoint.npz"),
                     "--data", str(tiny_data / "test"), "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "energy.csv").read_text().strip().splitlines()
        body = [r.split(",") for r in rows[1:-1]]
        total = float(rows[-1].split(",")[-1])
        assert total == pytest.approx(sum(float(r[-1]) for r in body), rel=1e-9)

    def test_ann_only_network_mac_energy(self, tmp_path, tiny_data):
        spec = ArchSpec(input_shape=(4,),
                        layers=(LayerSpec("dense", 8, activation="relu"),
                                LayerSpec("dense", 3, activation="linear")),
                        T=6)
        net = Network.build(spec, seed=0)
        ckpt = tmp_path / "ann.npz"
        save_checkpoint(ckpt, net)
        out = tmp_path / "energy_ann"
        code = main(["energy", "--checkpoint", str(ckpt),
                     "--data", str(tiny_data / "test"), "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "energy.csv").read_text()
        expected = (4 * 8 + 8 * 3) * 4.6e-12
        assert f"{expected:.6g}" in text.splitlines()[-1]

    def test_silent_network_zero_energy(self, tmp_path, tiny_data):
        spec = mlp_spec([4, 8, 3], T=6, threshold_init=1e6)
        net = Network.build(spec, seed=0)
        ckpt = tmp_path / "silent.npz"
        save_checkpoint(ckpt, net)
        out = tmp_path / "energy_silent"
        assert main(["energy", "--checkpoint", str(ckpt),
                     "--data", str(tiny_data / "test"), "--out", str(out)]) == EXIT_OK
        rows = (out / "energy.csv").read_text().strip().splitlines()
        assert float(rows[-1].split(",")[-1]) == 0.0



def _edit_manifest(data_dir, edit):
    path = data_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return data_dir


def _manifest_in_a_list(data_dir):
    path = data_dir / "manifest.json"
    path.write_text(f"[{path.read_text()}]")
    return data_dir


def _set_first_label(label):
    return lambda m: m["samples"][0].update(label=label)


def _first_sample(data_dir, text):
    """``data_dir`` with its first sample's events replaced by ``text``."""
    (data_dir / "edited.csv").write_text(text)
    return _edit_manifest(data_dir, lambda m: m["samples"][0].update(file="edited.csv"))


def _spoil_first_sample(data_dir, spoil):
    """``data_dir`` after ``spoil`` is called on its first sample file's path."""
    spoil(data_dir / json.loads((data_dir / "manifest.json").read_text())["samples"][0]["file"])
    return data_dir


def _spec_file(tmp_path, **fields):
    path = tmp_path / "edited_spec.json"
    path.write_text(json.dumps({**spec_to_dict(mlp_spec([4, 8, 3], T=6)), **fields}))
    return path


def _space_file(tmp_path, **fields):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"input_shape": [6], "out_units": 3, "T": 6,
                                "depth_range": [2, 3], "width_range": [4, 8],
                                "delta_t_range": [1, 4], **fields}))
    return path


def _checkpoint(tmp_path, spec=mlp_spec([4, 8, 3], T=6), edit=lambda arrays: None):
    """A checkpoint of ``spec``'s network with its arrays passed through ``edit``."""
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, Network.build(spec, seed=0))
    with np.load(ckpt) as blob:
        arrays = {k: blob[k] for k in blob.files}
    edit(arrays)
    np.savez_compressed(ckpt, **arrays)
    return ckpt


def _train(spec, data, *flags):
    return ["train", "--spec", str(spec), "--data", str(data), "--epochs", "1", *flags]


def _ablate(tmp, data, *flags):
    return ["ablate", "--axis", "delta_t", "--grid", "1", "--spec", str(_spec_file(tmp)),
            "--data", str(data / "train"), "--epochs", "1", *flags]


def _search(space, *flags):
    return ["search", "--space", str(space), "--n", "2", "--k", "1", "--probe-batch", "4",
            *flags]


def _energy(ckpt, data, *flags):
    return ["energy", "--checkpoint", str(ckpt), "--data", str(data / "test"), *flags]


def _poison(key, value):
    """A checkpoint edit that writes ``value`` into the first entry of ``key``."""
    def edit(arrays):
        arrays[key].flat[0] = value
    return edit


def _meta(edit):
    """A checkpoint edit that replaces the JSON ``meta`` record by ``edit(meta)``."""
    def apply(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        arrays["meta"] = np.frombuffer(json.dumps(edit(meta)).encode("utf-8"), dtype=np.uint8)
    return apply


def _synth(*flags):
    return ["synth", "--D", "2", "--T", "6", "--n", "4", "--n-test", "2", *flags]


# Each row gives the exit code and the command line, without --out, built from
# a temporary directory and the tiny dataset; the readout width is 3.
BROKEN_INPUTS = {
    "spec T not an integer": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, T="x"), data / "train")),
    "spec T a float": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, T=6.0), data / "train")),
    "spec edge dest a boolean": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, tskips=[{"origin": 0, "dest": True, "delta_t": 1}]), data / "train")),
    "spec bntt a string": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, bntt="false"), data / "train")),
    "spec layer width a fraction": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, layers=[{"kind": "dense", "out": 8.5}, 3]), data / "train")),
    "spec edge delay a string": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, tskips=[{"origin": 0, "dest": 1, "delta_t": "1"}]), data / "train")),
    "spec threshold_init NaN": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, threshold_init=float("nan")), data / "train")),
    "spec threshold_init infinite": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, threshold_init=float("inf")), data / "train")),
    "spec threshold_init below the clamp": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, threshold_init=0.005), data / "train")),
    "spec leak_init above the clamp": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, leak_init=0.9995), data / "train")),
    "spec layer width 2000000000": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, layers=[{"kind": "dense", "out": 2000000000}, 3]), data / "train")),
    "spec conv layer after a dense layer": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, layers=[{"kind": "dense", "out": 8},
                                {"kind": "conv2d", "out": 3, "kernel": 3, "stride": 1,
                                 "activation": "li"}]), data / "train")),
    "spec edge alpha_init NaN": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp, tskips=[{"origin": 0, "dest": 1, "delta_t": 1, "alpha": True,
                                 "alpha_init": float("nan")}]), data / "train")),
    "missing spec file": (EXIT_VALIDATION, lambda tmp, data: _train(
        tmp / "absent.json", data / "train")),
    "missing data directory": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), tmp / "absent")),
    "manifest without T": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.pop("T")))),
    "manifest window_us NaN": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(window_us=math.nan)))),
    "manifest window_us infinite": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(window_us=math.inf)))),
    "manifest T a float": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(T=6.0)))),
    "manifest num_units a float": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(num_units=4.0)))),
    "manifest num_units 10**13": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(num_units=10**13)))),
    "manifest num_units -1 without samples": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train",
                                        lambda m: m.update(num_units=-1, samples=[])))),
    "manifest T 10**13": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(T=10**13)))),
    "manifest window_us a string": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(window_us="6")))),
    "manifest a list": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _manifest_in_a_list(data / "train"))),
    "manifest samples a number": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(samples=3)))),
    "manifest samples null": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(samples=None)))),
    "manifest samples a string": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(samples="ab")))),
    "manifest samples an object": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(samples={"a": 1})))),
    "manifest meta a list": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(meta=[1])))),
    "manifest meta a string": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", lambda m: m.update(meta="x")))),
    "manifest naming an absent sample": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train",
                                        lambda m: m["samples"][0].update(file="absent.csv")))),
    "sample entry's file null": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train",
                                        lambda m: m["samples"][0].update(file=None)))),
    "sample entry's file an object": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train",
                                        lambda m: m["samples"][0].update(file={})))),
    "sample entry not an object": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train",
                                        lambda m: m["samples"].__setitem__(0, 4)))),
    "sample timestamp beyond int64": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _first_sample(data / "train", "0,1\n1,9223372036854775808\n"))),
    "sample file missing": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _spoil_first_sample(data / "train", Path.unlink))),
    "sample file not UTF-8": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _spoil_first_sample(data / "train",
                                             lambda p: p.write_bytes(b"0,1\n\xff\n")))),
    "sample file a directory": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _spoil_first_sample(data / "train", lambda p: (p.unlink(), p.mkdir())))),
    "label a fraction": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", _set_first_label(1.7)))),
    "label a boolean": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", _set_first_label(True)))),
    "label above the readout width": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", _set_first_label(12)))),
    "label beyond int64": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", _set_first_label(2**63)))),
    "negative label": (EXIT_VALIDATION, lambda tmp, data: _train(
        _spec_file(tmp), _edit_manifest(data / "train", _set_first_label(-1)))),
    "train --lr 0": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--lr", "0")),
    "train --dropout 1.5": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--dropout", "1.5")),
    "train --batch 0": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--batch", "0")),
    "train --epochs 0": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--epochs", "0")),
    "train --every 0": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--every", "0")),
    "train --lr-min nan": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--lr-min", "nan")),
    "train --lr-min -5": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--lr-min", "-5")),
    "train --gamma inf": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--scheduler", "multistep", "--gamma", "inf")),
    "train --lr 1e160 with cross-entropy": (EXIT_DIVERGENCE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--epochs", "3", "--batch", "40", "--lr", "1e160")),
    "ablate --lr 0": (EXIT_USAGE, lambda tmp, data: _ablate(tmp, data, "--lr", "0")),
    "ablate --dropout 1.5": (EXIT_USAGE, lambda tmp, data: _ablate(tmp, data, "--dropout", "1.5")),
    "ablate --grid with a word": (EXIT_USAGE, lambda tmp, data: _ablate(
        tmp, data, "--grid", "4,x")),
    "energy --batch 0": (EXIT_USAGE, lambda tmp, data: _energy(
        _checkpoint(tmp), data, "--batch", "0")),
    "checkpoint with a NaN weight": (EXIT_VALIDATION, lambda tmp, data: _energy(
        _checkpoint(tmp, edit=_poison("p::L1.w", np.nan)), data)),
    "checkpoint meta a JSON list": (EXIT_VALIDATION, lambda tmp, data: _energy(
        _checkpoint(tmp, edit=_meta(lambda m: [m])), data)),
    "checkpoint meta without spec": (EXIT_VALIDATION, lambda tmp, data: _energy(
        _checkpoint(tmp, edit=_meta(lambda m: {k: v for k, v in m.items() if k != "spec"})),
        data)),
    "checkpoint seed a string": (EXIT_VALIDATION, lambda tmp, data: _energy(
        _checkpoint(tmp, edit=_meta(lambda m: {**m, "seed": "abc"})), data)),
    "checkpoint seed negative": (EXIT_VALIDATION, lambda tmp, data: _energy(
        _checkpoint(tmp, edit=_meta(lambda m: {**m, "seed": -1})), data)),
    "checkpoint seed a boolean": (EXIT_VALIDATION, lambda tmp, data: _energy(
        _checkpoint(tmp, edit=_meta(lambda m: {**m, "seed": True})), data)),
    "space file with an unknown field": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, colour="blue"))),
    "space param_budget NaN": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, param_budget=math.nan))),
    "space threshold_init NaN": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, threshold_init=math.nan))),
    "space depth_range reversed": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, depth_range=[5, 3]))),
    "space width_range reversed": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, width_range=[64, 32]))),
    "space depth_range of one value": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, depth_range=[3]))),
    "space merge_choices empty": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, merge_choices=[]))),
    "space input_shape a number": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, input_shape=700))),
    "space T a fraction": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, T=99.5))),
    "space kind unknown": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, kind="foo"))),
    "space out_units 0": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, out_units=0))),
    "space reset unknown": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp, reset="none"))),
    "space T 10**9": (EXIT_USAGE, lambda tmp, data: _search(_space_file(tmp, T=10**9))),
    "search --probe-batch -1": (EXIT_USAGE, lambda tmp, data: _search(
        _space_file(tmp), "--probe-batch", "-1")),
    "search --probe-batch 1": (EXIT_USAGE, lambda tmp, data: _search(
        _space_file(tmp), "--probe-batch", "1")),
    "search --probe-batch 2000000000": (EXIT_USAGE, lambda tmp, data: _search(
        _space_file(tmp), "--probe-batch", "2000000000")),
    "search --parallel 0": (EXIT_USAGE, lambda tmp, data: _search(
        _space_file(tmp), "--parallel", "0")),
    "search --parallel -3": (EXIT_USAGE, lambda tmp, data: _search(
        _space_file(tmp), "--parallel", "-3")),
    "search --k 0": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp), "--k", "0")),
    "search --n 0 --k 0": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp), "--n", "0", "--k", "0")),
    "search --n 3 --k -1": (EXIT_VALIDATION, lambda tmp, data: _search(
        _space_file(tmp), "--n", "3", "--k", "-1")),
    "synth --n -1": (EXIT_USAGE, lambda tmp, data: _synth("--n", "-1")),
    "synth --n-test -1": (EXIT_USAGE, lambda tmp, data: _synth("--n-test", "-1")),
    "synth --n 10**12": (EXIT_USAGE, lambda tmp, data: _synth("--n", str(10**12))),
    "synth --seed -1": (EXIT_USAGE, lambda tmp, data: _synth("--seed", "-1")),
    "train --seed -1": (EXIT_USAGE, lambda tmp, data: _train(
        _spec_file(tmp), data / "train", "--seed", "-1")),
    "search --seed -1": (EXIT_USAGE, lambda tmp, data: _search(
        _space_file(tmp), "--seed", "-1")),
    "ablate --seed -1": (EXIT_USAGE, lambda tmp, data: _ablate(tmp, data, "--seed", "-1")),
    "energy --seed -1": (EXIT_USAGE, lambda tmp, data: _energy(
        _checkpoint(tmp), data, "--seed", "-1")),
}


# What the one-line message of some rows of BROKEN_INPUTS must name.
BROKEN_INPUT_MESSAGES = {
    "spec conv layer after a dense layer": "layer 2: conv2d needs a (c, h, w) input, got (8,)",
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_broken_input_exits_with_message(case, tmp_path, tiny_data, capsys):
    code, argv = BROKEN_INPUTS[case]
    # an unhandled exception would propagate out of main and fail the test
    assert main(argv(tmp_path, tiny_data) + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.strip()
    assert "error" in err and "\n" not in err, err
    assert BROKEN_INPUT_MESSAGES.get(case, "") in err, err


def test_out_of_range_label_in_evaluation_exits_2(tmp_path, tiny_data):
    ckpt = tmp_path / "net.npz"
    save_checkpoint(ckpt, Network.build(mlp_spec([4, 8, 3], T=6), seed=0))
    data = _edit_manifest(tiny_data / "test", _set_first_label(-1))
    assert main(["energy", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "e")]) == EXIT_VALIDATION


def test_divergence_exits_3(tmp_path, tiny_data, tiny_spec):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--spec", str(tiny_spec), "--data", str(tiny_data / "train"),
                     "--epochs", "3", "--batch", "40", "--lr", "1e160", "--loss", "mse",
                     "--out", str(tmp_path / "r")])
    assert code == EXIT_DIVERGENCE


@pytest.mark.parametrize("message", ["Unable to allocate 7.50 GiB for an array", ""])
def test_out_of_memory_exits_2_with_one_line(tmp_path, tiny_spec, monkeypatch, capsys,
                                             message):
    # the error is raised, not provoked: nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("tempospike.cli.load_dataset", out_of_memory)
    assert main(["train", "--spec", str(tiny_spec), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err == f"error: out of memory: {message or 'an allocation failed'}", err


def npy_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


class TestCheckpointInput:
    @pytest.mark.parametrize("edit", [
        lambda a: a.pop("p::L1.w"),
        lambda a: a.update({"p::L1.b": np.zeros(1)}),
        lambda a: a.pop("s::L1.bntt_mean"),
        lambda a: a.update({"s::L1.bntt_var": np.ones((1, 8))}),
        _poison("p::L1.w", np.inf),
        _poison("s::L1.bntt_var", np.nan),
        lambda a: a.update({"p::L1.w": np.full((4, 8), "x")}),
    ], ids=["missing weight", "bias of shape (1,)", "missing statistic",
            "statistic of one step", "infinite weight", "NaN statistic", "string weight"])
    def test_energy_rejects_bad_arrays(self, tmp_path, tiny_data, edit):
        ckpt = _checkpoint(tmp_path, mlp_spec([4, 8, 3], T=6, bntt=True), edit)
        code = main(["energy", "--checkpoint", str(ckpt), "--data", str(tiny_data / "test"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("write", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_text("not an archive\n"),
        lambda path: path.write_bytes(b"PK\x03\x04truncated"),
        lambda path: path.write_bytes(b""),
        lambda path: path.write_bytes(npy_bytes(np.zeros(3))),
        lambda path: np.savez(path, **{"p::L1.w": np.zeros((4, 8))}),
    ], ids=["missing path", "directory", "text file", "broken zip", "empty file",
            "single array", "npz without meta"])
    def test_energy_rejects_unreadable_checkpoint(self, tmp_path, tiny_data, write):
        ckpt = tmp_path / "net.npz"
        write(ckpt)
        code = main(["energy", "--checkpoint", str(ckpt), "--data", str(tiny_data / "test"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_VALIDATION

    def test_per_step_bntt_checkpoint_names_the_missing_array(self, tmp_path, tiny_data,
                                                             capsys):
        # the layout before BNTT scale and shift became one [T, C] array each
        def per_step_rows(arrays):
            for name, key in (("gamma", "g"), ("beta", "b")):
                for t, row in enumerate(arrays.pop(f"p::L1.bntt_{name}")):
                    arrays[f"p::L1.bntt_{key}{t}"] = row

        ckpt = _checkpoint(tmp_path, mlp_spec([4, 8, 3], T=6, bntt=True), per_step_rows)
        code = main(["energy", "--checkpoint", str(ckpt), "--data", str(tiny_data / "test"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_VALIDATION
        assert "'p::L1.bntt_gamma'" in capsys.readouterr().err

    def test_selection_mismatch_rejected(self, tmp_path):
        spec = mlp_spec([4, 8, 6, 3], T=6, tskips=[TSkip(0, 2, 1)])
        ckpt = _checkpoint(tmp_path, spec,
                              lambda a: a.update({"sel::0": (a["sel::0"] + 1) % 4}))
        with pytest.raises(TrainError, match="selection"):
            load_checkpoint(ckpt)
