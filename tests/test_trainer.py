import math

import numpy as np
import pytest

from conftest import check_grads, spec_loss_builder
from tempospike import trainer
from tempospike.data import Dataset, gen_delayed_recall
from tempospike.engine import Tensor
from tempospike.graph import TSkip, from_shorthand, mlp_spec
from tempospike.metrics import energy_total, profile_network
from tempospike.trainer import (
    AdamState,
    CosineSchedule,
    DivergenceError,
    EpochRecord,
    MultiStepSchedule,
    TrainConfig,
    TrainError,
    adam_step,
    clip_grads,
    evaluate,
    load_checkpoint,
    loss,
    save_checkpoint,
    split_seed,
    train,
)


def separable_dataset(n=80, classes=4, T=3, seed=0):
    """Static one-hot patterns repeated over time; linearly separable."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes).astype(np.int64)
    x = np.zeros((n, T, classes))
    x[np.arange(n), :, labels] = 1.0
    return Dataset(inputs=x, labels=labels)


class TestAdam:
    def test_zero_gradients_leave_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True, name="p")
        st = AdamState()
        adam_step({"p": p}, {p: np.zeros(2)}, st, lr=0.1)
        assert p.data.tolist() == [1.0, -2.0]

    def test_first_step_hand_computed(self):
        # g=1, lr=0.1: m_hat = v_hat = 1, so the update is lr / (1 + eps)
        p = Tensor(np.array([1.0]), requires_grad=True, name="p")
        st = AdamState()
        adam_step({"p": p}, {p: np.array([1.0])}, st, lr=0.1)
        assert p.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)

    def test_missing_grad_skips_param(self):
        p = Tensor(np.array([3.0]), requires_grad=True, name="p")
        adam_step({"p": p}, {}, AdamState(), lr=0.5)
        assert p.data[0] == 3.0

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True, name="theta")
        with pytest.raises(TrainError, match="theta"):
            adam_step({"theta": p}, {p: np.array([np.nan])}, AdamState(), lr=0.1)

    def test_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.normal(size=4), requires_grad=True)
            st = AdamState()
            for i in range(10):
                g = np.sin(np.arange(4.0) + i)
                adam_step({"p": p}, {p: g}, st, lr=0.01)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_clip_grads_scales_above_norm(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        grads = {p: np.array([30.0, 40.0, 0.0])}
        norm = clip_grads(grads, 10.0)
        assert norm == pytest.approx(50.0)
        assert np.linalg.norm(grads[p]) == pytest.approx(10.0)


class TestSchedules:
    def test_multistep_fixture(self):
        sched = MultiStepSchedule(lr_init=1e-3, gamma=0.7, every=10)
        assert sched.lr_at(0) == pytest.approx(1e-3)
        assert sched.lr_at(10) == pytest.approx(7e-4)
        assert sched.lr_at(20) == pytest.approx(4.9e-4)
        assert sched.lr_at(9) == pytest.approx(1e-3)

    def test_cosine_endpoints(self):
        sched = CosineSchedule(lr_init=1e-3, lr_min=5e-6, total_steps=1000, update_every=10)
        assert sched.lr_at(0) == pytest.approx(1e-3)
        assert sched.lr_at(1000) == pytest.approx(5e-6)
        assert sched.lr_at(10_000) == pytest.approx(5e-6)  # clamped past the end

    def test_cosine_midpoint_symmetry(self):
        sched = CosineSchedule(lr_init=1e-3, lr_min=5e-6, total_steps=1000, update_every=10)
        assert sched.lr_at(500) == pytest.approx((1e-3 + 5e-6) / 2)

    def test_cosine_steps_in_blocks_of_update_every(self):
        sched = CosineSchedule(lr_init=1e-3, lr_min=5e-6, total_steps=100, update_every=10)
        assert sched.lr_at(3) == sched.lr_at(0)
        assert sched.lr_at(10) < sched.lr_at(9)


class TestLoss:
    def test_mse_identical_zero(self):
        a = Tensor(np.arange(4.0).reshape(2, 2))
        assert loss(a, Tensor(a.data.copy()), "mse").item() == 0.0

    def test_mse_one_hot_encodes_integer_labels(self):
        logits = Tensor(np.zeros((2, 3)))
        val = loss(logits, np.array([0, 2]), "mse").item()
        assert val == pytest.approx(2.0 / 6.0)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((5, 8)))
        val = loss(logits, np.arange(5), "cross_entropy").item()
        assert val == pytest.approx(math.log(8))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loss(Tensor(np.zeros((1, 2))), np.array([0]), "huber")


class TestSplitSeed:
    def test_streams_differ_by_label(self):
        a = split_seed(0, "train").random(4)
        b = split_seed(0, "data").random(4)
        assert not np.array_equal(a, b)

    def test_streams_reproducible(self):
        assert np.array_equal(split_seed(7, "x").random(4), split_seed(7, "x").random(4))


class TestTrainLoop:
    def test_learns_linearly_separable_task(self):
        ds = separable_dataset()
        spec = mlp_spec([4, 16, 4], T=3)
        cfg = TrainConfig(epochs=20, batch_size=16, lr_init=0.01, scheduler="cosine",
                          loss="cross_entropy", seed=0, bntt=False)
        net, records = train(spec, ds, cfg)
        train_acc = [r.accuracy for r in records if r.split == "train"]
        assert max(train_acc) == 1.0

    def test_metrics_log_deterministic(self, tmp_path):
        ds = separable_dataset(n=32)
        spec = mlp_spec([4, 8, 4], T=3)
        cfg = TrainConfig(epochs=3, batch_size=8, lr_init=0.01, seed=9, bntt=False,
                          dropout=0.3)
        train(spec, ds, cfg, val_ds=ds, log_path=tmp_path / "a.csv")
        train(spec, ds, cfg, val_ds=ds, log_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("tskip", [TSkip(0, 1, 2), TSkip(2, 1, 1)],
                             ids=["forward edge", "backward edge"])
    def test_bool_dataset_trains_as_its_float64_cast(self, tmp_path, tskip):
        # a bool batch becomes float64 once, in cast_input: every loss,
        # parameter gradient and metrics.csv byte equals the float64 run's
        ds = gen_delayed_recall(2, 8, 24, classes=3, seed=1)
        assert ds.inputs.dtype == bool
        spec = mlp_spec([4, 8, 8, 3], T=8, tskips=[tskip])
        cfg = TrainConfig(epochs=2, batch_size=8, lr_init=0.01, seed=2, bntt=True, dropout=0.2,
                          loss="cross_entropy")

        def run(inputs, log):
            losses, grads = [], []
            step, loss_of = trainer.adam_step, trainer.loss

            def recorded_step(params, g, *args):
                grads.append({k.name: v.copy() for k, v in g.items()})
                return step(params, g, *args)

            def recorded_loss(*args):
                value = loss_of(*args)
                losses.append(value.item())
                return value

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trainer, "adam_step", recorded_step)
                patch.setattr(trainer, "loss", recorded_loss)
                train(spec, Dataset(inputs, ds.labels), cfg,
                      val_ds=Dataset(inputs[:8], ds.labels[:8]), log_path=log)
            return losses, grads, log.read_bytes()

        losses_a, grads_a, log_a = run(ds.inputs, tmp_path / "bool.csv")
        losses_b, grads_b, log_b = run(ds.inputs.astype(np.float64), tmp_path / "float64.csv")
        assert len(grads_a) == 6 and losses_a == losses_b and log_a == log_b
        for ga, gb in zip(grads_a, grads_b):
            assert ga.keys() == gb.keys()
            assert all(np.array_equal(ga[k], gb[k]) for k in ga)

    def test_dropout_zero_matches_default(self):
        ds = separable_dataset(n=24)
        spec = mlp_spec([4, 8, 4], T=3)
        base = TrainConfig(epochs=2, batch_size=8, seed=4, bntt=False)
        explicit = TrainConfig(epochs=2, batch_size=8, seed=4, bntt=False, dropout=0.0)
        _, rec_a = train(spec, ds, base)
        _, rec_b = train(spec, ds, explicit)
        assert [r.csv_row() for r in rec_a] == [r.csv_row() for r in rec_b]

    def test_lif_invariants_hold_after_training(self):
        ds = separable_dataset(n=24)
        spec = mlp_spec([4, 8, 8, 4], T=3, tskips=[TSkip(0, 2, 1)])
        cfg = TrainConfig(epochs=4, batch_size=8, lr_init=0.05, seed=1, bntt=False)
        net, _ = train(spec, ds, cfg)
        for i in (1, 2):
            leak = net.params[f"L{i}.leak"].data.item()
            vth = net.params[f"L{i}.threshold"].data.item()
            assert 0.0 < leak < 1.0
            assert vth > 0.0

    def test_empty_dataset_rejected(self):
        ds = Dataset(inputs=np.zeros((0, 3, 4)), labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(TrainError, match="empty"):
            train(mlp_spec([4, 4, 4], T=3), ds, TrainConfig(epochs=1))

    def test_invalid_spec_rejected(self):
        ds = separable_dataset(n=8)
        bad = mlp_spec([4, 8, 4], T=3, tskips=[TSkip(2, 1, 0)])
        with pytest.raises(Exception, match="invalid architecture"):
            train(bad, ds, TrainConfig(epochs=1))

    def test_bntt_flag_materializes_params(self):
        ds = separable_dataset(n=16)
        spec = mlp_spec([4, 8, 4], T=3)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=2, bntt=True)
        net, _ = train(spec, ds, cfg)
        assert net.params["L1.bntt_gamma"].shape == net.params["L1.bntt_beta"].shape == (3, 8)
        assert "L1.bntt_g0" not in net.params
        assert net.spec.bntt

    @pytest.mark.parametrize("kind", ["mse", "cross_entropy"])
    def test_divergence_aborts_with_diagnostic(self, kind):
        # an absurd step size overflows the squared error on the next pass;
        # cross-entropy stays finite, but its gradients do not
        ds = separable_dataset(n=16)
        spec = mlp_spec([4, 8, 4], T=3)
        cfg = TrainConfig(epochs=3, batch_size=16, lr_init=1e160, loss=kind, seed=0,
                          bntt=False, grad_clip=0.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=r"^training diverged at epoch \d+, "
                                                     r"iteration \d+: (loss|non-finite)"):
            train(spec, ds, cfg)

    def test_non_finite_validation_loss_aborts(self):
        # one update at an absurd step size; the squared error of the
        # validation pass overflows before any further training step
        ds = separable_dataset(n=16)
        cfg = TrainConfig(epochs=1, batch_size=16, lr_init=1e160, loss="mse", seed=0,
                          bntt=False, grad_clip=0.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="validation loss"):
            train(mlp_spec([4, 8, 4], T=3), ds, cfg, val_ds=ds)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("batch_size", 0), ("step_every", 0), ("lr_init", 0.0),
        ("lr_init", math.nan), ("lr_init", math.inf), ("dropout", 1.5),
        ("grad_clip", math.nan), ("grad_clip", -1.0), ("surrogate_alpha", math.nan),
        ("surrogate_alpha", -2.0), ("surrogate_alpha", 0.0), ("surrogate_alpha", math.inf),
        ("lr_min", math.nan), ("lr_min", math.inf), ("lr_min", -5.0), ("gamma", math.nan),
        ("gamma", math.inf), ("gamma", 0.0), ("gamma", -0.7), ("scheduler", "bogus"),
        ("loss", "hinge"), ("seed", -1),
    ])
    def test_config_ranges_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_progress_callback_stops_early(self):
        ds = separable_dataset(n=16)
        spec = mlp_spec([4, 8, 4], T=3)
        cfg = TrainConfig(epochs=50, batch_size=8, seed=0, bntt=False)
        _, records = train(spec, ds, cfg, progress=lambda epoch, recs: epoch >= 2)
        assert records[-1].epoch == 2


class TestEvaluateAndCheckpoint:
    def test_evaluate_matches_training_metrics(self):
        ds = separable_dataset(n=40)
        spec = mlp_spec([4, 16, 4], T=3)
        cfg = TrainConfig(epochs=10, batch_size=8, lr_init=0.01, seed=3, bntt=False)
        net, _ = train(spec, ds, cfg)
        _, acc, stats = evaluate(net, ds, cfg)
        assert acc == 1.0
        assert stats.samples == 40

    def test_checkpoint_round_trip(self, tmp_path):
        ds = separable_dataset(n=24)
        spec = mlp_spec([4, 8, 4], T=3, tskips=[TSkip(0, 1, 1)])
        cfg = TrainConfig(epochs=2, batch_size=8, seed=5, bntt=False)
        net, _ = train(spec, ds, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, extra={"note": "test"})
        restored, extra = load_checkpoint(path)
        assert extra == {"note": "test"}
        _, acc_a, _ = evaluate(net, ds, cfg)
        _, acc_b, _ = evaluate(restored, ds, cfg)
        assert acc_a == acc_b
        for name in net.params:
            assert np.array_equal(net.params[name].data, restored.params[name].data)

    def test_conv_readout_trains_evaluates_profiles_and_differentiates(self):
        # a conv accumulator readout: readout_logits sums its potentials over
        # the steps and averages its map, so its logits are [batch, channels]
        spec = from_shorthand("2x6x6-3c4s1-3c3s1", T=4)
        rng = np.random.default_rng(4)
        ds = Dataset(rng.random((12, 4, 2, 6, 6)) < 0.4, rng.integers(0, 3, size=12))
        cfg = TrainConfig(epochs=1, batch_size=4, seed=2, bntt=False, loss="cross_entropy")
        net, records = train(spec, ds, cfg)
        assert [r.split for r in records] == ["train"] and math.isfinite(records[0].loss)
        eval_loss, acc, stats = evaluate(net, ds, cfg)
        assert math.isfinite(eval_loss) and 0.0 <= acc <= 1.0 and stats.samples == 12
        assert list(stats.counts) == [1] and stats.counts[1].any()
        rows = energy_total(profile_network(spec, stats)).rows
        assert [(r["layer"], r["kind"], r["neurons"], r["fan_in"]) for r in rows] == [
            ("L1", "snn", 4 * 6 * 6, 2 * 3 * 3), ("L2", "snn", 3 * 6 * 6, 4 * 3 * 3)]
        assert rows[0]["energy_j"] > 0.0 and rows[1]["ops"] == 0.0
        grad_net, build_loss = spec_loss_builder(spec, seed=6)
        check_grads(build_loss, list(grad_net.params.values()), tol=1e-4)

    def test_epoch_record_csv_shape(self):
        rec = EpochRecord(3, "val", 0.25, 0.9, 1.5, 1e-3)
        assert rec.csv_row().split(",")[:2] == ["3", "val"]
