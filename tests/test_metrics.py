import numpy as np
import pytest

from tempospike.graph import SpikeStats, TSkip, mlp_spec
from tempospike.metrics import (
    EnergyModel,
    LayerOpsProfile,
    accuracy,
    aee,
    energy_from_ops,
    energy_total,
    profile_network,
)

# Reference 45nm figures for fully spiking models: operation count (x 1e9)
# against total inference energy (mJ), reproducible to within the figures'
# own rounding (0.5%).
SNN_ENERGY_ROWS_GOPS_MJ = [
    (25.9, 23.3), (32.7, 29.4), (30.7, 27.6),
    (9.71, 8.75), (11.7, 10.5), (11.4, 10.3),
    (5.81, 5.25), (6.14, 5.52), (5.86, 5.27),
    (2.67, 2.40), (2.81, 2.53), (2.71, 2.44),
    (2.11, 1.90), (2.29, 2.07), (2.25, 2.02),
]


class TestEnergyArithmetic:
    @pytest.mark.parametrize("gops,mj", SNN_ENERGY_ROWS_GOPS_MJ)
    def test_table_rows_within_half_percent(self, gops, mj):
        joules = energy_from_ops(ops_snn=gops * 1e9)
        assert abs(joules * 1e3 - mj) / mj <= 0.005

    def test_ann_ops_direct_product(self):
        assert energy_from_ops(ops_ann=1e9) * 1e3 == pytest.approx(4.6)

    def test_snn_layer_formula(self):
        p = LayerOpsProfile(name="L1", kind="snn", neurons=100, fan_in=50,
                            spike_rate=0.2, T=10)
        assert p.ops() == pytest.approx(10 * 100 * 50 * 0.2)

    def test_hybrid_sums_both_kinds(self):
        rows = [
            LayerOpsProfile("a", "snn", neurons=10, fan_in=10, spike_rate=1.0, T=4),
            LayerOpsProfile("b", "ann", neurons=10, fan_in=10),
        ]
        report = energy_total(rows, EnergyModel())
        expected = 4 * 10 * 10 * 1.0 * 0.9e-12 + 10 * 10 * 4.6e-12
        assert report.total_joules == pytest.approx(expected)

    def test_linearity_in_rate(self):
        def total(rate):
            p = LayerOpsProfile("l", "snn", neurons=7, fan_in=3, spike_rate=rate, T=5)
            return energy_total([p]).total_joules

        assert total(0.4) == pytest.approx(2 * total(0.2))

    def test_report_total_is_row_sum(self):
        rows = [LayerOpsProfile(f"L{i}", "snn", neurons=i + 1, fan_in=4,
                                spike_rate=0.5, T=3) for i in range(4)]
        report = energy_total(rows)
        assert report.total_joules == pytest.approx(sum(r["energy_j"] for r in report.rows))

    def test_model_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            EnergyModel(e_ac=0.0)

    def test_csv_and_text_render(self):
        rows = [LayerOpsProfile("L1", "snn", neurons=5, fan_in=2, spike_rate=1.0, T=2)]
        report = energy_total(rows)
        assert "layer,kind" in report.to_csv()
        assert "E (mJ)" in report.to_text()


class TestSpikeRate:
    def test_silent_layer(self):
        stats = SpikeStats({1: np.zeros(10)}, samples=4)
        assert stats.rates()[1] == 0.0

    def test_every_neuron_every_step(self):
        stats = SpikeStats({1: np.full(10, 15.0)}, samples=3)
        assert stats.rates()[1] == pytest.approx(5.0)

    def test_half_neurons_once(self):
        stats = SpikeStats({1: np.repeat([1.0, 0.0], 5)}, samples=1)
        assert stats.rates()[1] == pytest.approx(0.5)

    def test_accumulate_over_batches(self):
        a = SpikeStats({1: np.array([3.0, 2.0, 1.0, 0.0])}, samples=2)
        b = SpikeStats({1: np.array([0.0, 1.0, 1.0, 2.0])}, samples=3)
        a.accumulate(b)
        assert a.samples == 5
        assert a.rates()[1] == pytest.approx(10.0 / (4 * 5))


class TestProfileNetwork:
    def test_fan_in_and_kinds(self):
        spec = mlp_spec([700, 124, 288, 20], T=99,
                        tskips=[TSkip(0, 2, 16, merge="concat")])
        stats = SpikeStats({1: np.ones(124), 2: np.zeros(288)}, samples=1)
        profiles = profile_network(spec, stats)
        assert [p.kind for p in profiles] == ["snn", "snn", "snn"]
        assert profiles[0].fan_in == 700
        assert profiles[1].fan_in == 124 * 2  # concat payload doubles the fan-in
        assert profiles[1].neurons == 288
        assert profiles[0].spike_rate == pytest.approx(1.0)
        assert profiles[2].spike_rate == 0.0  # accumulator readout emits no spikes

    def test_ann_only_network_has_no_snn_rows(self):
        from tempospike.graph import ArchSpec, LayerSpec

        spec = ArchSpec(input_shape=(10,),
                        layers=(LayerSpec("dense", 8, activation="relu"),
                                LayerSpec("dense", 4, activation="linear")),
                        T=5)
        profiles = profile_network(spec, SpikeStats(samples=1))
        assert all(p.kind == "ann" for p in profiles)
        report = energy_total(profiles)
        assert report.total_joules == pytest.approx((10 * 8 + 8 * 4) * 4.6e-12)


class TestAee:
    def test_identical_fields_zero(self):
        flow = np.random.default_rng(0).normal(size=(20, 2))
        assert aee(flow, flow.copy()) == 0.0

    def test_three_four_five(self):
        assert aee(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(5.0)

    def test_two_vector_average(self):
        pred = np.array([[1.0, 0.0], [0.0, 2.0]])
        gt = np.zeros((2, 2))
        assert aee(pred, gt) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aee(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
        assert aee(a, b) > 0.0


class TestAccuracy:
    def test_all_correct(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_all_wrong(self):
        logits = np.eye(4)
        assert accuracy(logits, (np.arange(4) + 1) % 4) == 0.0

    def test_three_of_four(self):
        logits = np.eye(4)
        labels = np.array([0, 1, 2, 0])
        assert accuracy(logits, labels) == 0.75

    def test_tie_breaks_to_lowest_index(self):
        logits = np.zeros((1, 5))
        assert accuracy(logits, np.array([0])) == 1.0
        assert accuracy(logits, np.array([3])) == 0.0
