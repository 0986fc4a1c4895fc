import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempospike.engine import SurrogateConfig, Tensor
from tempospike.neuron import (LEAK_MAX, LEAK_MIN, THRESHOLD_MIN, LifParams, LifState,
                               clamp_params, lif_step)

SURR = SurrogateConfig(2.0)


def run_chain(membrane0, drives, leak, threshold, reset_mode="soft"):
    """Drive one neuron for len(drives) steps; returns per-step (U, spike)."""
    params = LifParams.create(leak=leak, threshold=threshold, reset_mode=reset_mode)
    state = LifState(membrane=Tensor(np.asarray(membrane0, dtype=float)),
                     prev_spikes=Tensor(np.zeros_like(np.asarray(membrane0, dtype=float))))
    trace = []
    for d in drives:
        spikes, state = lif_step(state, Tensor(np.asarray(d, dtype=float)), params, SURR)
        trace.append((state.membrane.data.copy(), spikes.data.copy()))
    return trace


class TestDynamics:
    def test_rest_stays_at_rest(self):
        trace = run_chain([0.0], [[0.0]] * 4, leak=0.6, threshold=1.0)
        for u, o in trace:
            assert u.item() == 0.0 and o.item() == 0.0

    def test_geometric_decay_exact(self):
        u0 = 0.5
        for leak in (0.3, 0.6, 0.9):
            trace = run_chain([u0], [[0.0]] * 50, leak=leak, threshold=100.0)
            for t, (u, o) in enumerate(trace, start=1):
                assert o.item() == 0.0
                assert u.item() == pytest.approx(u0 * leak ** t, abs=1e-12)

    def test_constant_input_closed_form(self):
        # geometric series: U^t = c (1 - leak^t) / (1 - leak) below threshold
        c, leak = 3.0, 0.6
        trace = run_chain([0.0], [[c]] * 3, leak=leak, threshold=15.0)
        u3 = trace[-1][0].item()
        assert u3 == pytest.approx(3.0 * (1 - 0.216) / 0.4, abs=1e-12)
        assert u3 == pytest.approx(5.88, abs=1e-12)

    def test_threshold_crossing_and_resets(self):
        # U=14 + drive 2 with leak 1 crosses threshold 15: Z = 16/15 - 1 > 0
        params = LifParams.create(leak=0.999, threshold=15.0, reset_mode="soft")
        params.leak.data[...] = 1.0  # hypothetical no-leak step from the worked example
        state = LifState(membrane=Tensor(np.array([14.0])),
                         prev_spikes=Tensor(np.array([0.0])))
        spikes, state = lif_step(state, Tensor(np.array([2.0])), params, SURR)
        assert spikes.data.item() == 1.0
        assert state.membrane.data.item() == pytest.approx(16.0)
        # next step, soft reset subtracts the threshold
        spikes2, state2 = lif_step(state, Tensor(np.array([0.0])), params, SURR)
        assert state2.membrane.data.item() == pytest.approx(16.0 - 15.0)
        # hard reset instead zeroes the retained potential before integration
        params_hard = LifParams.create(leak=0.999, threshold=15.0, reset_mode="hard")
        params_hard.leak.data[...] = 1.0
        spikes3, state3 = lif_step(
            LifState(membrane=state.membrane, prev_spikes=spikes),
            Tensor(np.array([0.0])), params_hard, SURR)
        assert state3.membrane.data.item() == 0.0

    def test_soft_reset_subtraction_identity(self):
        # whenever a spike fired at t-1, exactly one threshold is removed
        rng = np.random.default_rng(2)
        leak, vth = 0.7, 1.0
        params = LifParams.create(leak=leak, threshold=vth, reset_mode="soft")
        state = LifState.zeros((1, 6))
        prev_u = state.membrane.data.copy()
        prev_o = state.prev_spikes.data.copy()
        for _ in range(40):
            drive = rng.normal(0.5, 0.6, size=(1, 6))
            spikes, state = lif_step(state, Tensor(drive), params, SURR)
            expected = leak * prev_u + drive - vth * prev_o
            assert np.allclose(state.membrane.data, expected, atol=1e-12)
            prev_u = state.membrane.data.copy()
            prev_o = spikes.data.copy()

    def test_hard_reset_kills_leak_where_spiked(self):
        params = LifParams.create(leak=0.9, threshold=0.5, reset_mode="hard")
        state = LifState(membrane=Tensor(np.array([2.0, 2.0])),
                         prev_spikes=Tensor(np.array([1.0, 0.0])))
        _, state = lif_step(state, Tensor(np.array([0.1, 0.1])), params, SURR)
        assert state.membrane.data[0] == pytest.approx(0.1)          # retained zeroed
        assert state.membrane.data[1] == pytest.approx(0.9 * 2 + 0.1)

    def test_spike_count_monotone_in_drive(self):
        counts = []
        for c in np.linspace(0.0, 2.0, 9):
            trace = run_chain([0.0], [[c]] * 30, leak=0.6, threshold=1.0)
            counts.append(sum(o.item() for _, o in trace))
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_shape_mismatch_rejected(self):
        params = LifParams.create()
        with pytest.raises(ValueError, match="shape"):
            lif_step(LifState.zeros((1, 3)), Tensor(np.zeros((1, 4))), params, SURR)

    @given(leak=st.floats(0.05, 0.95), u0=st.floats(-2.0, 2.0))
    @settings(max_examples=40)
    def test_decay_property(self, leak, u0):
        trace = run_chain([u0], [[0.0]] * 10, leak=leak, threshold=1e9)
        u10 = trace[-1][0].item()
        assert u10 == pytest.approx(u0 * leak ** 10, rel=1e-12, abs=1e-12)

    def test_three_step_chain_gradients(self):
        # unrolled 3-step chain in soft-forward mode against finite differences
        from conftest import check_grads
        from tempospike.engine import matmul, mse, Tensor

        rng = np.random.default_rng(31)
        x = [Tensor((rng.random((2, 4)) < 0.5).astype(float)) for _ in range(3)]
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True, name="w")
        params = LifParams.create(leak=0.6, threshold=1.0)
        target = Tensor(rng.normal(size=(2, 5)))

        def build():
            state = LifState.zeros((2, 5))
            total = None
            for t in range(3):
                spikes, state = lif_step(state, matmul(x[t], w), params, SURR,
                                         spike_mode="soft")
                total = spikes if total is None else total + spikes
            return mse(total, target)

        check_grads(build, [w, params.leak, params.threshold], tol=1e-4)


class TestClamp:
    def test_leak_above_one_clipped(self):
        p = LifParams.create(leak=0.5)
        p.leak.data[...] = 1.2
        clamp_params(p)
        assert p.leak.data.item() == pytest.approx(0.999)

    def test_negative_threshold_clipped(self):
        p = LifParams.create()
        p.threshold.data[...] = -1.0
        clamp_params(p)
        assert p.threshold.data.item() == pytest.approx(0.01)

    def test_in_range_untouched(self):
        p = LifParams.create(leak=0.6, threshold=15.0)
        clamp_params(p)
        assert p.leak.data.item() == 0.6
        assert p.threshold.data.item() == 15.0

    def test_create_rejects_bad_values(self):
        # the ranges training clamps to, so a stated value survives the first step
        for bad in (1.5, 0.9995, 5e-4, float("nan")):
            with pytest.raises(ValueError):
                LifParams.create(leak=bad)
        for bad in (0.0, 0.005, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                LifParams.create(threshold=bad)
        LifParams.create(leak=LEAK_MAX, threshold=THRESHOLD_MIN)
        LifParams.create(leak=LEAK_MIN)
        with pytest.raises(ValueError):
            LifParams.create(reset_mode="other")
